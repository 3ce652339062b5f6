"""Dense one-variable polynomials with integer coefficients.

Coefficients are stored ascending by degree.  Equality compares
coefficients only; the variable name is a display tag, so an interior
polynomial in x can be compared directly against an exterior
polynomial in y.
"""

from __future__ import annotations

_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _trimmed(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


class Polynomial:
    """Immutable; ``coeffs`` has its trailing zeros trimmed, and ``var`` is not compared."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: tuple[int, ...], var: str = "y"):
        object.__setattr__(self, "coeffs", _trimmed(coeffs or (0,)))
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r}, var={self.var!r})"

    def __reduce__(self):
        return type(self), (self.coeffs, self.var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __call__(self, value: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

    def reversed_to(self, degree: int) -> "Polynomial":
        """Reverse the coefficient list after padding it up to ``degree``."""
        if self.degree > degree:
            raise ValueError(f"degree {self.degree} exceeds reversal degree {degree}")
        padded = self.coeffs + (0,) * (degree - self.degree)
        return Polynomial(tuple(reversed(padded)), self.var)

    def pretty(self) -> str:
        """Human form like ``1+3y+5y²``; zero terms are skipped."""
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
                continue
            head = "" if c == 1 else ("-" if c == -1 else str(c))
            power = "" if k == 1 else str(k).translate(_SUPERSCRIPT)
            terms.append(f"{head}{self.var}{power}")
        if not terms:
            return "0"
        return "+".join(terms).replace("+-", "-")

    def __str__(self) -> str:
        return self.pretty()
