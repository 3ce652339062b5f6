"""Internal and external activity of bases; interior and exterior polynomials.

For a basis a, index i is internally active when no transfer
a - e_i + e_j with j < i stays a basis, and externally active when no
transfer a + e_i - e_j with j < i does.  Index 1 is active vacuously on
both counts.  The interior polynomial counts bases by the number of
internally inactive indices, the exterior polynomial by externally
inactive ones; both therefore evaluate to the number of bases at 1.
"""

from __future__ import annotations

from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

from .core import Polymatroid, _once, _packed, _pinned, _shifted, _split
from .polynomials import Polynomial


@_once
def polynomial_pair(P: Polymatroid) -> tuple[Polynomial, Polynomial]:
    """(interior, exterior) in one sweep over the bases; once per object.

    Walks ``P._basis_dag()`` straight to integer codes, building no basis tuple;
    ``coord_min`` and ``coord_max`` are exact column bounds (every value in a
    coordinate's range occurs in some basis), so they give weights and masks."""
    edges = P._basis_dag()
    weights = _weights(P.coord_min, P.coord_max)
    levels = list(zip(weights, P.coord_min, P.coord_max, (1 << t for t in range(P.n))))
    codes: dict[int, tuple[int, int]] = {}

    def walk(k: int, t: int, code: int, above: int, below: int) -> None:
        w, lo, hi, b = levels[t]
        for j, child in edges[k]:
            c = code + j * w
            a = above | b if j > lo else above
            d = below | b if j < hi else below
            if child is None:
                codes[c] = (a, d)
            else:
                walk(child, t + 1, c, a, d)

    walk(len(edges) - 1, 0, 0, 0, 0)
    del walk  # it refers to itself: free it now, not at a cyclic collection
    return _sweep(codes, weights, P.n)


def exterior_by_slices(P: Polymatroid, element: int | None = None) -> Polynomial:
    """Exterior polynomial through the coordinate-slice recursion.

    X(P) = X(P contract t) + y * sum of X over the remaining slices of
    coordinate t.  The route ``poly`` and ``coeffs`` run; ``verify`` compares
    it with the exterior half of ``polynomial_pair``, its second route.  The
    recursion bottoms out at one element, where the polynomial is 1.  The
    first step moves ``element`` to the top;
    the recursion then runs on ``_packed`` tables, whose halves are C-level
    slices and whose contraction is one ``_shifted``, and adds plain
    coefficient lists; one ``Polynomial`` is built at the root.  Slices often
    share a rank table, so each table, pivoting on the top element, is expanded
    once per call; the memo is freed on return.  By submodularity the lowest
    pin's slice is the deletion f(I) itself, so only the pins strictly between
    deletion and contraction take the min, all at once by ``core._pinned``.
    """
    if element is None:
        element = P.n
    P._check_element(element)
    expanded: dict[bytes | tuple[int, ...], list[int]] = {}

    def expand(values: bytes | tuple[int, ...]) -> list[int]:
        if values not in expanded:
            total = [1]
            half = len(values) // 2
            if half > 1:
                without, within = values[:half], values[half:]  # f(I), f(I + top)
                lowest, top = values[-1] - without[-1], within[0]
                total = list(expand(_shifted(within, top)))
                slices = [without] if top > lowest else []
                if top > lowest + 1:
                    slices += _pinned(without, within, range(lowest + 1, top))
                for child in map(expand, slices):
                    total += [0] * (len(child) + 1 - len(total))
                    for k, c in enumerate(child, 1):  # y * child
                        total[k] += c
            expanded[values] = total
        return expanded[values]

    without, within = _split(P.table.values, element)
    total = expand(_packed(without + within))
    del expand  # it refers to itself: free the memo now, not at a cyclic collection
    return Polynomial(tuple(total), "y")


def interior_by_slices(P: Polymatroid, element: int | None = None) -> Polynomial:
    """Interior polynomial via the slice recursion applied to the dual."""
    return Polynomial(exterior_by_slices(P.dual(), element).coeffs, "x")


def _weights(lows: Sequence[int], highs: Sequence[int]) -> list[int]:
    """Mixed radix: coordinate t has a radix of its range plus one spare value,
    so a +-1 step out of the range lands on a digit no point has."""
    return list(accumulate((hi - lo + 2 for lo, hi in zip(lows, highs)), mul, initial=1))[:-1]


def _sweep(codes: dict, weights: Sequence[int], n: int) -> tuple[Polynomial, Polynomial]:
    """Count inactive indices over distinct codes, each mapped to the masks of its
    coordinates above their minimum and below their maximum.  The probe
    a -/+ e_i +/- e_j (j < i) has code c -/+ (w_i - w_j); it must miss when a_i
    is at its minimum/maximum, so it is skipped.  Index 1 is never probed."""
    steps = [(1 << i, [w_j - w_i for w_j in weights[:i]]) for i, w_i in enumerate(weights)][1:]
    interior = [0] * (n + 1)
    exterior = [0] * (n + 1)
    for c, (above, below) in codes.items():
        internally_inactive = externally_inactive = 0
        for b, diffs in steps:
            if above & b:
                for d in diffs:
                    if c + d in codes:
                        internally_inactive += 1
                        break
            if below & b:
                for d in diffs:
                    if c - d in codes:
                        externally_inactive += 1
                        break
        interior[internally_inactive] += 1
        exterior[externally_inactive] += 1
    return Polynomial(tuple(interior), "x"), Polynomial(tuple(exterior), "y")


class DualityReport(NamedTuple):
    """Both polynomials of P against the swapped pair of its dual.

    Each check's name, condition and detail are stated once, in ``checks()``."""

    interior: Polynomial
    exterior: Polynomial
    dual_interior: Polynomial
    dual_exterior: Polynomial

    def checks(self) -> list[tuple[str, bool, str]]:
        return [
            (
                "interior-equals-dual-exterior",
                self.interior == self.dual_exterior,
                f"{self.interior.coeffs} vs {self.dual_exterior.coeffs}",
            ),
            (
                "exterior-equals-dual-interior",
                self.exterior == self.dual_interior,
                f"{self.exterior.coeffs} vs {self.dual_interior.coeffs}",
            ),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks())


def check_duality(P: Polymatroid) -> DualityReport:
    """Interior and exterior swap under dualization; report both pairs."""
    interior, exterior = polynomial_pair(P)
    dual_interior, dual_exterior = polynomial_pair(P.dual())
    return DualityReport(interior, exterior, dual_interior, dual_exterior)


class InvarianceReport(NamedTuple):
    permutation: tuple[int, ...]
    interior: Polynomial
    exterior: Polynomial
    relabeled_interior: Polynomial
    relabeled_exterior: Polynomial

    @property
    def passed(self) -> bool:
        return (
            self.interior == self.relabeled_interior
            and self.exterior == self.relabeled_exterior
        )


def check_permutation_invariance(P: Polymatroid, sigma: Sequence[int]) -> InvarianceReport:
    """Both polynomials are unchanged by relabeling the ground set."""
    interior, exterior = polynomial_pair(P)
    relabeled_interior, relabeled_exterior = polynomial_pair(P.relabel(sigma))
    return InvarianceReport(tuple(sigma), interior, exterior, relabeled_interior, relabeled_exterior)
