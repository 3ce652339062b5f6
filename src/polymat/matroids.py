"""Matroids given by explicit base lists, plus a Tutte-polynomial oracle.

The native families come from the base list alone, by fundamental
circuits and cocircuits (hyperplanes are the cocircuits' complements,
loops the elements in no base), for ``verify`` to compare with the
rank-table families of the polymatroid view.  The Tutte polynomial is
evaluated by the corank-nullity subset expansion, which is independent
of the activity machinery and is used to cross-check the interior and
exterior polynomials of the induced polymatroid: the 0/1 indicator
vectors of the bases.  Its grid is computed once per matroid and
shared by every check that reads it.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import compress, filterfalse
from math import comb
from operator import or_, sub
from typing import Iterable, NamedTuple, Sequence

from .activity import polynomial_pair
from .core import Polymatroid, RankTable, ValidationError, _check_axioms, _once
from .polynomials import Polynomial
from .structure import (
    circuit_sets,
    deficiency_thresholds,
    hyperplane_sets,
    rank_drop_thresholds,
)
from .subsets import bits, by_size, elements_of, full_mask, iter_masks, mask_of

DEFAULT_MAX_ELEMENTS = 20


class BaseExchangeError(ValueError):
    """The base list violates the exchange axiom."""

    def __init__(self, first, second, element: int):
        super().__init__(
            f"no exchange for element {element} of base {set(first)} against base {set(second)}"
        )
        self.first = tuple(first)
        self.second = tuple(second)
        self.element = element


class Matroid:
    """Matroid on {1..n} from an explicit list of bases.

    Bases must be nonempty as a collection, equicardinal, and satisfy the
    exchange axiom; all three are checked on construction, exchange through
    r(S) = max |S & B| over the bases B: r rises by at most one per element, so
    it passes ``_check_axioms`` iff it is a matroid rank function, whose bases
    (full-rank sets of size |B|, each inside a listed base) are the listed ones.
    Only a rejected list is scanned for the exchange witness.
    """

    def __init__(self, n: int, bases: Iterable[Iterable[int]]):
        if n < 1:
            raise ValueError("ground-set size must be a positive integer")
        masks = sorted({mask_of(b, n) for b in bases})
        if not masks:
            raise ValueError("a matroid needs at least one base")
        sizes = {m.bit_count() for m in masks}
        if len(sizes) > 1:
            raise ValueError(f"bases must share one size, got sizes {sorted(sizes)}")
        independent = layer = set(masks)  # the down-closure of the bases, size by size
        while layer:
            layer = {m ^ b for m in layer for b in bits(m)}
            independent |= layer
        # max |S & B| is |S| on the down-closure, else the best one-smaller subset's.
        ranks = [0] * (1 << n)
        for m in range(1, 1 << n):
            ranks[m] = m.bit_count() if m in independent else max([ranks[m ^ b] for b in bits(m)])
        try:
            _check_axioms(RankTable(n, ranks, max_n=n))
        except ValidationError:
            _check_exchange(masks)
            raise  # not reached: a list that fails the axioms fails exchange
        self._set(n, ranks, masks)

    @classmethod
    def _trusted(cls, n: int, ranks: Sequence[int], base_masks: Sequence[int]) -> Matroid:
        """Build unchecked from a rank table and base list that form a matroid by theorem."""
        M = cls.__new__(cls)
        M._set(n, ranks, base_masks)
        return M

    def _set(self, n: int, ranks: Sequence[int], base_masks: Sequence[int]) -> None:
        self.n = n
        self._ranks = tuple(ranks)
        self.rank = self._ranks[-1]
        self.base_masks = tuple(base_masks)

    def subset_rank(self, mask: int) -> int:
        """Largest intersection of the subset with a base."""
        return self._ranks[mask]

    @_once
    def to_polymatroid(self) -> Polymatroid:
        """Rank table of the matroid rank function; its bases are the 0/1 indicators."""
        return Polymatroid._trusted(self.n, self._ranks)

    # -- matroid-native structure, read from the base list alone so it is
    #    an independent route next to the polymatroid view's rank table ---

    def _fundamental_sets(self, pivot_in_base: bool) -> frozenset[int]:
        """Fundamental cocircuits (pivot p in a base B) or circuits (p outside B).

        Each distinct exchange core C (B - p or B + p) is probed once: the set
        is every x with C ^ x a base.  All of them arise so.  An x on the wrong
        side of C leaves |B| - 2 or |B| + 2 elements, never a base.
        """
        base_set = set(self.base_masks)
        every = full_mask(self.n)
        singles = [1 << i for i in range(self.n)]
        cores = {b ^ p for b in self.base_masks for p in bits(b if pivot_in_base else every ^ b)}
        return frozenset(sum([x for x in singles if c ^ x in base_set]) for c in cores)

    def hyperplanes(self) -> frozenset[int]:
        """Flats of rank one less than the matroid rank: the complements of the cocircuits."""
        return frozenset(full_mask(self.n) ^ c for c in self._fundamental_sets(True))

    def hyperplane_sets(self) -> dict[int, frozenset[int]]:
        return by_size(self.hyperplanes(), self.n, lambda m: self.n - m.bit_count())

    def loop_mask(self) -> int:
        """Elements in no base, as a mask."""
        return full_mask(self.n) & ~reduce(or_, self.base_masks)

    def circuits(self) -> frozenset[int]:
        """Minimal dependent subsets."""
        return self._fundamental_sets(False)

    def circuit_sets(self) -> dict[int, frozenset[int]]:
        return by_size(self.circuits(), self.n)

    def rank_drop_threshold(self, k: int) -> int | None:
        """Smallest removal set R with rank(E - R) = rank - k, read off the table backwards."""
        exact = compress(iter_masks(self.n), map((self.rank - k).__eq__, reversed(self._ranks)))
        return min(map(int.bit_count, exact), default=None)

    def nullity_threshold(self, k: int) -> int | None:
        """Smallest loop-free subset whose nullity (size minus rank) is exactly k.

        Only loop-free subsets are scanned, which matches the singleton-sum
        deficiency of the polymatroid view, where rank-zero elements
        contribute nothing.
        """
        masks = iter_masks(self.n)
        nullities = map(sub, map(int.bit_count, masks), self._ranks)
        exact = filterfalse(self.loop_mask().__and__, compress(masks, map(k.__eq__, nullities)))
        return min(map(int.bit_count, exact), default=None)

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.rank}, bases={len(self.base_masks)})"


def _check_exchange(masks: Sequence[int]) -> None:
    base_set = set(masks)
    for a in masks:
        for b in masks:
            if a == b:
                continue
            for low in bits(a & ~b):
                stripped = a ^ low
                if not any(stripped | y in base_set for y in bits(b & ~a)):
                    raise BaseExchangeError(elements_of(a), elements_of(b), low.bit_length())


class TuttePolynomial(NamedTuple):
    """Two-variable coefficient grid; grid[i][j] is the x^i y^j coefficient."""

    grid: tuple[tuple[int, ...], ...]

    def coefficient(self, i: int, j: int) -> int:
        if 0 <= i < len(self.grid) and 0 <= j < len(self.grid[i]):
            return self.grid[i][j]
        return 0

    def evaluate(self, x: int, y: int) -> int:
        return sum(
            c * x**i * y**j for i, row in enumerate(self.grid) for j, c in enumerate(row)
        )

    def at_x1(self) -> Polynomial:
        """T(1, y) as a one-variable polynomial."""
        cols = max(len(r) for r in self.grid)
        return Polynomial(
            tuple(sum(self.coefficient(i, j) for i in range(len(self.grid))) for j in range(cols)),
            "y",
        )

    def at_y1(self) -> Polynomial:
        """T(x, 1) as a one-variable polynomial."""
        return Polynomial(tuple(sum(row) for row in self.grid), "x")


@_once
def tutte_polynomial(M: Matroid) -> TuttePolynomial:
    """Corank-nullity expansion over the 2^n subsets of the rank table; once per matroid.

    The subsets are counted by (rank, size) pair first, which fixes corank
    and nullity, and each distinct pair's term (x - 1)^corank (y - 1)^nullity
    is expanded once, times its count.  Reads the table the matroid already holds, so it
    needs no size guard of its own: the input's size guard bounds both.
    """
    d = M.rank
    width = M.n - d
    pairs = Counter(zip(M._ranks, map(int.bit_count, iter_masks(M.n))))
    grid = [[0] * (width + 1) for _ in range(d + 1)]
    for (r, size), count in pairs.items():
        a, b = d - r, size - r
        for k in range(a + 1):
            ca = count * comb(a, k) * (-1) ** (a - k)
            for l in range(b + 1):
                grid[k][l] += ca * comb(b, l) * (-1) ** (b - l)
    return TuttePolynomial(tuple(tuple(row) for row in grid))


class MatroidPolynomialReport(NamedTuple):
    """Cross-check of the activity route against the Tutte oracle.

    Each check's name, condition and detail are stated once, in ``checks()``."""

    interior: Polynomial
    exterior: Polynomial
    tutte: TuttePolynomial
    exterior_matches: bool
    interior_matches: bool
    count_matches: bool
    rank_drop_bridge: bool
    nullity_bridge: bool
    hyperplane_bridge: bool
    circuit_bridge: bool

    def checks(self) -> list[tuple[str, bool, str]]:
        return [
            ("tutte-exterior-reversal", self.exterior_matches, ""),
            ("tutte-interior-reversal", self.interior_matches, ""),
            ("tutte-basis-count", self.count_matches, ""),
            ("matroid-rank-drop-bridge", self.rank_drop_bridge, ""),
            ("matroid-nullity-bridge", self.nullity_bridge, ""),
            ("matroid-hyperplane-bridge", self.hyperplane_bridge, ""),
            ("matroid-circuit-bridge", self.circuit_bridge, ""),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks())


def check_matroid_polynomials(M: Matroid) -> MatroidPolynomialReport:
    """Activity polynomials against reversed Tutte specializations.

    The exterior polynomial must equal the reversal of T(1, y) padded to
    degree n - rank, the interior polynomial the reversal of T(x, 1)
    padded to degree rank; thresholds and the hyperplane and circuit
    families must agree between the matroid and polymatroid routes.
    """
    P = M.to_polymatroid()
    interior, exterior = polynomial_pair(P)
    T = tutte_polynomial(M)
    exterior_matches = exterior == T.at_x1().reversed_to(M.n - M.rank)
    interior_matches = interior == T.at_y1().reversed_to(M.rank)
    count_matches = T.evaluate(1, 1) == P.basis_count()
    rank_drop_bridge = rank_drop_thresholds(P).get(2) == M.rank_drop_threshold(2)
    nullity_bridge = deficiency_thresholds(P).get(2) == M.nullity_threshold(2)
    hyperplane_bridge = hyperplane_sets(P) == M.hyperplane_sets()
    # Loop singletons are matroid circuits but carry no singleton-sum
    # deficiency, so the polymatroid family matches the loop-free circuits.
    loops = M.loop_mask()
    loop_free = {j: frozenset(c for c in s if not c & loops) for j, s in M.circuit_sets().items()}
    circuit_bridge = circuit_sets(P) == loop_free
    return MatroidPolynomialReport(
        interior,
        exterior,
        T,
        exterior_matches,
        interior_matches,
        count_matches,
        rank_drop_bridge,
        nullity_bridge,
        hyperplane_bridge,
        circuit_bridge,
    )
