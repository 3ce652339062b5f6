"""Structural families and closed-form coefficients.

Extracts flats, the hyperplane-like flats one below full rank, the
circuit-like subsets of singleton-sum deficiency one, and the two
threshold sequences that bound where the closed-form coefficient
expressions are guaranteed:

  rank-drop threshold   r_k  = min complement size of a subset whose
                               rank is at least k below full rank
  deficiency threshold  r'_k = min size of a subset whose singleton-sum
                               deficiency reaches k

Both coefficient formulas are exact strictly below the respective
second threshold; outside that range they may still be evaluated, but
only with an explicit ``unchecked`` flag.  The two families and the two
threshold maps are computed once per polymatroid, as read-only mappings.

The 2^n-mask scans are whole-table passes.  The thresholds read the
distinct (level, size) pairs from one ``set`` of ``zip``; the families
compare the table with itself once per element, however many values.
"""

from __future__ import annotations

from itertools import compress
from math import comb
from operator import ne, sub
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .activity import polynomial_pair
from .core import Polymatroid, SizeLimitError, _once, _packed
from .subsets import bit, by_size, complement, elements_of, full_mask, iter_masks


def binom(a: int, b: int) -> int:
    """Binomial coefficient counting b-multisets over a - b + 1 symbols.

    binom(a, 0) is 1 for every a, so rank-zero and deficiency-zero
    instances keep their constant coefficient 1; otherwise the value is
    0 when b < 0 or a < b.
    """
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    return comb(a, b)


class FormulaRangeError(ValueError):
    """Coefficient index outside the guaranteed validity range."""


# -- flats -------------------------------------------------------------


@_once
def flats(P: Polymatroid) -> tuple[int, ...]:
    """The masks with no one-larger superset of equal rank, ascending; once per object."""
    return tuple(_maximal(_packed(P.table.values), P.n))


@_once
def hyperplane_sets(P: Polymatroid) -> Mapping[int, frozenset[int]]:
    """The flats of rank full_rank - 1 grouped by complement size j (keys 0..n); once per object."""
    values, top = P.table.values, P.full_rank - 1
    found = (m for m in flats(P) if values[m] == top)
    return MappingProxyType(by_size(found, P.n, lambda m: P.n - m.bit_count()))


def _maximal(values: bytes | tuple[int, ...], n: int) -> Iterator[int]:
    """The masks with no one-larger superset of the same value, ascending.

    ``values`` holds one value per mask, in mask order; lane m is byte m of an
    int.  For t = n down to 1, mask m is compared with m + t, 2^(t-1) lanes
    up: a ``bytes`` table by XOR, any other slice by slice.  Every lane starts
    with its top bit set; subtracting 1 from the lanes without t clears it
    where a comparison's low bits are zero, and OR-ing the comparison back
    sets it where its top bit is.
    """
    size, run = len(values), len(values) >> 1
    keep = high = int.from_bytes(b"\x80" * size, "little")
    table = int.from_bytes(values, "little") if type(values) is bytes else None
    without = high >> (7 + 8 * run)  # a 1 in each lane without element n: the lower half
    while run:
        if table is None:
            differ = int.from_bytes(bytes(map(ne, values[run:], values[:-run])), "little")
        else:
            differ = table ^ table >> 8 * run
        keep &= ((differ | high) - without) | differ
        run >>= 1
        without ^= without << 8 * run  # runs of `run` ones: the lanes without the next element
    return compress(iter_masks(n), keep.to_bytes(size, "little"))


# -- deficiency and circuits -------------------------------------------


def deficiency(P: Polymatroid, mask: int) -> int:
    """Sum of singleton ranks minus the rank; zero on singletons, monotone."""
    return sum(P.coord_max[e - 1] for e in elements_of(mask)) - P.rank(mask)


def full_deficiency(P: Polymatroid) -> int:
    return deficiency(P, full_mask(P.n))


def circuit_family(P: Polymatroid) -> frozenset[int]:
    """Subsets of deficiency exactly 1 all of whose proper subsets are tight.

    Deficiency is monotone, so these are the masks of deficiency 1 with no
    one-smaller subset of the same deficiency.  The deficiency table reversed
    holds mask full - m at m, so they are the complements of its maximal masks.
    """
    backward, full = _deficiencies(P)[::-1], full_mask(P.n)
    return frozenset(full ^ m for m in _maximal(backward, P.n) if backward[m] == 1)


@_once
def _deficiencies(P: Polymatroid) -> bytes | tuple[int, ...]:
    """The deficiency of every mask, by mask and ``_packed``; once per object."""
    return _packed(list(map(sub, P._singleton_sums(), P.table.values)))


@_once
def circuit_sets(P: Polymatroid) -> Mapping[int, frozenset[int]]:
    """Circuit-like subsets grouped by size (keys 0..n); once per object."""
    return MappingProxyType(by_size(circuit_family(P), P.n))


# -- thresholds ---------------------------------------------------------


@_once
def rank_drop_thresholds(P: Polymatroid) -> Mapping[int, int]:
    """r_k for every k where it exists (0 <= k <= full rank); once per object.

    Missing drops are genuinely absent: the map simply has no such key.
    """
    pairs = set(zip(P.table.values, map(int.bit_count, iter_masks(P.n))))
    levels = [(P.full_rank - v, P.n - size) for v, size in pairs]
    return _threshold_scan(levels, P.full_rank, P.n, "full rank")


@_once
def deficiency_thresholds(P: Polymatroid) -> Mapping[int, int]:
    """r'_k for every k where it exists (0 <= k <= full deficiency); once per object."""
    levels = set(zip(_deficiencies(P), map(int.bit_count, iter_masks(P.n))))
    return _threshold_scan(levels, full_deficiency(P), P.n, "full deficiency")


# A threshold map has one entry per level up to its top: refused before it is built.
_MAX_THRESHOLD_LEVEL = 1 << 20


def _threshold_scan(levels, top: int, n: int, what: str) -> Mapping[int, int]:
    """For k = 0..top, the least size among the (level, size) pairs whose level reaches k.

    Takes the least size at each level, then a suffix minimum.  A ``top`` past
    the limit raises ``SizeLimitError``, naming it as ``what``.
    """
    if top > _MAX_THRESHOLD_LEVEL:
        raise SizeLimitError(
            f"{what} {top} exceeds the limit {_MAX_THRESHOLD_LEVEL} for threshold maps"
        )
    best = [n + 1] * (top + 1)
    for level, size in levels:
        if 0 <= level <= top and size < best[level]:
            best[level] = size
    for k in range(top - 1, -1, -1):
        best[k] = min(best[k], best[k + 1])
    return MappingProxyType(dict(enumerate(best)))


# -- coefficient formulas -----------------------------------------------


def first_exterior_coefficients(P: Polymatroid) -> tuple[int, int]:
    """The constant and linear exterior coefficients in closed form."""
    c1 = sum(
        P.rank(complement(bit(t), P.n)) for t in range(1, P.n + 1)
    ) - (P.n - 1) * P.full_rank
    return 1, c1


def exterior_formula_range(P: Polymatroid) -> int:
    """Number of leading exterior coefficients the formula is guaranteed for."""
    return rank_drop_thresholds(P).get(2, 0)


def interior_formula_range(P: Polymatroid) -> int:
    """Number of leading interior coefficients the formula is guaranteed for."""
    return deficiency_thresholds(P).get(2, 0)


def exterior_coefficient_formula(P: Polymatroid, i: int, *, unchecked: bool = False) -> int:
    """Closed-form exterior coefficient from hyperplane-set counts.

    Exact for 0 <= i < the second rank-drop threshold; beyond that the
    value is only an upper-bound-style estimate and must be requested
    with ``unchecked=True``.
    """
    _check_index(P, i, unchecked, exterior_formula_range)
    return _binomial_formula(P.full_rank, {j: len(s) for j, s in hyperplane_sets(P).items()}, i)


def interior_coefficient_formula(P: Polymatroid, i: int, *, unchecked: bool = False) -> int:
    """Closed-form interior coefficient from circuit-set counts.

    Exact for 0 <= i < the second deficiency threshold.
    """
    _check_index(P, i, unchecked, interior_formula_range)
    return _binomial_formula(full_deficiency(P), {j: len(s) for j, s in circuit_sets(P).items()}, i)


def _check_index(P: Polymatroid, i: int, unchecked: bool, formula_range) -> None:
    """Reject a negative index, and one past ``formula_range(P)`` unless ``unchecked``."""
    if i < 0:
        raise FormulaRangeError("coefficient index must be nonnegative")
    if not unchecked and i >= (limit := formula_range(P)):
        raise FormulaRangeError(
            f"coefficient {i} is outside the guaranteed range "
            f"0..{limit - 1}; pass unchecked=True to evaluate anyway"
        )


def _binomial_formula(top: int, counts: Mapping[int, int], i: int) -> int:
    """binom(top + i - 1, i) - sum over j <= i of binom(top + i - 1 - j, i - j) * counts[j].

    ``counts`` maps a set size j to how many sets have it; a missing size counts zero.
    """
    total = binom(top + i - 1, i)
    for j in range(i + 1):
        total -= binom(top + i - 1 - j, i - j) * counts.get(j, 0)
    return total


# -- unimodality ---------------------------------------------------------


def is_unimodal(seq) -> bool:
    """True when the sequence rises (weakly) and then falls (weakly)."""
    seq = list(seq)
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i + 1 >= len(seq)


# -- binomial prefixes ---------------------------------------------------


class PrefixEquivalence(NamedTuple):
    """Two pairs of equivalent statements about pure-binomial prefixes.

    Exterior: coefficients 0..k are the pure binomials iff every
    complement of a size-k subset still has full rank.  Interior: the
    same with the deficiency-based binomials iff every size-k subset
    has singleton-sum deficiency zero.
    """

    k: int
    exterior_binomial: bool
    exterior_condition: bool
    interior_binomial: bool
    interior_condition: bool

    @property
    def exterior_equivalent(self) -> bool:
        return self.exterior_binomial == self.exterior_condition

    @property
    def interior_equivalent(self) -> bool:
        return self.interior_binomial == self.interior_condition

    @property
    def passed(self) -> bool:
        return self.exterior_equivalent and self.interior_equivalent


def binomial_prefix_check(P: Polymatroid, k: int) -> PrefixEquivalence:
    """Evaluate both prefix equivalences at a given k (0 <= k <= n-1).

    The conditions are read from the first thresholds.  Removing more
    elements never raises the rank, and adding elements never lowers
    the deficiency, so a failing set of size at most k extends to a
    failing set of size exactly k.  Hence the complement of every
    size-k subset has full rank iff r_1 > k, and every size-k subset
    has deficiency zero iff r'_1 > k; a missing threshold never fails.
    """
    if not 0 <= k <= P.n - 1:
        raise ValueError(f"k must satisfy 0 <= k <= {P.n - 1}, got {k}")
    interior, exterior = polynomial_pair(P)
    fr = P.full_rank
    g = full_deficiency(P)
    ext_binomial = all(exterior.coefficient(i) == binom(fr + i - 1, i) for i in range(k + 1))
    int_binomial = all(interior.coefficient(i) == binom(g + i - 1, i) for i in range(k + 1))
    ext_condition = rank_drop_thresholds(P).get(1, P.n + 1) > k
    int_condition = deficiency_thresholds(P).get(1, P.n + 1) > k
    return PrefixEquivalence(k, ext_binomial, ext_condition, int_binomial, int_condition)
