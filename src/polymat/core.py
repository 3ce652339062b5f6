"""Integer polymatroids presented by explicit rank tables.

A rank table stores one integer per subset of {1..n}, densely indexed
by subset mask.  ``Polymatroid`` checks the three rank axioms on
construction and exposes the lattice-point view: an integer vector a
belongs to the polymatroid when sum(a[I]) <= f(I) for every subset I
and sum(a) = f({1..n}).  Those maximal lattice points are called the
bases here.

The axioms are checked once, on tables from outside.  Derived constructions
and the frontends' rank functions are valid by theorem and skip the check.
"""

from __future__ import annotations

from functools import wraps
from itertools import repeat
from operator import add, ge, itemgetter, sub
from typing import Callable, Iterable, Sequence

from .subsets import bit, complement, elements_of, full_mask, iter_masks, mask_of, subset_sums

DEFAULT_MAX_GROUND_SET = 16


class SizeLimitError(ValueError):
    """Input exceeds a desk-scale size guard."""


class ValidationError(ValueError):
    """A rank table violates one of the rank-function axioms."""


class NormalizationError(ValidationError):
    """The empty set must have rank zero."""

    def __init__(self, value: int):
        super().__init__(f"rank of the empty set must be 0, got {value}")
        self.value = value


class MonotonicityError(ValidationError):
    """Rank decreased when an element was added."""

    def __init__(self, smaller, larger, rank_smaller: int, rank_larger: int):
        super().__init__(
            f"rank must not decrease: f({set(smaller) or '{}'}) = {rank_smaller} "
            f"> f({set(larger)}) = {rank_larger}"
        )
        self.smaller = tuple(smaller)
        self.larger = tuple(larger)
        self.rank_smaller = rank_smaller
        self.rank_larger = rank_larger


class SubmodularityError(ValidationError):
    """The local submodular inequality failed on (I, i, j)."""

    def __init__(self, base, i: int, j: int, lhs: int, rhs: int):
        super().__init__(
            f"submodularity fails at I = {set(base) or '{}'} with elements "
            f"i = {i}, j = {j}: f(I+i) + f(I+j) = {lhs} < f(I+i+j) + f(I) = {rhs}"
        )
        self.base = tuple(base)
        self.i = i
        self.j = j


def _check_ground_set(n: int, max_n: int) -> None:
    """Refuse a ground-set size before any work on its 2^n subsets."""
    if n < 1:
        raise ValueError("ground-set size must be a positive integer")
    if n > max_n:
        raise SizeLimitError(f"ground-set size {n} exceeds the limit {max_n}")


class RankTable:
    """Total map from subsets of {1..n} to integers, stored densely by mask."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Iterable[int], *, max_n: int = DEFAULT_MAX_GROUND_SET):
        _check_ground_set(n, max_n)
        vals = tuple(values)
        if len(vals) != 1 << n:
            raise ValueError(f"need {1 << n} rank values for n = {n}, got {len(vals)}")
        for v in vals:
            if not isinstance(v, int):
                raise TypeError(f"rank values must be integers, got {v!r}")
        self.n = n
        self.values = vals

    def rank_of(self, elements: Iterable[int]) -> int:
        """Rank of a subset given as an element collection."""
        return self.values[mask_of(elements, self.n)]

    @classmethod
    def from_function(
        cls,
        n: int,
        fn: Callable[[tuple[int, ...]], int],
        *,
        max_n: int = DEFAULT_MAX_GROUND_SET,
    ) -> "RankTable":
        """Tabulate ``fn`` over all subsets; ``fn`` receives element tuples."""
        _check_ground_set(n, max_n)
        return cls(n, [fn(elements_of(m)) for m in iter_masks(n)], max_n=max_n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankTable):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"RankTable(n={self.n}, full={self.values[-1]})"


def _check_axioms(table: RankTable) -> None:
    """Raise the first axiom violation in mask order, if there is one.

    Whole lists decide: for each element t the gains f(I + t) - f(I) must be
    nonnegative and, split on each later element u, must not grow when u
    joins I.  Only a rejected table is scanned for the first witness.
    """
    values = table.values
    n = table.n
    if values[0] != 0:
        raise NormalizationError(values[0])
    for t in range(1, n + 1):
        without, within = _split(values, t)
        gains = list(map(sub, within, without))
        # Split on u = t..n-1: the later elements, renumbered down past t.
        if min(gains) < 0 or not all(all(map(ge, *_split(gains, u))) for u in range(t, n)):
            return _first_violation(values, n)


def _first_violation(values: Sequence[int], n: int) -> None:
    for m in iter_masks(n):
        vm = values[m]
        for t in range(n):
            b = 1 << t
            if m & b:
                continue
            if vm > values[m | b]:
                raise MonotonicityError(elements_of(m), elements_of(m | b), vm, values[m | b])
    for m in iter_masks(n):
        vm = values[m]
        for i in range(n):
            bi = 1 << i
            if m & bi:
                continue
            for j in range(i + 1, n):
                bj = 1 << j
                if m & bj:
                    continue
                lhs = values[m | bi] + values[m | bj]
                rhs = values[m | bi | bj] + vm
                if lhs < rhs:
                    raise SubmodularityError(elements_of(m), i + 1, j + 1, lhs, rhs)


def _once(compute):
    """Keep ``compute(obj)`` in ``obj.__dict__``: immutable objects and results only.

    A raised exception is not kept, so a failed call fails again.
    """
    key = f"{compute.__module__}.{compute.__qualname__}"

    @wraps(compute)
    def cached(obj):
        memo = obj.__dict__
        if key not in memo:
            memo[key] = compute(obj)
        return memo[key]

    return cached


# _DOWN[j] maps each byte b to b - j (mod 256): ``bytes.translate`` shifts a table down by j.
_R = bytes(range(256))
_DOWN = [_R[256 - j :] + _R[: 256 - j] for j in range(256)]


def _packed(values: Sequence[int]) -> bytes | tuple[int, ...]:
    """A slice-walk table: ``bytes`` (C-speed slices, cached hash) when every value fits a byte."""
    try:
        return bytes(bytearray(values))  # from a list or tuple, twice as fast as bytes(values)
    except ValueError:
        return tuple(values)


def _shifted(values: bytes | tuple[int, ...], j: int) -> bytes | tuple[int, ...]:
    """Every value minus j, in the same packing; the walks only shift by at most
    the least value (monotonicity), so nothing goes negative."""
    if type(values) is bytes:
        return values.translate(_DOWN[j])
    return tuple(map(sub, values, repeat(j)))


# _RAMP[255 - j : 511 - j] maps each byte g to max(0, j - g): one slice per pin, no 256 tables.
_RAMP = bytes(range(255, 0, -1)) + bytes(256)


def _pinned(
    without: bytes | tuple[int, ...], within: bytes | tuple[int, ...], pins: range
) -> list[bytes | tuple[int, ...]]:
    """The slice tables min(f(I), f(I + t) - j) for each j in ``pins``, in the halves' packing.

    For ``bytes``, each table is one wide integer: every gain f(I + t) - f(I)
    is at least 0 (monotonicity), so one subtraction gives all the gains with
    no borrow between bytes.  A pin then subtracts max(0, j - gain) from f(I)
    by one ``translate``; no byte goes negative because j <= f({t}) <= f(I + t).
    """
    if type(without) is not bytes:
        return [tuple(map(min, without, _shifted(within, j))) for j in pins]
    size, low = len(without), int.from_bytes(without, "little")
    gains = (int.from_bytes(within, "little") - low).to_bytes(size, "little")
    drops = (int.from_bytes(gains.translate(_RAMP[255 - j : 511 - j]), "little") for j in pins)
    return [(low - drop).to_bytes(size, "little") for drop in drops]


def _slices(
    without: bytes | tuple[int, ...], within: bytes | tuple[int, ...]
) -> list[bytes | tuple[int, ...]]:
    """The slice table of every pin of the element the halves f(I), f(I + t) split on,
    deletion first and contraction last, in the halves' packing.

    The pins run from f(E) - f(E - t) up to f({t}).  By submodularity the lowest
    pin's slice is the deletion f(I) and the highest pin's the contraction
    f(I + t) - f({t}), one ``_shifted``; with one pin they are the same table,
    listed once.  Only the pins strictly between take the min, all at once by
    ``_pinned``.
    """
    lowest, top = within[-1] - without[-1], within[0]
    if top == lowest:
        return [without]
    if top == lowest + 1:
        return [without, _shifted(within, top)]
    return [without, *_pinned(without, within, range(lowest + 1, top)), _shifted(within, top)]


def _split(values: Sequence[int], t: int) -> tuple[list[int], list[int]]:
    """(f(I), f(I + t)) over the subsets I of the other elements, renumbered downward.

    Masks without t come in runs of 2^(t-1), alternating with runs that
    contain t.  Both lists are filled from at most sqrt(2^n) slices: one
    stride per offset in a run while runs are short, else one per run.
    """
    run, half = 1 << (t - 1), len(values) // 2
    without, within = [0] * half, [0] * half
    if run * run <= 2 * half:
        for r in range(run):
            without[r::run] = values[r :: 2 * run]
            within[r::run] = values[r + run :: 2 * run]
    else:
        for s in range(0, half, run):
            without[s : s + run] = values[2 * s : 2 * s + run]
            within[s : s + run] = values[2 * s + run : 2 * s + 2 * run]
    return without, within


class Polymatroid:
    """A validated rank table together with its lattice-point bases.

    Construction runs the axiom checks (normalization, monotonicity,
    local submodularity) and raises the matching ``ValidationError``
    subclass, carrying the first witnessing subsets in scan order.
    Tables valid by theorem come in through ``_trusted`` and skip them.
    A polymatroid is immutable: its basis DAG, bases, dual, polynomial
    pair and structure maps are computed once (``_once``) and then shared.
    Its minors are slices: ``slice_at`` at an element's lowest pin is the
    deletion and at its highest pin the contraction.
    """

    def __init__(self, table: RankTable):
        _check_axioms(table)
        self._set_table(table)

    @classmethod
    def _trusted(cls, n: int, values: Sequence[int]) -> Polymatroid:
        """Skip the axiom and input checks: only for derived tables and frontend rank functions."""
        table = RankTable.__new__(RankTable)
        table.n = n
        table.values = tuple(values)
        P = cls.__new__(cls)
        P._set_table(table)
        return P

    def _set_table(self, table: RankTable) -> None:
        self.table = table
        self.n = table.n
        full = full_mask(self.n)
        self.full_rank = table.values[full]
        self.coord_min = tuple(
            self.full_rank - table.values[complement(bit(t), self.n)] for t in range(1, self.n + 1)
        )
        self.coord_max = tuple(table.values[bit(t)] for t in range(1, self.n + 1))

    # -- rank access ---------------------------------------------------

    def rank(self, mask: int) -> int:
        return self.table.values[mask]

    def rank_of(self, elements: Iterable[int]) -> int:
        return self.table.rank_of(elements)

    def coordinate_range(self, t: int) -> range:
        """Values coordinate t takes over the bases (inclusive bounds)."""
        self._check_element(t)
        return range(self.coord_min[t - 1], self.coord_max[t - 1] + 1)

    def _check_element(self, t: int) -> None:
        if not 1 <= t <= self.n:
            raise ValueError(f"element {t} outside ground set 1..{self.n}")

    # -- lattice points ------------------------------------------------

    @_once
    def _basis_dag(self) -> tuple[tuple[tuple[int, int | None], ...], ...]:
        """The slices of ``bases()`` as a DAG: each node's (j, child) edges, root last.

        Pins the lowest element to each j from f(E) - f(E - 1) to f({1}) and
        recurses on that slice, whose table min(f(I), f(I + 1) - j) over the
        other elements (the theorem behind ``slice_at``) is half the size and
        comes from ``_slices`` of the even and odd entries, f(I) and f(I + 1).
        Every slice in range is nonempty, so every root-to-leaf path is a basis.

        Tables are ``_packed``, so the halves are C-level slices and a ``bytes``
        memo key caches its hash.
        Many prefixes reach the same slice, so each distinct table is one node;
        a one-element table (0, a) is a leaf edge (a, None).  A node at depth
        t - 1 pins element t.  Only the edges are kept, not the tables.
        """
        node_of: dict[bytes | tuple[int, ...], int] = {}
        edges: list[tuple[tuple[int, int | None], ...]] = []

        def node(vals: bytes | tuple[int, ...]) -> int:
            if vals not in node_of:
                if len(vals) > 2:
                    slices = _slices(vals[0::2], vals[1::2])  # f(I) and f(I + 1)
                    lowest = vals[-1] - vals[-2]  # the first pin: f(E) - f(E - 1)
                    edges.append(tuple((j, node(vs)) for j, vs in enumerate(slices, lowest)))
                else:
                    edges.append(((vals[1], None),))
                node_of[vals] = len(edges) - 1
            return node_of[vals]

        node(_packed(self.table.values))
        del node  # it refers to itself: free the memo now, not at a cyclic collection
        return tuple(edges)

    @_once
    def bases(self) -> tuple[tuple[int, ...], ...]:
        """Every basis in lexicographic order: the DAG's paths, depth first in increasing j."""
        edges = self._basis_dag()
        out: list[tuple[int, ...]] = []

        def walk(prefix: tuple[int, ...], k: int) -> None:
            for j, child in edges[k]:
                if child is None:
                    out.append(prefix + (j,))
                else:
                    walk(prefix + (j,), child)

        walk((), len(edges) - 1)
        del walk
        return tuple(out)

    def basis_count(self) -> int:
        """The number of root-to-leaf paths of ``_basis_dag``, counted without listing them."""
        paths: list[int] = []
        for node in self._basis_dag():
            paths.append(sum(1 if child is None else paths[child] for _, child in node))
        return paths[-1]

    @_once
    def _singleton_sums(self) -> bytes | tuple[int, ...]:
        """Sum of the singleton ranks over every mask, by mask and ``_packed``; once per object."""
        return _packed(subset_sums(self.coord_max))

    # -- derived polymatroids -------------------------------------------

    @_once
    def dual(self) -> Polymatroid:
        """Rank table f*(I) = f([n] \\ I) - f([n]) + sum of singleton ranks over I.

        Mask [n] \\ I is full - I, so the first term is the table read backwards."""
        dual_values = map(add, self.table.values[::-1], self._singleton_sums())
        return Polymatroid._trusted(self.n, map(sub, dual_values, repeat(self.full_rank)))

    def grounded(self) -> Polymatroid:
        """The translate of this polymatroid whose coordinate minima are zero.

        Subtracts each element's minimum basis coordinate from the rank
        of every subset containing it; the bases shift down by the
        minima and the polynomials are unchanged.
        """
        if not any(self.coord_min):
            return self
        shifts = subset_sums(self.coord_min)
        values = [v - shift for v, shift in zip(self.table.values, shifts)]
        return Polymatroid._trusted(self.n, values)

    def slice_at(self, t: int, j: int) -> Polymatroid:
        """Polymatroid of bases with coordinate t pinned to j, t projected out.

        Its rank function is min(f(I), f(I + t) - j) on the remaining
        elements, renumbered downward.  By submodularity the lowest pin's
        slice is the deletion f(I) and the highest pin's the contraction
        f(I + t) - f({t}).  It keeps its own per-entry min, independent of the
        walks' ``_slices``, so it stays the reference the tests check
        ``_slices`` against.
        """
        self._check_element(t)
        if j not in self.coordinate_range(t):
            raise ValueError(
                f"slice value {j} outside coordinate range "
                f"{self.coord_min[t - 1]}..{self.coord_max[t - 1]} of element {t}"
            )
        if self.n == 1:
            raise ValueError("cannot slice a one-element ground set")
        without, within = _split(self.table.values, t)
        return Polymatroid._trusted(self.n - 1, map(min, without, [v - j for v in within]))

    def relabel(self, sigma: Sequence[int]) -> Polymatroid:
        """Apply a permutation: element i is renamed sigma[i-1]."""
        n = self.n
        if sorted(sigma) != list(range(1, n + 1)):
            raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{n}")
        # Mask m of the result holds the value at m's preimage under sigma; a sum
        # of distinct bits is their OR, so subset_sums lists the preimages in mask order.
        inverse = sorted(range(1, n + 1), key=lambda i: sigma[i - 1])
        gather = itemgetter(*subset_sums([bit(i) for i in inverse]))
        return Polymatroid._trusted(n, gather(self.table.values))

    # -- misc ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polymatroid):
            return NotImplemented
        return self.table == other.table

    def __repr__(self) -> str:
        return f"Polymatroid(n={self.n}, full_rank={self.full_rank})"
