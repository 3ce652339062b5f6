"""Hypergraphs, their incidence graphs, and the connectivity-based rank.

A hypergraph is a multiset of nonempty hyperedges over named vertices;
hyperedges keep their input order, which fixes the activity order of
the induced polymatroid.  The rank of a hyperedge subset E' is
|covered vertices| - (components of the incidence graph restricted to
E'), equivalently |V| minus the component count when uncovered
vertices are kept as singletons; the component count of every
hyperedge subset is tabulated once per hypergraph and read by the rank
and the connectivity families.  The bases of that polymatroid are
exactly the spanning-tree degree vectors of the incidence graph with
one subtracted per hyperedge, which gives an independent route for
cross-checking: a DP over vertex partitions builds those vectors
without listing the trees or reading the rank.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .core import Polymatroid, SizeLimitError, _once
from .graphs import Graph, _component_table, _components
from .structure import (
    binomial_prefix_check,
    circuit_sets,
    deficiency_thresholds,
    full_deficiency,
    hyperplane_sets,
    rank_drop_thresholds,
)
from .subsets import bits, by_size, complement, full_mask, subset_sums


# The partition walks name each vertex by one character (``chr``).
MAX_VERTICES = 0x110000


class Hypergraph:
    """Multiset of hyperedges over named vertices."""

    def __init__(self, vertices: Sequence[str], hyperedges: Iterable[Iterable[str]]):
        names = tuple(vertices)
        if not names:
            raise ValueError("a hypergraph needs at least one vertex")
        if len(names) > MAX_VERTICES:
            raise SizeLimitError(f"vertex count {len(names)} exceeds the limit {MAX_VERTICES}")
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be unique")
        self.vertices = names
        index = {name: k for k, name in enumerate(names)}
        masks = []
        for edge in hyperedges:
            mask = 0
            for name in edge:
                if name not in index:
                    raise ValueError(f"unknown vertex {name!r} in hyperedge")
                mask |= 1 << index[name]
            if mask == 0:
                raise ValueError("hyperedges must be nonempty")
            masks.append(mask)
        if not masks:
            raise ValueError("a hypergraph needs at least one hyperedge")
        self.edge_masks = tuple(masks)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edge_masks)

    def incidence_graph(self) -> Graph:
        """Bipartite incidence graph: vertices first, then one node per hyperedge."""
        nv = self.vertex_count
        edges = []
        for idx, mask in enumerate(self.edge_masks):
            for k in range(nv):
                if mask >> k & 1:
                    edges.append((k + 1, nv + idx + 1))
        return Graph(nv + self.edge_count, edges)

    def restricted_components(self, edge_subset_mask: int) -> int:
        """Components of the incidence graph on the chosen hyperedges.

        The full vertex set stays present, so uncovered vertices count
        as singleton components.  A hyperedge node is never alone: it
        joins the block of its own vertices, so merging the hyperedges'
        vertex masks counts the same components.
        """
        return _components(full_mask(self.vertex_count), self.edge_masks, edge_subset_mask)

    def is_connected(self) -> bool:
        return self.restricted_components(full_mask(self.edge_count)) == 1

    @_once
    def _component_counts(self) -> tuple[int, ...]:
        """``restricted_components`` of every hyperedge subset by mask; once per hypergraph."""
        return _component_table(self.vertex_count, self.edge_masks)

    @_once
    def to_polymatroid(self) -> Polymatroid:
        """Polymatroid of the subset rank, valid by theorem; requires a connected hypergraph."""
        if not self.is_connected():
            raise ValueError("hypergraph must be connected")
        values = [self.vertex_count - c for c in self._component_counts()]
        return Polymatroid._trusted(self.edge_count, values)

    @_once
    def _cycle_counts(self) -> tuple[int, ...]:
        """Cyclomatic number of each hyperedge subset by mask: incidences - nodes + components."""
        nv = self.vertex_count
        incidences = subset_sums([mask.bit_count() for mask in self.edge_masks])
        return tuple(
            s - nv - m.bit_count() + c
            for m, (s, c) in enumerate(zip(incidences, self._component_counts()))
        )

    def tree_degree_vectors(self) -> frozenset[tuple[int, ...]]:
        """Spanning-tree degrees of the hyperedge nodes, each reduced by one.

        A partition DP over the hyperedges in order: each hyperedge joins
        a nonempty set of the vertex blocks it meets, and its coordinate
        is the number joined minus one.  A state is a label string (each
        vertex's block named by its least vertex) mapped to the degree
        prefixes that reach it; the one-block state holds the answer.
        """
        states = {"".join(map(chr, range(self.vertex_count))): {()}}
        for mask in self.edge_masks:
            after: dict[str, set[tuple[int, ...]]] = {}
            for labels, prefixes in states.items():
                met = sorted({labels[low.bit_length() - 1] for low in bits(mask)})
                for size in range(1, len(met) + 1):
                    for first, *rest in combinations(met, size):
                        joined = labels
                        for label in rest:
                            joined = joined.replace(label, first)
                        after.setdefault(joined, set()).update(p + (size - 1,) for p in prefixes)
            states = after
        return frozenset(states.get(chr(0) * self.vertex_count, ()))

    def girth(self) -> int | None:
        return self.incidence_graph().girth()

    def __repr__(self) -> str:
        return f"Hypergraph(vertices={len(self.vertices)}, hyperedges={self.edge_count})"


# -- connectivity-flavored structure, cross-checked against the
#    polymatroid-level families ------------------------------------------


def two_component_families(H: Hypergraph) -> dict[int, frozenset[int]]:
    """Removal sets splitting the incidence graph into exactly two parts.

    A removal set qualifies when the remaining hyperedges leave two
    components and putting back any single removed hyperedge
    reconnects; grouped by removal-set size.  These are exactly the
    complements of the hyperplane-like flats of the subset rank.  The
    scan stays per mask: the rank table is |V| minus these same counts, so
    ``structure._maximal`` here would be the rank-table route itself.
    """
    # Read backwards, the table gives the count left after removing a mask.
    left = H._component_counts()[::-1]
    found = (
        removed
        for removed, count in enumerate(left)
        if count == 2 and all(left[removed ^ low] == 1 for low in bits(removed))
    )
    return by_size(found, H.edge_count)


def unique_cycle_families(H: Hypergraph) -> dict[int, frozenset[int]]:
    """Hyperedge subsets whose restriction has one cycle through all of them.

    One independent cycle overall, and removing any hyperedge leaves a
    forest, i.e. the cycle alternates through every chosen hyperedge
    (length twice the subset size); grouped by subset size.  These are
    exactly the circuit-like subsets of the subset rank.  The scan stays
    per mask: each count equals the subset's singleton-sum deficiency, so
    ``structure._maximal`` here would be the rank-table route itself.
    """
    cycles = H._cycle_counts()
    found = (
        chosen
        for chosen, count in enumerate(cycles)
        if count == 1 and all(cycles[chosen ^ low] == 0 for low in bits(chosen))
    )
    return by_size(found, H.edge_count)


def split_threshold(H: Hypergraph) -> int | None:
    """Smallest removal set leaving at least three components."""
    left = H._component_counts()[::-1]
    return min((r.bit_count() for r, count in enumerate(left) if count >= 3), default=None)


def double_cycle_threshold(H: Hypergraph) -> int | None:
    """Smallest hyperedge subset carrying at least two independent cycles."""
    return min(
        (c.bit_count() for c, count in enumerate(H._cycle_counts()) if count >= 2), default=None
    )


class GirthPrefixRow(NamedTuple):
    k: int
    interior_binomial: bool
    girth_reaches: bool

    @property
    def matches(self) -> bool:
        return self.interior_binomial == self.girth_reaches


def _lacking(families: dict[int, frozenset[int]], other: dict[int, frozenset[int]]) -> list[int]:
    """The masks in any group of ``families`` that no group of ``other`` holds, sorted."""
    return sorted(frozenset().union(*families.values()) - frozenset().union(*other.values()))


class HypergraphStructureReport(NamedTuple):
    """Connectivity-level structure against the polymatroid-level one.

    Each check's name, condition and detail are stated once, in ``checks()``."""

    split_threshold: int | None
    rank_drop_threshold: int | None
    two_component: dict[int, frozenset[int]]
    hyperplane_complements: dict[int, frozenset[int]]
    unique_cycle: dict[int, frozenset[int]]
    circuits: dict[int, frozenset[int]]
    double_cycle_threshold: int | None
    deficiency_threshold: int | None
    degree_sum_nullity: int
    full_deficiency: int
    girth: int | None
    girth_rows: tuple[GirthPrefixRow, ...]

    def checks(self) -> list[tuple[str, bool, str]]:
        return [
            (
                "split-threshold-bridge",
                self.split_threshold == self.rank_drop_threshold,
                f"{self.split_threshold} vs {self.rank_drop_threshold}",
            ),
            (
                "two-component-family-bridge",
                self.two_component == self.hyperplane_complements,
                f"two-component only {_lacking(self.two_component, self.hyperplane_complements)}, "
                "hyperplane complements only "
                f"{_lacking(self.hyperplane_complements, self.two_component)}",
            ),
            (
                "unique-cycle-family-bridge",
                self.unique_cycle == self.circuits,
                f"unique-cycle only {_lacking(self.unique_cycle, self.circuits)}, "
                f"circuits only {_lacking(self.circuits, self.unique_cycle)}",
            ),
            (
                "double-cycle-threshold-bridge",
                self.double_cycle_threshold == self.deficiency_threshold,
                f"{self.double_cycle_threshold} vs {self.deficiency_threshold}",
            ),
            (
                "degree-sum-deficiency-offset",
                self.full_deficiency == self.degree_sum_nullity + 1,
                f"{self.full_deficiency} vs {self.degree_sum_nullity}",
            ),
            (
                "girth-binomial-prefix",
                all(row.matches for row in self.girth_rows),
                f"rows {[(row.k, row.interior_binomial, row.girth_reaches) for row in self.girth_rows]}",
            ),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks())


def structure_report(H: Hypergraph) -> HypergraphStructureReport:
    """Compute both routes to each structural quantity and compare.

    The binomial prefix of the interior polynomial must reach exactly
    as far as the incidence-graph girth allows: pure binomials up
    through k if and only if the girth is at least 2k + 2.
    """
    P = H.to_polymatroid()
    m = H.edge_count
    hp = hyperplane_sets(P)
    hyperplane_complements = {
        j: frozenset(complement(h, m) for h in hp[j]) for j in sorted(hp)
    }
    girth = H.girth()
    rows = []
    for k in range(m):
        eq = binomial_prefix_check(P, k)
        rows.append(GirthPrefixRow(k, eq.interior_binomial, girth is None or girth >= 2 * k + 2))
    degree_sum = sum(mask.bit_count() for mask in H.edge_masks)
    return HypergraphStructureReport(
        split_threshold=split_threshold(H),
        rank_drop_threshold=rank_drop_thresholds(P).get(2),
        two_component=two_component_families(H),
        hyperplane_complements=hyperplane_complements,
        unique_cycle=unique_cycle_families(H),
        circuits=circuit_sets(P),
        double_cycle_threshold=double_cycle_threshold(H),
        deficiency_threshold=deficiency_thresholds(P).get(2),
        degree_sum_nullity=degree_sum - m - H.vertex_count,
        full_deficiency=full_deficiency(P),
        girth=girth,
        girth_rows=tuple(rows),
    )

