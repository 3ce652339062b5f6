"""Multigraphs with indexed edges.

Edges keep their input order; edge i of the graph is element i of the
cycle matroid, so the activity order on the matroid side is the edge
numbering.  Every edge is also kept as the mask of its endpoints.  Two
helpers count components from those vertex masks, each shared with
hypergraphs: ``_component_table`` tabulates every edge subset in one
subset walk that merges vertex labels, and gives the cycle-matroid ranks
and the hypergraph component table; ``_components`` answers one subset
by merging vertex masks, for connectivity, single ranks and the bond
scan.  Bonds (minimal edge cuts) are found once per graph by scanning
vertex bipartitions with connected sides, which characterizes them in a
connected graph, so they share no code with the rank table that
``verify`` compares them with.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import _once
from .matroids import Matroid, tutte_polynomial
from .polynomials import Polynomial
from .structure import _binomial_formula, rank_drop_thresholds
from .subsets import bits


def _components(vertex_mask: int, edge_vertex_masks: Sequence[int], chosen: int) -> int:
    """Components of the vertices in ``vertex_mask`` joined by the chosen edges.

    Each edge is the mask of its endpoints; an edge reaching outside
    ``vertex_mask`` is skipped.  Every chosen edge merges the disjoint
    vertex blocks it meets into one, and each vertex that no block
    covers is a component of its own.
    """
    blocks: list[int] = []
    covered = 0
    while chosen:
        low = chosen & -chosen
        chosen ^= low
        merged = edge_vertex_masks[low.bit_length() - 1]
        if merged & ~vertex_mask:
            continue
        covered |= merged
        apart = []
        for block in blocks:
            if block & merged:
                merged |= block
            else:
                apart.append(block)
        apart.append(merged)
        blocks = apart
    return len(blocks) + (vertex_mask & ~covered).bit_count()


def _component_table(vertex_count: int, edge_vertex_masks: Sequence[int]) -> tuple[int, ...]:
    """Components of all vertex_count vertices joined by each edge subset, indexed by edge mask.

    Walks the subsets depth first, adding only edges above the highest
    one chosen, as ``Graph.spanning_tree_masks`` does, and carries a
    label string: character w names vertex w's component.  An edge
    merges the labels of the vertices it meets, and each ``str.replace``
    of a different label joins two components.  A loop or a one-vertex
    hyperedge merges nothing.
    """
    m = len(edge_vertex_masks)
    members = []
    for e in edge_vertex_masks:
        first, *rest = [low.bit_length() - 1 for low in bits(e)]
        members.append((first, rest))
    table = [0] * (1 << m)

    def extend(chosen: int, start: int, labels: str, count: int) -> None:
        table[chosen] = count
        for k in range(start, m):
            first, rest = members[k]
            a = labels[first]
            joined, c = labels, count
            for w in rest:
                b = joined[w]
                if b != a:
                    joined = joined.replace(b, a)
                    c -= 1
            extend(chosen | 1 << k, k + 1, joined, c)

    extend(0, 0, "".join(map(chr, range(vertex_count))), vertex_count)
    del extend  # it refers to itself: free the table now, not at a cyclic collection
    return tuple(table)


class Graph:
    """Undirected multigraph on vertices 1..vertex_count with indexed edges."""

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]]):
        if vertex_count < 1:
            raise ValueError("vertex count must be a positive integer")
        self.vertex_count = vertex_count
        edge_list = []
        for u, v in edges:
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 1..{vertex_count}")
            edge_list.append((u, v))
        self.edges = tuple(edge_list)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @_once
    def _edge_masks(self) -> tuple[int, ...]:
        """Each edge as the mask of its endpoints; ``is_connected`` rules out huge |V| first."""
        return tuple(1 << (u - 1) | 1 << (v - 1) for u, v in self.edges)

    def component_count(self, edge_mask: int | None = None) -> int:
        """Components over the full vertex set using the selected edges."""
        if edge_mask is None:
            edge_mask = (1 << self.edge_count) - 1
        return _components((1 << self.vertex_count) - 1, self._edge_masks(), edge_mask)

    def is_connected(self) -> bool:
        # Fewer than |V| - 1 edges cannot connect |V| vertices: answered before any |V|-wide work.
        return self.vertex_count <= self.edge_count + 1 and self.component_count() == 1

    def subset_rank(self, edge_mask: int) -> int:
        """Cycle-matroid rank: vertices minus components."""
        return self.vertex_count - self.component_count(edge_mask)

    def spanning_tree_masks(self) -> tuple[int, ...]:
        """Edge masks of all spanning trees, ascending; empty when disconnected."""
        need = self.vertex_count - 1
        m = self.edge_count
        out: list[int] = []

        def extend(idx: int, picked: int, chosen: int, labels: str) -> None:
            # Character w - 1 of labels names vertex w's component; a join is one str.replace.
            if picked == need:
                out.append(chosen)
                return
            if idx == m or picked + (m - idx) < need:
                return
            u, v = self.edges[idx]
            a, b = labels[u - 1], labels[v - 1]
            if a != b:  # a loop never joins two labels
                extend(idx + 1, picked + 1, chosen | (1 << idx), labels.replace(b, a))
            extend(idx + 1, picked, chosen, labels)

        if not self.is_connected():
            return ()
        extend(0, 0, 0, "".join(map(chr, range(self.vertex_count))))
        del extend
        return tuple(sorted(out))

    @_once
    def cycle_matroid(self) -> Matroid:
        """Tree-listing bases and component-table ranks, valid by theorem; needs connectivity."""
        trees = self.spanning_tree_masks()  # empty when disconnected
        if not trees:
            raise ValueError("cycle matroid requires a connected graph")
        if self.vertex_count == 1:
            raise ValueError("cycle matroid needs at least one edge in its bases")
        n = self.vertex_count
        ranks = [n - c for c in _component_table(n, self._edge_masks())]
        return Matroid._trusted(self.edge_count, ranks, trees)

    @_once
    def bonds(self) -> tuple[int, ...]:
        """Minimal edge cuts as edge masks, sorted by (size, mask); once per graph.

        Scans vertex bipartitions whose two sides both induce connected
        subgraphs; in a connected graph these are exactly the bonds.
        """
        if not self.is_connected():
            raise ValueError("bonds are defined here for connected graphs only")
        every = (1 << self.vertex_count) - 1
        out = []
        for half in range(1 << (self.vertex_count - 1)):
            side = (half << 1) | 1  # vertex 1 stays on the first side
            other = every ^ side
            if other and self._induced_connected(side) and self._induced_connected(other):
                out.append(sum(1 << idx for idx, e in enumerate(self._edge_masks())
                               if e & side and e & other))
        return tuple(sorted(set(out), key=lambda m: (m.bit_count(), m)))

    def _induced_connected(self, vertex_mask: int) -> bool:
        return _components(vertex_mask, self._edge_masks(), (1 << self.edge_count) - 1) == 1

    def bond_size_counts(self) -> dict[int, int]:
        """Number of bonds of each size j (only sizes that occur)."""
        counts: dict[int, int] = {}
        for m in self.bonds():
            counts[m.bit_count()] = counts.get(m.bit_count(), 0) + 1
        return dict(sorted(counts.items()))

    def edge_connectivity(self) -> int | None:
        """Size of the smallest bond; None for a single-vertex graph."""
        cuts = self.bonds()
        if not cuts:
            return None
        return cuts[0].bit_count()

    def girth(self) -> int | None:
        """Length of the shortest cycle, or None in a forest."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count + 1)]
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        best: int | None = None
        # Each edge closes a cycle one longer than the shortest path between its
        # ends that avoids it; a search stops once it cannot beat the best so far.
        for skip, (s, t) in enumerate(self.edges):
            dist = {s: 0}
            queue = [s]
            while queue and t not in dist and (best is None or dist[queue[0]] + 2 < best):
                nxt = []
                for u in queue:
                    for v, idx in adj[u]:
                        if idx != skip and v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                queue = nxt
            if t in dist:
                best = dist[t] + 1
        return best


class CutFormulaRow(NamedTuple):
    i: int
    formula: int
    coefficient: int

    @property
    def matches(self) -> bool:
        return self.formula == self.coefficient


class CutFormulaReport(NamedTuple):
    """High-order T(1, y) coefficients against the bond-count expression.

    Each check's name, condition and detail are stated once, in ``checks()``."""

    k: int
    nullity: int
    bond_counts: dict[int, int]
    rows: tuple[CutFormulaRow, ...]
    threshold_bound_ok: bool

    def checks(self) -> list[tuple[str, bool, str]]:
        return [
            (
                "cut-count-coefficients",
                all(row.matches for row in self.rows),
                f"rows {[(row.i, row.formula, row.coefficient) for row in self.rows]}",
            ),
            ("cut-threshold-bound", self.threshold_bound_ok, ""),
        ]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks())


def cut_formula_check(G: Graph, k: int) -> CutFormulaReport:
    """Check the bond-count expression for the top T(1, y) coefficients.

    Requires edge connectivity at least k + 1.  For each admissible i
    the coefficient of y^(nullity - i) in T(1, y) must equal
    binom(|V| + i - 2, i) - sum_j binom(|V| + i - 2 - j, i - j) * (bonds of size j),
    and 3 (k + 1) / 2 may not exceed the second rank-drop threshold of
    the cycle matroid's polymatroid (vacuous with two vertices: no such drop).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not G.is_connected():
        raise ValueError("the cut identity applies to connected graphs")
    ec = G.edge_connectivity()
    if ec is not None and ec < k + 1:
        raise ValueError(f"edge connectivity {ec} is below the required {k + 1}")
    nullity = G.edge_count - G.vertex_count + 1
    counts = G.bond_size_counts()
    t1y: Polynomial = tutte_polynomial(G.cycle_matroid()).at_x1()
    i_top = min((3 * (k + 1) - 1) // 2, nullity)
    rows = tuple(
        CutFormulaRow(
            i, _binomial_formula(G.vertex_count - 1, counts, i), t1y.coefficient(nullity - i)
        )
        for i in range(i_top + 1)
    )
    r2 = rank_drop_thresholds(G.cycle_matroid().to_polymatroid()).get(2)
    threshold_ok = r2 is None or 3 * (k + 1) <= 2 * r2
    return CutFormulaReport(k, nullity, counts, rows, threshold_ok)
