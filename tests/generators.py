"""Random polymatroid instances for the test corpus.

Instances are truncated weighted-coverage functions: each ground-set
element covers a small subset of a weighted universe, the rank of a
subset is the total weight covered, and half the instances are capped
at a random level.  Both steps preserve the rank axioms, singleton
ranks stay at most 3 by construction, and the family is rich enough to
exercise every structural feature the library extracts (including
instances whose closed-form coefficients break beyond the guaranteed
range).
"""

from __future__ import annotations

import random

from polymat import Graph, Polymatroid, RankTable
from polymat.documents import HypergraphDocument
from polymat.hypergraphs import Hypergraph


def random_polymatroid(rng: random.Random, n: int | None = None) -> Polymatroid:
    if n is None:
        n = rng.randint(2, 5)
    universe = range(rng.randint(1, 6))
    weights = [rng.randint(1, 3) for _ in universe]
    covers = []
    for _ in range(n):
        budget = 3
        chosen = set()
        for x in rng.sample(list(universe), len(universe)):
            if weights[x] <= budget and rng.random() < 0.45:
                chosen.add(x)
                budget -= weights[x]
        covers.append(frozenset(chosen))

    def coverage(subset: tuple[int, ...]) -> int:
        covered = set()
        for e in subset:
            covered |= covers[e - 1]
        return sum(weights[x] for x in covered)

    full = coverage(tuple(range(1, n + 1)))
    if full > 0 and rng.random() < 0.5:
        cap = rng.randint(1, full)
        rank = lambda subset: min(coverage(subset), cap)
    else:
        rank = coverage
    return Polymatroid(RankTable.from_function(n, rank, max_n=n))


def corpus(seed: int = 20260814, count: int = 200) -> list[Polymatroid]:
    rng = random.Random(seed)
    return [random_polymatroid(rng) for _ in range(count)]


def wide_corpus(seed: int = 20261017) -> list[Polymatroid]:
    """Ten instances each with n = 6, 7 and 8, past the sizes ``corpus`` draws."""
    rng = random.Random(seed)
    return [random_polymatroid(rng, n) for n in (6, 7, 8) for _ in range(10)]


def coverage_table(n: int, universe: int, k: int, seed: int) -> RankTable:
    """Size of the union of n random k-subsets of range(universe), per subset."""
    return weighted_coverage_table(n, [1] * universe, k, seed)


def weighted_coverage_table(n: int, weights: list[int], k: int, seed: int) -> RankTable:
    """Total weight of the union of n random k-subsets of the items of ``weights``, per subset."""
    rng = random.Random(seed)
    covers = [rng.sample(range(len(weights)), k) for _ in range(n)]
    return RankTable.from_function(
        n, lambda subset: sum(weights[x] for x in set().union(*(covers[e - 1] for e in subset)))
    )


def ladder_tables() -> dict[str, RankTable]:
    """The four benchmark coverage tables (n = 8-9) and 2xK5 (n = 10), by test id."""
    params = {"coverage-8a": (8, 8, 3, 1), "coverage-9a": (9, 8, 3, 3),
              "coverage-8b": (8, 8, 3, 5), "coverage-9b": (9, 8, 3, 4)}
    tables = {name: coverage_table(*p) for name, p in params.items()}
    return {**tables, "doubled-k5": doubled_k5_table()}


def doubled_k5_table() -> RankTable:
    """Twice the cycle-matroid rank of K5: n = 10 and 3,425 bases."""
    K5 = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
    return RankTable(10, [2 * K5.subset_rank(m) for m in range(1 << 10)])


def connected_hypergraph_document(seed: int, edge_count: int) -> HypergraphDocument:
    """Six vertices and ``edge_count`` hyperedges of 2-3 vertices, redrawn until connected."""
    rng = random.Random(seed)
    names = tuple("abcdef")
    while True:
        edges = tuple(tuple(sorted(rng.sample(names, rng.randint(2, 3)))) for _ in range(edge_count))
        if Hypergraph(names, edges).is_connected():
            return HypergraphDocument(names, edges)


def seeded_multigraph(rng: random.Random, edge_count: int, vertices: tuple[int, int] = (3, 6)):
    """A connected multigraph with at least one loop and one parallel pair.

    The vertex count lies in the ``vertices`` range and below ``edge_count``.
    """
    vertex_count = rng.randint(vertices[0], min(vertices[1], edge_count - 1))
    edges = [(rng.randint(1, v - 1), v) for v in range(2, vertex_count + 1)]
    loop_vertex = rng.randint(1, vertex_count)
    edges += [rng.choice(edges), (loop_vertex, loop_vertex)]
    while len(edges) < edge_count:
        edges.append((rng.randint(1, vertex_count), rng.randint(1, vertex_count)))
    rng.shuffle(edges)
    return vertex_count, edges


def seeded_multigraphs(seed: int = 20261018) -> list[Graph]:
    """Two connected multigraphs for each edge count 6-12, each with a loop and a parallel pair."""
    rng = random.Random(seed)
    return [Graph(*seeded_multigraph(rng, m)) for m in range(6, 13) for _ in range(2)]
