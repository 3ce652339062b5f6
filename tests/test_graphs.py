"""Multigraphs: ranks, spanning trees, bonds, girth, and the cut identity."""

from __future__ import annotations

import gc
import itertools
import random

import networkx
import pytest
import sympy

from polymat.activity import exterior_by_slices, polynomial_pair
from polymat.core import Polymatroid, RankTable
from polymat.graphs import Graph, cut_formula_check
from polymat.hypergraphs import Hypergraph
from polymat import core, graphs, matroids
from polymat.matroids import Matroid, TuttePolynomial, tutte_polynomial
from polymat.polynomials import Polynomial
from polymat.structure import rank_drop_thresholds
from polymat.subsets import elements_of
from polymat.verify import verify_graph

from generators import seeded_multigraph, seeded_multigraphs
from oracles import (
    brute_bonds,
    brute_girth,
    brute_spanning_trees,
    component_count,
    dc_tutte,
    full_rank_masks,
)


def k4() -> Graph:
    return Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def c4() -> Graph:
    return Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])


def k33() -> Graph:
    return Graph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


def w5() -> Graph:
    rim = [(i, i % 5 + 1) for i in range(1, 6)]
    return Graph(6, rim + [(i, 6) for i in range(1, 6)])


def k5() -> Graph:
    return Graph(5, list(itertools.combinations(range(1, 6), 2)))


def random_multigraph(rng: random.Random) -> Graph:
    nv = rng.randint(2, 5)
    count = rng.randint(1, 7)
    edges = []
    for _ in range(count):
        u = rng.randint(1, nv)
        v = rng.randint(1, nv)
        edges.append((u, v))
    return Graph(nv, edges)


def mask_to_indices(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


# -- construction and basic counts ----------------------------------------


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)])


def test_loops_and_parallel_edges_are_allowed():
    G = Graph(2, [(1, 2), (1, 2), (1, 1)])
    assert G.edge_count == 3
    assert G.is_connected()


def test_component_count_matches_oracle():
    rng = random.Random(3)
    for _ in range(60):
        G = random_multigraph(rng)
        assert G.component_count() == component_count(G.vertex_count, G.edges)
        for mask in range(1 << G.edge_count):
            kept = [G.edges[i] for i in range(G.edge_count) if mask >> i & 1]
            assert G.component_count(mask) == component_count(G.vertex_count, kept)


def test_subset_rank_is_vertices_minus_components():
    G = k4()
    for mask in range(1 << G.edge_count):
        kept = [G.edges[i] for i in range(G.edge_count) if mask >> i & 1]
        assert G.subset_rank(mask) == 4 - component_count(4, kept)


# -- spanning trees --------------------------------------------------------


def test_spanning_trees_match_oracle():
    rng = random.Random(5)
    for _ in range(40):
        G = random_multigraph(rng)
        got = {mask_to_indices(m) for m in G.spanning_tree_masks()}
        assert got == brute_spanning_trees(G.vertex_count, list(G.edges))


def test_spanning_tree_masks_are_sorted_and_k4_has_sixteen():
    masks = k4().spanning_tree_masks()
    assert list(masks) == sorted(masks)
    assert len(masks) == 16


def test_single_vertex_has_one_empty_tree():
    assert Graph(1, []).spanning_tree_masks() == (0,)


# -- cycle matroid ---------------------------------------------------------


def cycle_matroid_graphs() -> list[Graph]:
    """K4, K3,3, W5, K5 and four connected multigraphs with a loop and a parallel pair."""
    rng = random.Random(41)
    multigraphs = []
    while len(multigraphs) < 4:
        G = random_multigraph(rng)
        pairs = [tuple(sorted(e)) for e in G.edges]
        has_loop = any(u == v for u, v in pairs)
        has_parallel = len(set(pairs)) < len(pairs)
        if G.edge_count >= 6 and G.is_connected() and has_loop and has_parallel:
            multigraphs.append(G)
    return [k4(), k33(), w5(), k5()] + multigraphs


def test_cycle_matroid_bases_are_tree_masks():
    for G in [c4()] + cycle_matroid_graphs():
        assert G.cycle_matroid().base_masks == G.spanning_tree_masks()


def test_cycle_matroid_base_list_is_the_tree_listing():
    # The full-rank, full-size masks of the rank table are the bases too.
    for G in seeded_multigraphs():
        M = G.cycle_matroid()
        ranks = [M.subset_rank(m) for m in range(1 << G.edge_count)]
        assert M.base_masks == G.spanning_tree_masks() == full_rank_masks(ranks), G.edges


def test_cycle_matroid_matches_base_list_matroid():
    # The graph tabulates component-count ranks; the base-list route runs
    # the exchange check on the spanning trees and takes each rank as a
    # max over them, so the two rank tables share no code.  Both take
    # their bases from the tree listing, which the test above checks
    # against the rank table.
    for G in cycle_matroid_graphs():
        M = G.cycle_matroid()
        trees = Matroid(G.edge_count, [elements_of(m) for m in G.spanning_tree_masks()])
        masks = range(1 << G.edge_count)
        assert [M.subset_rank(m) for m in masks] == [trees.subset_rank(m) for m in masks]
        assert (M.rank, M.base_masks) == (trees.rank, trees.base_masks)


def test_frontend_tables_pass_the_axiom_check():
    # Frontend polymatroids skip the axiom checks because their rank
    # functions are valid by theorem; a validated rebuild of each table
    # raises a ValidationError if that ever stops holding.
    frontends = list(cycle_matroid_graphs())
    frontends += [Matroid(G.edge_count, [elements_of(m) for m in G.spanning_tree_masks()])
                  for G in frontends]
    frontends += [Matroid(4, itertools.combinations(range(1, 5), 2)),
                  Matroid(6, itertools.combinations(range(1, 7), 3))]
    rng = random.Random(43)
    hypergraphs = []
    while len(hypergraphs) < 10:
        names = "abcde"[: rng.randint(2, 5)]
        edges = [rng.sample(names, rng.randint(1, len(names))) for _ in range(rng.randint(6, 8))]
        H = Hypergraph(names, edges)
        if H.is_connected():
            hypergraphs.append(H)
    for obj in frontends + hypergraphs:
        P = obj.cycle_matroid().to_polymatroid() if isinstance(obj, Graph) else obj.to_polymatroid()
        Polymatroid(RankTable(P.n, P.table.values, max_n=P.n))


def test_cycle_matroid_requires_connected_graph_with_edges():
    for G in (Graph(3, [(1, 2)]), Graph(1, [])):
        for _ in range(2):  # a failure is not cached: every call raises
            with pytest.raises(ValueError):
                G.cycle_matroid()


def test_one_vertex_with_loops_is_a_rank_zero_cycle_matroid():
    for loops in (1, 2):
        G = Graph(1, [(1, 1)] * loops)
        P = G.cycle_matroid().to_polymatroid()
        assert (P.n, P.full_rank, P.bases()) == (loops, 0, ((0,) * loops,))
        assert G.bonds() == () and G.edge_connectivity() is None
        checks = verify_graph(G)  # no cut identity without a bond
        assert len(checks) == 22 and all(c.passed for c in checks)


def test_cycle_matroid_is_built_once():
    G = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    assert G.cycle_matroid() is G.cycle_matroid()


@pytest.mark.parametrize("edge_count", range(12, 17))
def test_cycle_matroid_ranks_match_subset_rank_at_12_to_16_edges(edge_count):
    # The rank table comes from one subset walk over label strings;
    # subset_rank merges the vertex masks of one subset's edges.
    rng = random.Random(edge_count)
    G = Graph(*seeded_multigraph(rng, edge_count, vertices=(3, 8)))
    masks = range(1 << edge_count)
    M = G.cycle_matroid()
    assert [M.subset_rank(m) for m in masks] == [G.subset_rank(m) for m in masks], G.edges


def test_cycle_matroid_counts_components_once_on_k6(monkeypatch):
    # Only the connectivity check goes through _components; the ranks do not.
    calls = []
    count = graphs._components

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(graphs, "_components", counted)
    Graph(6, list(itertools.combinations(range(1, 7), 2))).cycle_matroid()
    assert len(calls) <= 1


# -- bonds and edge connectivity --------------------------------------------


def test_bonds_match_oracle():
    rng = random.Random(9)
    checked = 0
    for _ in range(60):
        G = random_multigraph(rng)
        if not G.is_connected():
            continue
        got = {mask_to_indices(m) for m in G.bonds()}
        assert got == brute_bonds(G.vertex_count, list(G.edges))
        assert len(got) == len(G.bonds())  # each bond once
        checked += 1
    assert checked >= 20


def test_k4_bond_profile():
    G = k4()
    assert G.bond_size_counts() == {3: 4, 4: 3}
    assert G.edge_connectivity() == 3


def test_c4_bonds_are_all_edge_pairs():
    G = c4()
    assert G.bond_size_counts() == {2: 6}
    assert {mask_to_indices(m) for m in G.bonds()} == {
        frozenset(pair) for pair in itertools.combinations(range(4), 2)
    }


def test_loops_never_appear_in_bonds():
    G = Graph(3, [(1, 2), (2, 3), (3, 1), (2, 2)])
    assert {mask_to_indices(m) for m in G.bonds()} == {
        frozenset(pair) for pair in itertools.combinations(range(3), 2)
    }


def test_single_vertex_has_no_bonds():
    G = Graph(1, [(1, 1)])
    assert G.bonds() == ()
    assert G.edge_connectivity() is None


def test_bonds_are_computed_once():
    G = k4()
    assert G.bonds() is G.bonds()


def test_verify_graph_scans_bonds_and_expands_tutte_once(monkeypatch):
    # One bipartition scan tests at most both sides of the 2^(|V|-1) - 1
    # proper bipartitions that keep vertex 1 on the first side.
    scans = []
    induced = Graph._induced_connected
    monkeypatch.setattr(
        Graph, "_induced_connected", lambda G, side: scans.append(side) or induced(G, side)
    )
    grids = []
    monkeypatch.setattr(
        matroids, "TuttePolynomial", lambda grid: grids.append(grid) or TuttePolynomial(grid)
    )
    assert all(check.passed for check in verify_graph(k5()))
    assert 0 < len(scans) <= 2 * (2**4 - 1)
    assert len(grids) == 1


def test_verify_graph_builds_each_singleton_sum_table_once(monkeypatch):
    # One table for P, one for its dual, one for each of the two relabelings.
    calls = []
    subset_sums = core.subset_sums
    monkeypatch.setattr(core, "subset_sums", lambda w: calls.append(w) or subset_sums(w))
    k6 = Graph(6, list(itertools.combinations(range(1, 7), 2)))
    assert all(check.passed for check in verify_graph(k6))
    assert len(calls) == 4


def test_path_on_13_vertices_has_12_bonds():
    G = Graph(13, [(i, i + 1) for i in range(1, 13)])
    assert G.bonds() == tuple(1 << i for i in range(12))


@pytest.mark.parametrize("edge_count", range(8, 13))
def test_connectivity_matches_oracles_past_five_vertices(edge_count):
    # The random corpus above stops at five vertices; these multigraphs have
    # 6-9, each with a loop and a parallel pair.
    rng = random.Random(100 + edge_count)
    vertex_count, edges = seeded_multigraph(rng, edge_count, vertices=(6, 9))
    G = Graph(vertex_count, edges)
    for mask in range(1 << edge_count):
        kept = [edges[i] for i in range(edge_count) if mask >> i & 1]
        assert G.component_count(mask) == component_count(vertex_count, kept)
    trees = {mask_to_indices(m) for m in G.spanning_tree_masks()}
    assert trees == brute_spanning_trees(vertex_count, edges)
    assert {mask_to_indices(m) for m in G.bonds()} == brute_bonds(vertex_count, edges)


# -- girth -------------------------------------------------------------------


def test_girth_conventions():
    assert Graph(2, [(1, 1), (1, 2)]).girth() == 1
    assert Graph(3, [(1, 2), (1, 2), (2, 3)]).girth() == 2
    assert Graph(4, [(1, 2), (2, 3), (2, 4)]).girth() is None
    assert c4().girth() == 4
    assert k4().girth() == 3


def test_girth_matches_oracle():
    rng = random.Random(13)
    graphs = [random_multigraph(rng) for _ in range(80)]
    # Simple graphs and hypergraph incidence graphs with 6-12 edges, where
    # no loop or parallel pair settles the girth at 1 or 2.
    for _ in range(30):
        nv = rng.randint(5, 10)
        pairs = list(itertools.combinations(range(1, nv + 1), 2))
        graphs.append(Graph(nv, rng.sample(pairs, rng.randint(6, min(12, len(pairs))))))
    while len(graphs) < 140:
        names = "abcde"[: rng.randint(3, 5)]
        hyperedges = [rng.sample(names, rng.randint(2, 3)) for _ in range(rng.randint(2, 5))]
        G = Hypergraph(tuple(names), hyperedges).incidence_graph()
        if 6 <= G.edge_count <= 12:
            graphs.append(G)
    for G in graphs:
        assert G.girth() == brute_girth(G.vertex_count, list(G.edges))


# -- cut identity -------------------------------------------------------------


def test_k4_cut_rows_match_tutte_tail():
    report = cut_formula_check(k4(), 2)
    assert report.nullity == 3
    assert report.bond_counts == {3: 4, 4: 3}
    assert [(row.i, row.formula, row.coefficient) for row in report.rows] == [
        (0, 1, 1),
        (1, 3, 3),
        (2, 6, 6),
        (3, 6, 6),
    ]
    assert report.threshold_bound_ok
    assert report.passed


def test_c4_cut_rows():
    report = cut_formula_check(c4(), 1)
    assert report.nullity == 1
    assert [(row.i, row.formula, row.coefficient) for row in report.rows] == [
        (0, 1, 1),
        (1, 3, 3),
    ]
    assert report.passed


def test_cut_rows_use_tutte_tail_coefficients():
    G = k4()
    grid = dc_tutte(list(G.edges))
    t1y = [0] * 4
    for (_, j), c in grid.items():
        t1y[j] += c
    report = cut_formula_check(G, 2)
    for row in report.rows:
        assert row.coefficient == t1y[report.nullity - row.i]


def test_cut_threshold_bound_uses_rank_drop():
    G = k4()
    r2 = rank_drop_thresholds(G.cycle_matroid().to_polymatroid())[2]
    assert r2 == 5
    assert 3 * (2 + 1) <= 2 * r2


def test_cut_check_rejects_bad_input():
    with pytest.raises(ValueError):
        cut_formula_check(k4(), -1)
    with pytest.raises(ValueError):
        cut_formula_check(Graph(3, [(1, 2)]), 0)
    with pytest.raises(ValueError):
        cut_formula_check(c4(), 2)  # edge connectivity 2 < 3


def test_cut_identity_on_random_three_connected_samples():
    rng = random.Random(21)
    checked = 0
    for _ in range(200):
        G = random_multigraph(rng)
        if not G.is_connected():
            continue
        ec = G.edge_connectivity()
        if ec is None or ec < 2:
            continue
        report = cut_formula_check(G, ec - 1)
        assert all(row.matches for row in report.rows)
        checked += 1
    assert checked >= 10


def test_loops_shift_tutte_and_nullity_together():
    plain = c4()
    loopy = Graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (3, 3)])
    t_plain = tutte_polynomial(plain.cycle_matroid()).at_x1()
    t_loopy = tutte_polynomial(loopy.cycle_matroid()).at_x1()
    assert t_loopy.coeffs == (0,) + t_plain.coeffs
    report = cut_formula_check(loopy, 1)
    assert report.nullity == 2
    assert report.passed


@pytest.mark.parametrize("edge_count", range(6, 13))
def test_graph_polynomials_match_networkx_tutte(edge_count):
    # networkx shares no code with polymat and handles loops and parallel edges.
    x, y = sympy.symbols("x y")
    rng = random.Random(edge_count)
    for _ in range(3):
        vertex_count, edges = seeded_multigraph(rng, edge_count)
        multigraph = networkx.MultiGraph()
        multigraph.add_nodes_from(range(1, vertex_count + 1))
        multigraph.add_edges_from(edges)
        terms = sympy.Poly(networkx.tutte_polynomial(multigraph), x, y).terms()
        reference = {(i, j): int(c) for (i, j), c in terms}
        M = Graph(vertex_count, edges).cycle_matroid()
        grid = tutte_polynomial(M).grid
        ours = {(i, j): c for i, row in enumerate(grid) for j, c in enumerate(row) if c}
        assert ours == reference, edges
        # I(x) = x^r T(1/x, 1) and X(y) = y^(m-r) T(1, 1/y), r = vertex_count - 1.
        at_y1 = [0] * vertex_count
        at_x1 = [0] * (edge_count - vertex_count + 2)
        for (i, j), c in reference.items():
            at_y1[i] += c
            at_x1[j] += c
        interior, exterior = polynomial_pair(M.to_polymatroid())
        assert interior == Polynomial(tuple(reversed(at_y1)), "x"), edges
        assert exterior == Polynomial(tuple(reversed(at_x1)), "y"), edges


# Interior I(x), exterior X(y) and cut-formula rows (i, coefficient of y^(nullity - i)
# in T(1, y)) for i up to (3 * edge connectivity - 1) // 2, frozen from networkx 3.6.1:
# networkx.tutte_polynomial expanded by sympy.Poly, I(x) = x^r T(1/x, 1) and
# X(y) = y^(m - r) T(1, 1/y).  networkx takes 0.3-2.8 s per graph, so the values are literals.
PINNED_GRAPHS = {
    "K6": (6, list(itertools.combinations(range(1, 7), 2))),
    "Petersen": (10, [(i, i % 5 + 1) for i in range(1, 6)] + [(i, i + 5) for i in range(1, 6)]
                 + [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]),
    "Q3": (8, [(u + 1, u + 1 + b) for u in range(8) for b in (1, 2, 4) if not u & b]),
    "K4,4": (8, [(u, v) for u in range(1, 5) for v in range(5, 9)]),
}
NETWORKX_PINS = {
    "K6": ((1, 10, 55, 200, 470, 560), (1, 5, 15, 35, 70, 120, 180, 240, 270, 240, 120),
           ((0, 1), (1, 5), (2, 15), (3, 35), (4, 70), (5, 120), (6, 180), (7, 240))),
    "Petersen": ((1, 6, 21, 56, 126, 240, 380, 480, 450, 240), (1, 9, 45, 155, 390, 696, 704),
                 ((0, 1), (1, 9), (2, 45), (3, 155), (4, 390))),
    "Q3": ((1, 5, 15, 35, 64, 96, 104, 64), (1, 7, 28, 76, 139, 133),
           ((0, 1), (1, 7), (2, 28), (3, 76), (4, 139))),
    "K4,4": ((1, 9, 45, 165, 459, 963, 1383, 1071), (1, 7, 28, 84, 202, 406, 684, 964, 1045, 675),
             ((0, 1), (1, 7), (2, 28), (3, 84), (4, 202), (5, 406))),
}


@pytest.mark.parametrize("name", NETWORKX_PINS)
def test_direct_and_slice_routes_match_frozen_networkx_values(name):
    interior, exterior, rows = NETWORKX_PINS[name]
    interior, exterior = Polynomial(interior, "x"), Polynomial(exterior, "y")
    G = Graph(*PINNED_GRAPHS[name])
    P = G.cycle_matroid().to_polymatroid()
    assert polynomial_pair(P) == (interior, exterior)
    for t in range(1, P.n + 1):
        assert exterior_by_slices(P, t) == exterior
        assert exterior_by_slices(P.dual(), t) == interior
    report = cut_formula_check(G, G.edge_connectivity() - 1)
    assert tuple((row.i, row.coefficient) for row in report.rows) == rows
    assert tuple((row.i, row.formula) for row in report.rows) == rows
    assert report.threshold_bound_ok


GRAPH_WALKS = {
    "spanning-tree-masks": lambda G: G.spanning_tree_masks(),
    "component-table": lambda G: graphs._component_table(G.vertex_count, G._edge_masks()),
}


@pytest.mark.parametrize("walk", GRAPH_WALKS.values(), ids=GRAPH_WALKS.keys())
def test_graph_walks_leave_no_cyclic_garbage(walk, gc_off):
    G = k5()
    gc.collect()
    walk(G)
    assert gc.collect() == 0
