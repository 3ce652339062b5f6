"""Hypergraphs: incidence rank, hypertree bases, and structure bridges."""

from __future__ import annotations

import itertools
import random

import pytest

from polymat.activity import polynomial_pair
from polymat.core import SizeLimitError
from polymat.hypergraphs import (
    MAX_VERTICES,
    Hypergraph,
    double_cycle_threshold,
    split_threshold,
    structure_report,
    two_component_families,
    unique_cycle_families,
)
from polymat.structure import (
    circuit_sets,
    deficiency_thresholds,
    full_deficiency,
    hyperplane_sets,
    rank_drop_thresholds,
)
from polymat.subsets import complement, full_mask

from oracles import (
    brute_restricted_components,
    brute_spanning_trees,
    listed_tree_degree_vectors,
)


def parallel_pair() -> Hypergraph:
    return Hypergraph(("a", "b"), [("a", "b"), ("a", "b")])


def triangle_mix() -> Hypergraph:
    return Hypergraph(
        ("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b", "c")]
    )


def random_hypergraph(rng: random.Random) -> Hypergraph:
    nv = rng.randint(1, 4)
    names = tuple("wxyz"[:nv])
    edges = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, nv)
        edges.append(rng.sample(names, size))
    return Hypergraph(names, edges)


def connected_samples(rng: random.Random, count: int) -> list[Hypergraph]:
    out = []
    while len(out) < count:
        H = random_hypergraph(rng)
        if H.is_connected():
            out.append(H)
    return out


# -- construction ----------------------------------------------------------


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Hypergraph((), [("a",)])
    with pytest.raises(ValueError):
        Hypergraph(("a", "a"), [("a",)])
    with pytest.raises(ValueError):
        Hypergraph(("a",), [("b",)])
    with pytest.raises(ValueError):
        Hypergraph(("a",), [()])
    with pytest.raises(ValueError):
        Hypergraph(("a",), [])


def test_vertex_count_stops_at_one_character_per_vertex():
    # The partition walks label each vertex by chr(k), so k < 0x110000.
    assert MAX_VERTICES == 1_114_112
    names = tuple(map(str, range(MAX_VERTICES + 1)))
    assert Hypergraph(names[:-1], [("0", "1")]).vertex_count == MAX_VERTICES
    with pytest.raises(SizeLimitError, match="vertex count 1114113 exceeds the limit 1114112"):
        Hypergraph(names, [("0", "1")])


def test_incidence_graph_shape():
    H = triangle_mix()
    bip = H.incidence_graph()
    assert bip.vertex_count == 3 + 4
    assert bip.edge_count == sum(m.bit_count() for m in H.edge_masks)
    # Every incidence edge joins a vertex node to a hyperedge node.
    assert all(u <= 3 < v for u, v in bip.edges)


# -- restricted components and rank ------------------------------------------


def test_restricted_components_match_oracle():
    rng = random.Random(17)
    for _ in range(60):
        H = random_hypergraph(rng)
        for chosen in range(1 << H.edge_count):
            assert H.restricted_components(chosen) == brute_restricted_components(
                H.vertex_count, H.edge_masks, chosen
            )


def test_restricted_components_match_oracle_on_six_to_ten_hyperedges():
    # Past the random corpus above: up to six vertices and ten hyperedges.
    rng = random.Random(19)
    for edge_count in range(6, 11):
        names = "abcdef"[: rng.randint(3, 6)]
        H = Hypergraph(names, [rng.sample(names, rng.randint(1, 3)) for _ in range(edge_count)])
        for chosen in range(1 << edge_count):
            assert H.restricted_components(chosen) == brute_restricted_components(
                H.vertex_count, H.edge_masks, chosen
            )


def test_component_table_matches_oracle_on_six_to_twelve_hyperedges():
    # The table is one subset walk merging label strings; the oracle runs
    # a DFS on the incidence graph of each subset.
    rng = random.Random(23)
    for edge_count in range(6, 13):
        names = "abcdefg"[: rng.randint(3, 7)]
        edges = [rng.sample(names, rng.randint(1, 3)) for _ in range(edge_count - 2)]
        edges += [[rng.choice(names)], rng.choice(edges)]  # a one-vertex hyperedge and a repeat
        rng.shuffle(edges)
        H = Hypergraph(names, edges)
        assert H._component_counts() == tuple(
            brute_restricted_components(H.vertex_count, H.edge_masks, chosen)
            for chosen in range(1 << edge_count)
        ), edges


def test_uncovered_vertices_count_as_components():
    H = Hypergraph(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert H.restricted_components(0b01) == 2  # {a,b} joined, c alone
    assert H.restricted_components(0) == 3


def test_to_polymatroid_requires_connected():
    H = Hypergraph(("a", "b"), [("a",), ("b",)])
    assert not H.is_connected()
    with pytest.raises(ValueError):
        H.to_polymatroid()


def cyclomatic_by_definition(H, chosen):
    # Incidence edges minus nodes plus components, from the brute component count.
    incidences = sum(H.edge_masks[i].bit_count() for i in range(H.edge_count) if chosen >> i & 1)
    nodes = H.vertex_count + bin(chosen).count("1")
    return incidences - nodes + brute_restricted_components(H.vertex_count, H.edge_masks, chosen)


def test_cyclomatic_number_matches_definition():
    rng = random.Random(23)
    for _ in range(40):
        H = random_hypergraph(rng)
        table = H._cycle_counts()
        for chosen in range(1 << H.edge_count):
            assert table[chosen] == cyclomatic_by_definition(H, chosen)


def test_cycle_table_matches_definition_on_six_to_ten_hyperedges():
    rng = random.Random(31)
    for edge_count in range(6, 11):
        names = "abcdef"[: rng.randint(3, 6)]
        H = Hypergraph(names, [rng.sample(names, rng.randint(1, 3)) for _ in range(edge_count)])
        table = H._cycle_counts()
        for chosen in range(1 << edge_count):
            assert table[chosen] == cyclomatic_by_definition(H, chosen)


# -- hypertrees ---------------------------------------------------------------


def test_tree_degree_vectors_match_polymatroid_bases():
    rng = random.Random(29)
    for H in connected_samples(rng, 40):
        assert H.tree_degree_vectors() == frozenset(H.to_polymatroid().bases())
        assert H.to_polymatroid() is H.to_polymatroid()


def test_tree_degree_vectors_against_brute_spanning_trees():
    H = triangle_mix()
    bip = H.incidence_graph()
    vectors = set()
    for combo in brute_spanning_trees(bip.vertex_count, list(bip.edges)):
        degrees = [0] * H.edge_count
        for idx in combo:
            _, v = bip.edges[idx]
            degrees[v - H.vertex_count - 1] += 1
        vectors.add(tuple(d - 1 for d in degrees))
    assert H.tree_degree_vectors() == frozenset(vectors)


def test_tree_degree_dp_matches_listed_spanning_trees_on_six_to_ten_hyperedges():
    rng = random.Random(59)
    cases = [
        Hypergraph(("a",), [("a",)] * 6),  # one vertex: every hyperedge is a pendant node
        Hypergraph(("a", "b"), [("a", "b")] * 4 + [("a",), ("b",), ("a", "b")]),
        Hypergraph(("a", "b", "c"), [("a", "b"), ("b", "c")] * 4),
    ]
    for edge_count in (6, 6, 7, 7, 8, 8, 9, 9, 10, 10):
        names = "abcdef"[: rng.randint(3, 6)]
        cases.append(
            Hypergraph(names, [rng.sample(names, rng.randint(1, 3)) for _ in range(edge_count)])
        )
    for H in cases:
        listed = listed_tree_degree_vectors(H.vertex_count, H.edge_count, H.incidence_graph())
        assert H.tree_degree_vectors() == listed
        if H.is_connected():
            assert listed == frozenset(H.to_polymatroid().bases())
        else:
            assert not listed


def test_parallel_pair_polynomials():
    interior, exterior = polynomial_pair(parallel_pair().to_polymatroid())
    assert interior.coeffs == (1, 1)
    assert exterior.coeffs == (1, 1)


def test_parallel_pair_girth():
    assert parallel_pair().girth() == 4


# -- connectivity-level structure vs polymatroid structure --------------------


def test_split_threshold_is_rank_drop_threshold():
    rng = random.Random(31)
    for H in connected_samples(rng, 30):
        P = H.to_polymatroid()
        assert split_threshold(H) == rank_drop_thresholds(P).get(2)


def test_two_component_families_are_hyperplane_complements():
    rng = random.Random(37)
    for H in connected_samples(rng, 30):
        P = H.to_polymatroid()
        m = H.edge_count
        hp = hyperplane_sets(P)
        expected = {j: frozenset(complement(h, m) for h in hp[j]) for j in sorted(hp)}
        assert two_component_families(H) == expected


def test_unique_cycle_families_are_circuits():
    rng = random.Random(41)
    for H in connected_samples(rng, 30):
        assert unique_cycle_families(H) == circuit_sets(H.to_polymatroid())


def test_double_cycle_threshold_is_deficiency_threshold():
    rng = random.Random(43)
    for H in connected_samples(rng, 30):
        P = H.to_polymatroid()
        assert double_cycle_threshold(H) == deficiency_thresholds(P).get(2)


def test_degree_sum_offsets_full_deficiency():
    rng = random.Random(47)
    for H in connected_samples(rng, 30):
        degree_sum = sum(m.bit_count() for m in H.edge_masks)
        nullity = degree_sum - H.edge_count - H.vertex_count
        assert full_deficiency(H.to_polymatroid()) == nullity + 1


def test_structure_report_passes_on_samples():
    for H in (parallel_pair(), triangle_mix()):
        report = structure_report(H)
        assert report.passed
        assert report.girth == H.girth()
        assert all(row.matches for row in report.girth_rows)


def test_structure_report_passes_on_random_samples():
    rng = random.Random(53)
    for H in connected_samples(rng, 25):
        assert structure_report(H).passed


def test_girth_rows_encode_the_prefix_equivalence():
    H = triangle_mix()
    report = structure_report(H)
    girth = H.girth()
    for row in report.girth_rows:
        assert row.girth_reaches == (girth is None or girth >= 2 * row.k + 2)
        assert row.matches


# -- exhaustive sweep over tiny hypergraphs -----------------------------------


def tiny_connected_hypergraphs(max_vertices: int, max_edges: int):
    names = tuple("abcd"[:max_vertices])
    seen = set()
    for nv in range(1, max_vertices + 1):
        pool = [m for m in range(1, 1 << nv)]
        for count in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pool, count):
                key = (nv, combo)
                if key in seen:
                    continue
                seen.add(key)
                H = Hypergraph(names[:nv], [
                    [names[k] for k in range(nv) if m >> k & 1] for m in combo
                ])
                if H.is_connected():
                    yield H


def test_hypertree_bridge_on_all_tiny_hypergraphs():
    count = 0
    for H in tiny_connected_hypergraphs(3, 3):
        assert H.tree_degree_vectors() == frozenset(H.to_polymatroid().bases())
        count += 1
    # 68 connected edge multisets on up to three vertices and three edges.
    assert count == 68
