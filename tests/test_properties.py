"""Property tests at n = 6-10 against the oracles.

Hypothesis draws the instance seed for rank tables, and the edges themselves
for the graph and hypergraph frontends.
"""

import random

from hypothesis import given, settings, strategies as st

from polymat import Graph, Hypergraph, Polynomial, polynomial_pair

from generators import random_polymatroid
from oracles import (
    brute_polynomial_counts,
    brute_spanning_trees,
    leaf_checked_bases,
    listed_tree_degree_vectors,
)


def _check_against_oracles(seed, n):
    P = random_polymatroid(random.Random(seed), n)
    expected = leaf_checked_bases(P.table)
    assert list(P.bases()) == expected
    interior, exterior = brute_polynomial_counts(expected, n)
    assert polynomial_pair(P) == (Polynomial(interior, "x"), Polynomial(exterior, "y"))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 8))
def test_bases_and_polynomials_match_oracles(seed, n):
    _check_against_oracles(seed, n)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(9, 10))
def test_bases_and_polynomials_match_oracles_at_nine_and_ten(seed, n):
    # The oracle never slices, so this checks the slice DAG walk of bases().
    _check_against_oracles(seed, n)


@st.composite
def connected_multigraphs(draw):
    """6-10 edges on 2-6 vertices: a random spanning tree, then any edges, loops included."""
    edge_count = draw(st.integers(6, 10))
    vertex_count = draw(st.integers(2, 6))
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, vertex_count + 1)]
    vertex = st.integers(1, vertex_count)
    more = st.tuples(vertex, vertex)
    extra = draw(st.lists(more, min_size=edge_count - len(tree), max_size=edge_count - len(tree)))
    return vertex_count, draw(st.permutations(tree + extra))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(graph=connected_multigraphs())
def test_graph_bases_are_the_brute_spanning_trees(graph):
    vertex_count, edges = graph
    bases = Graph(vertex_count, edges).cycle_matroid().to_polymatroid().bases()
    supports = {frozenset(i for i, x in enumerate(b) if x) for b in bases}
    assert len(supports) == len(bases)
    assert supports == brute_spanning_trees(vertex_count, edges)


@st.composite
def hypergraphs(draw):
    """6-10 hyperedges of 1-3 vertices each over 1-5 vertices; not always connected."""
    names = "abcde"[: draw(st.integers(1, 5))]
    hyperedge = st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
    return Hypergraph(names, draw(st.lists(hyperedge, min_size=6, max_size=10)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(H=hypergraphs())
def test_tree_degree_vectors_are_the_listed_ones(H):
    listed = listed_tree_degree_vectors(H.vertex_count, H.edge_count, H.incidence_graph())
    assert H.tree_degree_vectors() == listed
    assert bool(listed) == H.is_connected()
    if listed:
        assert frozenset(H.to_polymatroid().bases()) == listed
