import gc
import itertools
import random

import pytest

from polymat import (
    Graph,
    Polymatroid,
    Polynomial,
    RankTable,
    check_duality,
    check_permutation_invariance,
    exterior_by_slices,
    interior_by_slices,
    polynomial_pair,
)

from polymat.core import _packed

from generators import coverage_table, ladder_tables, seeded_multigraphs
from oracles import brute_bases, brute_polynomial_counts

LADDER = ladder_tables()

# Coverage tables with n = 6-12 (2-subsets past n = 9 keep the oracle quick).
COVERAGE = {n: (n, 8, 2, 1) if n > 9 else (n, n, 3, n) for n in range(6, 13)}

GRAPHS = {
    "K5": (5, list(itertools.combinations(range(1, 6), 2))),
    "W5": (6, [(i, i % 5 + 1) for i in range(1, 6)] + [(i, 6) for i in range(1, 6)]),
    "K3,3": (6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]),
    "K6": (6, list(itertools.combinations(range(1, 7), 2))),
}


def cycle_polymatroid(name: str, dual: bool) -> Polymatroid:
    P = Graph(*GRAPHS[name]).cycle_matroid().to_polymatroid()
    return P.dual() if dual else P


def assert_dag_sweep_matches(P: Polymatroid) -> None:
    # The pair is taken first, from the DAG walk; the listed bases then feed
    # the oracle's point-set route, explicit vector lookups on the points.
    pair = polynomial_pair(P)
    bases = P.bases()
    brute_interior, brute_exterior = brute_polynomial_counts(bases, P.n)
    assert pair == (Polynomial(brute_interior, "x"), Polynomial(brute_exterior, "y"))


def test_polynomials_match_brute_force(small_corpus, wide_instances):
    # Bases by a box scan and activity by explicit vector lookup share no
    # code with the library's enumeration and activity sweep.
    for P in small_corpus + wide_instances:
        interior, exterior = polynomial_pair(P)
        brute_interior, brute_exterior = brute_polynomial_counts(brute_bases(P.table), P.n)
        assert interior == Polynomial(brute_interior, "x")
        assert exterior == Polynomial(brute_exterior, "y")


def test_both_polynomials_count_bases_at_one(full_corpus):
    for P in full_corpus:
        interior, exterior = polynomial_pair(P)
        assert interior(1) == P.basis_count()
        assert exterior(1) == P.basis_count()


def test_degree_at_most_n_minus_one(full_corpus):
    for P in full_corpus:
        interior, exterior = polynomial_pair(P)
        assert interior.degree <= P.n - 1
        assert exterior.degree <= P.n - 1


def test_reference_table_polynomials(example5):
    interior, exterior = polynomial_pair(example5)
    assert interior.coeffs == (1, 5, 8, 3)
    assert exterior.coeffs == (1, 3, 5, 6, 2)


def test_slice_recursion_every_element(full_corpus, wide_instances):
    for P in full_corpus + wide_instances:
        interior, exterior = polynomial_pair(P)
        for t in range(1, P.n + 1):
            assert exterior_by_slices(P, t) == exterior
            assert interior_by_slices(P, t) == interior


@pytest.mark.parametrize("table", LADDER.values(), ids=LADDER.keys())
def test_memoized_slice_recursion_matches_direct_route(table):
    # Slices of these tables repeat many rank tables, so the per-call memo
    # of the recursion is hit at every depth.
    P = Polymatroid(table)
    interior, exterior = polynomial_pair(P)
    for t in range(1, P.n + 1):
        assert exterior_by_slices(P, t) == exterior
        assert interior_by_slices(P, t) == interior


def test_polynomial_pair_is_computed_once(example5):
    pair = polynomial_pair(example5)
    assert polynomial_pair(example5) is pair
    # Duals and relabelings are new objects: their pairs are computed
    # afresh, so the duality and relabeling checks compare two sweeps.
    dual_pair = polynomial_pair(example5.dual())
    relabeled_pair = polynomial_pair(example5.relabel((5, 4, 3, 2, 1)))
    assert dual_pair is not pair and relabeled_pair is not pair
    assert dual_pair == pair[::-1] and relabeled_pair == pair


def test_slice_recursion_base_case():
    P = Polymatroid(RankTable(1, [0, 3]))
    assert exterior_by_slices(P).coeffs == (1,)
    assert interior_by_slices(P).coeffs == (1,)


def test_recursion_rejects_bad_element(example5):
    with pytest.raises(ValueError):
        exterior_by_slices(example5, 6)


def test_duality_swaps_polynomials(full_corpus):
    for P in full_corpus:
        report = check_duality(P)
        assert report.passed
        assert report.interior == report.dual_exterior
        assert report.exterior == report.dual_interior


def test_permutation_invariance(full_corpus):
    rng = random.Random(4)
    for P in full_corpus[:80]:
        sigma = list(range(1, P.n + 1))
        rng.shuffle(sigma)
        assert check_permutation_invariance(P, sigma).passed


def test_dag_sweep_matches_point_set_route_on_wide_corpus(wide_instances):
    for P in wide_instances:
        assert_dag_sweep_matches(Polymatroid(P.table))


@pytest.mark.parametrize("table", LADDER.values(), ids=LADDER.keys())
def test_dag_sweep_matches_point_set_route_on_ladder(table):
    assert_dag_sweep_matches(Polymatroid(table))


@pytest.mark.parametrize("params", COVERAGE.values(), ids=[f"n{n}" for n in COVERAGE])
def test_dag_sweep_matches_point_set_route_on_coverage_tables(params):
    assert_dag_sweep_matches(Polymatroid(coverage_table(*params)))


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("name", GRAPHS)
def test_dag_sweep_matches_point_set_route_on_cycle_matroids(name, dual):
    # 0/1 bases: every coordinate sits at one of its bounds, so the bound
    # masks skip one of the two probe kinds at every index.
    assert_dag_sweep_matches(cycle_polymatroid(name, dual))


def test_polynomial_pair_leaves_bases_unlisted():
    P = Polymatroid(LADDER["coverage-9a"])
    bases_key = f"{Polymatroid.bases.__module__}.{Polymatroid.bases.__qualname__}"
    pair = polynomial_pair(P)
    assert bases_key not in vars(P)
    assert pair[0](1) == P.basis_count() == len(P.bases())
    assert bases_key in vars(P)


WALKS = {
    "basis-dag": lambda P: P._basis_dag(),
    "bases": lambda P: P.bases(),
    "polynomial-pair": polynomial_pair,
    "exterior-by-slices": lambda P: exterior_by_slices(P, 3),
}


@pytest.mark.parametrize("walk", WALKS.values(), ids=WALKS.keys())
def test_walks_leave_no_cyclic_garbage(walk, gc_off):
    # Each walk recurses through a closure that names itself; if that cycle
    # outlived the call, its memo would wait for a cyclic collection.
    P = Polymatroid(RankTable(7, [min(m.bit_count(), 3) for m in range(1 << 7)]))  # U(3,7)
    gc.collect()
    walk(P)
    assert gc.collect() == 0


def lifted(P: Polymatroid, c: int) -> Polymatroid:
    """f + c|I|: the bases of f shifted by c in every coordinate."""
    values = [v + c * m.bit_count() for m, v in enumerate(P.table.values)]
    return Polymatroid(RankTable(P.n, values))


def assert_tuple_path_matches_bytes_path(P: Polymatroid, c: int = 256) -> None:
    # Past one byte the walks fall back to tuple tables; shifting every
    # basis by c changes neither polynomial.
    Q = lifted(P, c)
    assert type(_packed(P.table.values)) is bytes
    assert type(_packed(Q.table.values)) is tuple
    pair = polynomial_pair(P)
    assert polynomial_pair(Q) == pair
    for t in range(1, P.n + 1):
        assert exterior_by_slices(Q, t) == exterior_by_slices(P, t) == pair[1]
    assert Q.bases() == tuple(tuple(a + c for a in b) for b in P.bases())


@pytest.mark.parametrize("n", range(6, 11))
def test_tuple_tables_match_bytes_tables_on_coverage_tables(n):
    assert_tuple_path_matches_bytes_path(Polymatroid(coverage_table(*COVERAGE[n])))


SMALL_MULTIGRAPHS = [G for G in seeded_multigraphs() if G.edge_count <= 10]


@pytest.mark.parametrize("G", SMALL_MULTIGRAPHS, ids=lambda G: f"{G.edge_count}-edges")
def test_tuple_tables_match_bytes_tables_on_cycle_matroids(G):
    assert_tuple_path_matches_bytes_path(G.cycle_matroid().to_polymatroid(), c=300)
