import random

import pytest

from polymat import (
    Polymatroid,
    Polynomial,
    activity,
    check_duality,
    check_permutation_invariance,
    exterior_by_slices,
    exterior_polynomial,
    interior_by_slices,
    interior_polynomial,
    negate,
    point_set_polynomials,
    polynomial_pair,
    translate,
)

from generators import ladder_tables
from oracles import brute_bases, brute_polynomial_counts

LADDER = ladder_tables()


def test_activity_requires_a_basis(example5):
    with pytest.raises(ValueError):
        activity(example5, (3, 0, 0, 0, 0))


def test_first_index_always_active(example5):
    for basis in example5.bases():
        report = activity(example5, basis)
        assert 1 in report.internal
        assert 1 in report.external


def test_greedy_basis_fully_internally_active(full_corpus):
    # Transferring mass to an earlier coordinate would exceed a prefix rank.
    for P in full_corpus:
        report = activity(P, P.greedy_basis())
        assert report.internal == frozenset(range(1, P.n + 1))


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


def test_single_wrappers(example5):
    assert interior_polynomial(example5).coeffs == (1, 5, 8, 3)
    assert exterior_polynomial(example5).coeffs == (1, 3, 5, 6, 2)


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
    from polymat import RankTable

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


def test_point_set_route_matches(example5):
    interior, exterior = polynomial_pair(example5)
    pi, pe = point_set_polynomials(example5.bases(), 5)
    assert (pi, pe) == (interior, exterior)


def test_point_set_translation_invariance(small_corpus):
    # Activity only probes differences of points, so shifting every
    # point (even below zero) changes nothing.
    rng = random.Random(11)
    for P in small_corpus:
        interior, exterior = polynomial_pair(P)
        shift = tuple(rng.randint(-3, 3) for _ in range(P.n))
        moved = translate(P.bases(), shift)
        assert point_set_polynomials(moved, P.n) == (interior, exterior)


def test_point_set_negation_swaps_roles(small_corpus):
    # Reflection reverses coordinate transfers, swapping the activity kinds.
    for P in small_corpus:
        interior, exterior = polynomial_pair(P)
        ni, ne = point_set_polynomials(negate(P.bases()), P.n)
        assert ni == exterior
        assert ne == interior


def test_point_set_route_matches_brute_force_off_basis_sets():
    # Random sets with gaps and negative coordinates, and every other basis
    # of the n = 8-9 ladder tables: probes step out of the points' range in
    # every coordinate, which the integer codes must not mistake for points.
    rng = random.Random(20261018)
    cases = []
    for _ in range(200):
        n = rng.randint(1, 5)
        size = rng.randint(1, 40)
        cases.append(({tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(size)}, n))
    for name, table in LADDER.items():
        if name.startswith("coverage"):
            cases.append((Polymatroid(table).bases()[::2], table.n))
    for points, n in cases:
        interior, exterior = point_set_polynomials(points, n)
        brute_interior, brute_exterior = brute_polynomial_counts(points, n)
        assert interior == Polynomial(brute_interior, "x")
        assert exterior == Polynomial(brute_exterior, "y")


def test_point_set_rejects_bad_input():
    with pytest.raises(ValueError):
        point_set_polynomials([], 2)
    with pytest.raises(ValueError):
        point_set_polynomials([(1, 2, 3)], 2)
