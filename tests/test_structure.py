import random
import tracemalloc

import pytest

from polymat import (
    FormulaRangeError,
    Polymatroid,
    RankTable,
    SizeLimitError,
    binom,
    complement,
    binomial_prefix_check,
    circuit_family,
    circuit_sets,
    deficiency,
    deficiency_thresholds,
    elements_of,
    exterior_coefficient_formula,
    exterior_formula_range,
    first_exterior_coefficients,
    flats,
    full_deficiency,
    hyperplane_sets,
    interior_coefficient_formula,
    interior_formula_range,
    is_unimodal,
    iter_masks,
    mask_of,
    polynomial_pair,
    rank_drop_thresholds,
)

from generators import coverage_table, doubled_k5_table, ladder_tables
from oracles import (
    brute_prefix_conditions,
    brute_unimodal,
    closure_hyperplanes,
    minimal_circuits,
    per_mask_thresholds,
)


def _family(P, groups):
    return {
        j: {tuple(elements_of(m)) for m in s} for j, s in groups.items() if s
    }


def test_binom_convention():
    assert binom(5, 2) == 10
    assert binom(3, 0) == 1
    assert binom(2, 3) == 0
    # b = 0 counts the empty multiset even from an empty symbol pool,
    # which keeps constant coefficients at 1 for rank-zero instances.
    assert binom(-1, 0) == 1
    assert binom(-1, 1) == 0
    assert binom(4, -1) == 0


def test_closure_and_flats_against_definition(small_corpus):
    # A flat is a set whose every proper superset has strictly larger rank.
    for P in small_corpus:
        expected = {
            m
            for m in iter_masks(P.n)
            if all(
                P.rank(m | 1 << t) > P.rank(m)
                for t in range(P.n)
                if not m >> t & 1
            )
        }
        assert set(flats(P)) == expected


def test_reference_flats(example5):
    assert [tuple(elements_of(m)) for m in flats(example5)] == [
        (),
        (1,),
        (3,),
        (1, 2, 3),
        (4, 5),
        (1, 2, 3, 4, 5),
    ]


def test_reference_hyperplane_sets(example5):
    assert _family(example5, hyperplane_sets(example5)) == {
        2: {(1, 2, 3)},
        3: {(4, 5)},
    }


def test_reference_circuit_sets(example5):
    assert _family(example5, circuit_sets(example5)) == {
        2: {(1, 2), (2, 3), (2, 4), (2, 5)},
        3: {(1, 3, 4), (1, 3, 5)},
    }


def test_families_and_thresholds_match_brute_definitions_at_n6_to_10(wide_instances):
    # The wide corpus and three n = 9-10 tables, each also scaled by 300 so
    # that its values pass 255 and its families come from tuple-packed lanes.
    tables = [P.table for P in wide_instances]
    tables += [coverage_table(9, 8, 3, 3), coverage_table(10, 10, 3, 10), doubled_k5_table()]
    for table in tables:
        for scale in (1, 300):
            n = table.n
            ranks = [scale * v for v in table.values]
            P = Polymatroid(RankTable(n, ranks))
            sizes = [bin(m).count("1") for m in range(1 << n)]
            gaps = [
                sum(ranks[1 << t] for t in range(n) if m >> t & 1) - ranks[m]
                for m in range(1 << n)
            ]
            assert frozenset().union(*hyperplane_sets(P).values()) == closure_hyperplanes(n, ranks)
            # Deficiency zero plays independence; a circuit also needs deficiency one.
            tight = [size - gap for size, gap in zip(sizes, gaps)]
            assert circuit_family(P) == {m for m in minimal_circuits(n, tight) if gaps[m] == 1}
            assert flats(P) == tuple(
                m
                for m in range(1 << n)
                if all(m >> t & 1 or ranks[m | 1 << t] > ranks[m] for t in range(n))
            )
            drops = [ranks[-1] - v for v in ranks]
            assert rank_drop_thresholds(P) == per_mask_thresholds(drops, [n - s for s in sizes])
            assert deficiency_thresholds(P) == per_mask_thresholds(gaps, sizes)


def test_reference_thresholds(example5):
    assert rank_drop_thresholds(example5) == {0: 0, 1: 2, 2: 4, 3: 5}
    assert deficiency_thresholds(example5) == {0: 0, 1: 2, 2: 2, 3: 3, 4: 4, 5: 5}
    assert full_deficiency(example5) == 5


def test_deficiency_values(example5):
    assert deficiency(example5, mask_of((1, 2), 5)) == 1
    assert deficiency(example5, mask_of((4, 5), 5)) == 2
    assert deficiency(example5, 0) == 0


def test_circuits_have_tight_proper_subsets(small_corpus):
    from polymat import circuit_family

    for P in small_corpus:
        for m in circuit_family(P):
            assert deficiency(P, m) == 1
            for t in elements_of(m):
                assert deficiency(P, m & ~(1 << (t - 1))) == 0


def test_thresholds_scan_matches_definition(small_corpus, wide_instances):
    # r_k: smallest complement of a subset whose rank drops by at least k.
    # r'_k: smallest subset whose deficiency reaches at least k.
    for P in small_corpus + wide_instances:
        r = rank_drop_thresholds(P)
        assert set(r) == set(range(P.full_rank + 1))
        for k, value in r.items():
            sizes = [
                P.n - m.bit_count()
                for m in iter_masks(P.n)
                if P.full_rank - P.rank(m) >= k
            ]
            assert value == min(sizes)
        rp = deficiency_thresholds(P)
        g = full_deficiency(P)
        assert set(rp) == set(range(g + 1))
        for k, value in rp.items():
            sizes = [
                m.bit_count() for m in iter_masks(P.n) if deficiency(P, m) >= k
            ]
            assert value == min(sizes)


def test_threshold_map_past_the_limit_is_refused_before_it_is_built():
    huge = 99999999999999999999
    P = Polymatroid(RankTable(1, [0, huge]))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"^full rank {huge} exceeds the limit 1048576 "):
            rank_drop_thresholds(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert deficiency_thresholds(P) == {0: 0}


def test_thresholds_are_monotone(full_corpus):
    for P in full_corpus:
        r = list(rank_drop_thresholds(P).values())
        rp = list(deficiency_thresholds(P).values())
        assert r == sorted(r) and r[0] == 0
        assert rp == sorted(rp) and rp[0] == 0


def test_threshold_swap_under_duality(full_corpus):
    # The dual's rank drop of J equals this deficiency of J outright.
    # Read the other way the dual's deficiency of J is this rank drop
    # minus the singleton drops inside J, so that half of the swap
    # needs the coordinate minima translated to zero first.
    for P in full_corpus:
        dual = P.dual()
        assert deficiency_thresholds(P) == rank_drop_thresholds(dual)
        assert rank_drop_thresholds(P.grounded()) == deficiency_thresholds(dual)


def test_threshold_swap_needs_grounding():
    # One essential element: the rank-drop map has a k = 1 entry, but
    # the dual is the lone origin point with no positive deficiency.
    P = Polymatroid(RankTable(1, [0, 1]))
    assert rank_drop_thresholds(P) == {0: 0, 1: 1}
    assert deficiency_thresholds(P.dual()) == {0: 0}
    assert rank_drop_thresholds(P.grounded()) == {0: 0}


def test_circuits_are_dual_hyperplane_complements(full_corpus):
    for P in full_corpus:
        dual_h = hyperplane_sets(P.dual())
        expected = {
            j: frozenset(complement(h, P.n) for h in s) for j, s in dual_h.items()
        }
        assert circuit_sets(P) == expected


def test_first_coefficients_closed_form(full_corpus):
    for P in full_corpus:
        _, exterior = polynomial_pair(P)
        c0, c1 = first_exterior_coefficients(P)
        assert exterior.coefficient(0) == c0 == 1
        assert exterior.coefficient(1) == c1


def test_formula_matches_enumeration_in_range(full_corpus):
    for P in full_corpus:
        interior, exterior = polynomial_pair(P)
        for i in range(exterior_formula_range(P)):
            assert exterior_coefficient_formula(P, i) == exterior.coefficient(i)
        for i in range(interior_formula_range(P)):
            assert interior_coefficient_formula(P, i) == interior.coefficient(i)


def test_formula_range_gate(example5):
    assert exterior_formula_range(example5) == 4
    assert interior_formula_range(example5) == 2
    with pytest.raises(FormulaRangeError):
        exterior_coefficient_formula(example5, 4)
    with pytest.raises(FormulaRangeError):
        interior_coefficient_formula(example5, 2)
    with pytest.raises(FormulaRangeError):
        exterior_coefficient_formula(example5, -1, unchecked=True)
    assert exterior_coefficient_formula(example5, 4, unchecked=True) == 6


def test_unimodal_against_brute_force():
    rng = random.Random(7)
    assert is_unimodal(()) and brute_unimodal(())
    for _ in range(500):
        seq = [rng.randint(0, 3) for _ in range(rng.randint(1, 7))]
        assert is_unimodal(seq) == brute_unimodal(seq)


def test_guaranteed_prefixes_are_unimodal(full_corpus):
    for P in full_corpus:
        interior, exterior = polynomial_pair(P)
        assert is_unimodal(exterior.coeffs[: exterior_formula_range(P)])
        assert is_unimodal(interior.coeffs[: interior_formula_range(P)])


def test_prefix_equivalences_hold(full_corpus):
    for P in full_corpus:
        for k in range(P.n):
            assert binomial_prefix_check(P, k).passed


def test_prefix_conditions_match_size_k_scan(full_corpus, wide_instances):
    ladder = [Polymatroid(table) for table in ladder_tables().values()]
    pairs = 0
    for P in [*full_corpus, *wide_instances, *ladder]:
        for k in range(P.n):
            eq = binomial_prefix_check(P, k)
            assert (eq.exterior_condition, eq.interior_condition) == brute_prefix_conditions(
                P.table, k
            )
            pairs += 1
    assert pairs == 958


def test_prefix_check_rejects_bad_k(example5):
    with pytest.raises(ValueError):
        binomial_prefix_check(example5, 5)
    with pytest.raises(ValueError):
        binomial_prefix_check(example5, -1)


@pytest.mark.parametrize(
    "family", [hyperplane_sets, circuit_sets, rank_drop_thresholds, deficiency_thresholds]
)
def test_families_computed_once_and_read_only(example5, family):
    assert family(example5) is family(example5)
    with pytest.raises(TypeError):
        family(example5)[0] = family(example5)[0]
    # The dual is a new object, so a duality check never meets the cached value.
    assert family(example5.dual()) is not family(example5)
