import itertools
import random

import pytest

from polymat import (
    Graph,
    MonotonicityError,
    NormalizationError,
    Polymatroid,
    RankTable,
    SizeLimitError,
    SubmodularityError,
    exterior_by_slices,
    interior_by_slices,
    polynomial_pair,
)
import polymat.core
from polymat.core import (
    ValidationError,
    _first_violation,
    _packed,
    _pinned,
    _shifted,
    _slices,
    _split,
)
from polymat.subsets import complement
from polymat.verify import _deterministic_permutations

from generators import coverage_table, ladder_tables
from oracles import brute_bases, leaf_checked_bases, minor_ranks

LADDER = ladder_tables()


def test_rank_table_needs_full_coverage():
    with pytest.raises(ValueError):
        RankTable(2, [0, 1, 1])
    with pytest.raises(TypeError):
        RankTable(1, [0, 1.5])


def test_rank_table_size_guard():
    with pytest.raises(SizeLimitError):
        RankTable.from_function(17, lambda s: len(s))
    table = RankTable.from_function(17, lambda s: len(s), max_n=17)
    assert table.rank_of(range(1, 18)) == 17


def test_size_guard_runs_before_any_work():
    calls = []

    def counted(s):
        calls.append(s)
        return len(s)

    with pytest.raises(SizeLimitError):
        RankTable.from_function(17, counted)
    assert calls == []


def test_normalization_error():
    with pytest.raises(NormalizationError):
        Polymatroid(RankTable(1, [1, 1]))


def test_monotonicity_error_carries_witness():
    with pytest.raises(MonotonicityError) as info:
        Polymatroid(RankTable(2, [0, 2, 1, 1]))
    assert info.value.rank_smaller > info.value.rank_larger


def test_submodularity_error_carries_witness():
    # f({1}) = f({2}) = 1 but f({1,2}) = 3 violates the local inequality.
    with pytest.raises(SubmodularityError) as info:
        Polymatroid(RankTable(2, [0, 1, 1, 3]))
    assert (info.value.i, info.value.j) == (1, 2)


def _scan_verdict(values, n):
    """None when the mask-order scan accepts, else the text of its first witness."""
    try:
        _first_violation(values, n)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.fixture
def whole_list_verdict(monkeypatch):
    """Run the axiom check and tell whether its whole-list pass accepted the table.

    The mask-order scan runs only on rejection, so a call to it is the
    whole-list pass's "no"; the check's own outcome is returned alongside.
    """
    calls = []

    def scan(values, n):
        calls.append(values)
        return _first_violation(values, n)

    monkeypatch.setattr(polymat.core, "_first_violation", scan)

    def verdict(values, n):
        calls.clear()
        try:
            Polymatroid(RankTable(n, values))
        except ValidationError as exc:
            return not calls, str(exc)
        return not calls, None

    return verdict


def test_whole_list_axiom_pass_agrees_with_mask_scan(whole_list_verdict):
    # Coverage tables with zero to two ranks moved by one: about a third
    # break monotonicity or submodularity somewhere.
    rng = random.Random(20261019)
    verdicts = set()
    for _ in range(6000):
        n = rng.randint(1, 7)
        values = list(coverage_table(n, rng.randint(3, 8), rng.randint(1, 3), rng.randrange(10**6)).values)
        for _ in range(rng.choice((0, 0, 1, 2))):
            values[rng.randrange(1, 1 << n)] += rng.choice((-1, 1))
        witness = _scan_verdict(values, n)
        assert whole_list_verdict(values, n) == (witness is None, witness), values
        verdicts.add(witness is None)
    assert verdicts == {True, False}


AXIOM_TABLES = {**LADDER, "coverage-11": coverage_table(11, 9, 3, 2), "coverage-12": coverage_table(12, 10, 3, 1)}


@pytest.mark.parametrize("table", AXIOM_TABLES.values(), ids=AXIOM_TABLES.keys())
def test_whole_list_axiom_pass_on_tables_past_n7(whole_list_verdict, table):
    n, values = table.n, table.values
    assert whole_list_verdict(values, n) == (True, None) and _scan_verdict(values, n) is None
    rng = random.Random(n)
    for _ in range(3):
        moved = list(values)
        moved[rng.randrange(1, 1 << n)] += rng.choice((-1, 1))
        witness = _scan_verdict(moved, n)
        assert whole_list_verdict(moved, n) == (witness is None, witness)


def test_reference_table_attributes(example5):
    assert example5.n == 5
    assert example5.full_rank == 3
    assert example5.coord_min == (0, 0, 0, 0, 0)
    assert example5.coord_max == (1, 2, 1, 2, 2)
    assert list(example5.coordinate_range(2)) == [0, 1, 2]


def test_bases_match_brute_force(full_corpus, wide_instances):
    for P in full_corpus + wide_instances:
        assert set(P.bases()) == brute_bases(P.table)


@pytest.mark.parametrize("table", LADDER.values(), ids=LADDER.keys())
def test_bases_match_leaf_checked_search(table):
    bases = Polymatroid(table).bases()
    assert list(bases) == leaf_checked_bases(table)
    assert all(a < b for a, b in zip(bases, bases[1:]))


@pytest.mark.parametrize(
    "params",
    [(6, 6, 3, 2), (7, 7, 2, 3), (8, 8, 2, 4)] + [(n, 4, 2, n) for n in range(6, 11)],
)
def test_bases_of_coverage_tables_match_brute_force(params):
    # Coverage ranks have many pins per element, so the deletion, middle
    # and contraction slices all occur in the walk; the last five reach n = 10.
    table = coverage_table(*params)
    assert set(Polymatroid(table).bases()) == brute_bases(table)


def test_bases_at_n12_match_slice_recursion():
    # Past the oracles' reach: the count is frozen, and the slice recursion,
    # which never calls bases(), gives the same polynomials.
    P = Polymatroid(coverage_table(12, 10, 3, 1))
    bases = P.bases()
    assert len(bases) == 19650
    assert all(a < b for a, b in zip(bases, bases[1:]))
    assert polynomial_pair(P) == (interior_by_slices(P), exterior_by_slices(P))


def test_bases_are_computed_once():
    P = Polymatroid(coverage_table(6, 6, 2, 1))
    assert P.bases() is P.bases()
    assert P.dual().bases() is not P.bases()


def test_basis_count_is_the_dag_path_count(full_corpus):
    bases_key = f"{Polymatroid.bases.__module__}.{Polymatroid.bases.__qualname__}"
    for P in full_corpus[:40] + [Polymatroid(table) for table in LADDER.values()]:
        Q = Polymatroid(P.table)
        count = Q.basis_count()
        assert bases_key not in vars(Q)
        assert count == len(Q.bases())


def test_bases_are_lexicographically_sorted(example5):
    bases = example5.bases()
    assert list(bases) == sorted(bases)
    assert example5.basis_count() == 17


def test_dual_bases_are_reflections(small_corpus):
    # The dual's lattice points are exactly (singleton ranks) - (points).
    for P in small_corpus:
        Q = P.dual()
        expected = {tuple(c - a for c, a in zip(P.coord_max, b)) for b in P.bases()}
        assert set(Q.bases()) == expected


def test_double_dual_translates_minima_to_zero(small_corpus):
    # Reflecting twice composes to the translation that drops every
    # coordinate minimum to zero, so the polynomials are untouched and
    # the basis sets agree after shifting.
    for P in small_corpus:
        twice = P.dual().dual()
        low = P.coord_min
        expected = {
            tuple(a - c for a, c in zip(b, low)) for b in P.bases()
        }
        assert set(twice.bases()) == expected
        if not any(low):
            assert twice == P


def test_grounded_translates_minima_to_zero(small_corpus):
    for P in small_corpus:
        low = P.coord_min
        G = P.grounded()
        expected = {
            tuple(a - c for a, c in zip(b, low)) for b in P.bases()
        }
        assert set(G.bases()) == expected
        assert not any(G.coord_min)
        if not any(low):
            assert G is P


def test_dual_table_matches_its_definition(wide_instances):
    # f*(I) = f(E - I) - f(E) + sum of singleton ranks over I, mask by mask,
    # against the table the dual reads backwards.
    cases = [P.table for P in wide_instances] + [coverage_table(n, 10, 3, n) for n in (9, 10)]
    for table in cases:
        P = Polymatroid(table)
        n, f = P.n, table.values
        expected = tuple(
            f[complement(m, n)] - f[-1] + sum(f[1 << t] for t in range(n) if m >> t & 1)
            for m in range(1 << n)
        )
        assert P.dual().table.values == expected


def test_walk_tables_are_bytes_up_to_255_and_tuples_past_it():
    assert _packed([0, 1, 255]) == b"\x00\x01\xff"
    assert _packed((0, 1, 256)) == (0, 1, 256)
    for j in (0, 1, 17, 255):
        assert _shifted(bytes(range(j, 256)), j) == bytes(range(256 - j))
    assert _shifted((256, 300, 1000), 256) == (0, 44, 744)


def _check_slices_against_slice_at(P: Polymatroid) -> None:
    """At every node of P's basis DAG, every element's pins match ``slice_at``:
    all of them by ``_slices``, deletion and contraction included, and by ``_pinned``."""
    seen, stack = set(), [P]
    while stack:
        Q = stack.pop()
        if Q.n == 1 or Q.table.values in seen:
            continue
        seen.add(Q.table.values)
        for t in range(1, Q.n + 1):
            without, within = map(_packed, _split(Q.table.values, t))
            pins = Q.coordinate_range(t)
            expected = [_packed(Q.slice_at(t, j).table.values) for j in pins]
            for got in (_slices(without, within), _pinned(without, within, pins)):
                assert [type(g) for g in got] == [type(without)] * len(pins)
                assert got == expected
        stack += [Q.slice_at(1, j) for j in Q.coordinate_range(1)]


def test_pinned_matches_the_per_entry_min_on_coverage_tables():
    # Every node split of coverage tables n = 6-10, packed as bytes and, lifted
    # by 300|I| past a byte, as tuples; every pin, extremes included.
    for n in range(6, 11):
        P = Polymatroid(coverage_table(n, 12, 4, n))
        assert any(hi > lo + 1 for lo, hi in zip(P.coord_min, P.coord_max))
        lifted = [v + 300 * bin(m).count("1") for m, v in enumerate(P.table.values)]
        for Q in (P, Polymatroid(RankTable(n, lifted))):
            _check_slices_against_slice_at(Q)


def test_pinned_uses_every_ramp_slice():
    # f(I) = min(255, 255|I|) pins each element to every j in 0..255.
    P = Polymatroid(RankTable.from_function(4, lambda s: min(255, 255 * len(s))))
    assert P.coordinate_range(1) == range(256)
    _check_slices_against_slice_at(P)
    for j in range(256):
        assert polymat.core._RAMP[255 - j : 511 - j] == bytes(max(0, j - g) for g in range(256))


def test_dual_of_reference(example5):
    Q = example5.dual()
    assert Q.full_rank == 5
    assert Q.rank_of((4, 5)) == 3


def test_delete_and_contract_ranks(example5):
    # The lowest pin's slice is the deletion, the highest pin's the contraction.
    lowest, highest = example5.coord_min[3], example5.coord_max[3]
    assert lowest < highest
    D = example5.slice_at(4, lowest)
    assert D.n == 4
    # Remaining elements 1,2,3,5 are renumbered 1,2,3,4.
    assert D.rank_of((1, 2, 3)) == example5.rank_of((1, 2, 3))
    assert D.rank_of((4,)) == example5.rank_of((5,))
    C = example5.slice_at(4, highest)
    assert C.rank_of((4,)) == example5.rank_of((4, 5)) - example5.rank_of((4,))


def test_slice_endpoints_are_delete_and_contract(small_corpus, wide_instances):
    # Both slice walks rely on this theorem to read the lowest pin as the
    # deletion; the oracle computes both minors from their definitions.
    ladder = [Polymatroid(table) for table in LADDER.values()]
    for P in [Q for Q in small_corpus if Q.n > 1] + wide_instances + ladder:
        for t in range(1, P.n + 1):
            lowest, highest = P.coord_min[t - 1], P.coord_max[t - 1]
            D, C = P.slice_at(t, lowest), P.slice_at(t, highest)
            for subset, (deletion, _, _) in minor_ranks(P.table, t, lowest).items():
                assert D.rank_of(subset) == deletion
            for subset, (_, contraction, _) in minor_ranks(P.table, t, highest).items():
                assert C.rank_of(subset) == contraction


def test_minors_match_their_definitions_past_n5(small_corpus, wide_instances):
    # The slices split the table by runs of masks; the oracle reads every
    # rank by element tuple, at every element t and every pin j: n = 6-10,
    # and the small corpus's n = 2-5.
    ladder = [Polymatroid(table) for table in LADDER.values()]
    for P in [Q for Q in small_corpus if Q.n > 1] + wide_instances + ladder:
        for t in range(1, P.n + 1):
            for j in P.coordinate_range(t):
                S = P.slice_at(t, j)
                for subset, (_, _, sliced) in minor_ranks(P.table, t, j).items():
                    assert S.rank_of(subset) == sliced


def test_relabel_matches_its_definition_past_n5(wide_instances):
    # A random permutation, and the reversal and rotation that verify applies.
    rng = random.Random(11)
    for P in wide_instances:
        for sigma in [rng.sample(range(1, P.n + 1), P.n), *_deterministic_permutations(P.n)]:
            Q = P.relabel(sigma)
            for size in range(P.n + 1):
                for subset in itertools.combinations(range(1, P.n + 1), size):
                    assert Q.rank_of(sigma[e - 1] for e in subset) == P.rank_of(subset)


def test_slice_bases_partition_by_coordinate(example5):
    for t in range(1, 6):
        total = 0
        for j in example5.coordinate_range(t):
            S = example5.slice_at(t, j)
            expected = {
                b[: t - 1] + b[t:] for b in example5.bases() if b[t - 1] == j
            }
            assert set(S.bases()) == expected
            total += S.basis_count()
        assert total == example5.basis_count()


def test_slice_rejects_out_of_range(example5):
    with pytest.raises(ValueError):
        example5.slice_at(1, 2)
    with pytest.raises(ValueError):
        example5.slice_at(1, -1)


def test_one_element_ground_set_cannot_shrink():
    P = Polymatroid(RankTable(1, [0, 2]))
    with pytest.raises(ValueError, match="one-element"):
        P.slice_at(1, 2)


def test_relabel_permutes_ranks(example5):
    sigma = (2, 3, 4, 5, 1)
    Q = example5.relabel(sigma)
    assert Q.rank_of((2, 3, 4)) == example5.rank_of((1, 2, 3))
    with pytest.raises(ValueError):
        example5.relabel((1, 1, 2, 3, 4))


def _derived_constructions(P):
    yield P.dual()
    yield P.grounded()
    yield P.relabel(list(range(P.n, 0, -1)))
    for t in range(1, P.n + 1):
        for j in P.coordinate_range(t):
            yield P.slice_at(t, j)


def test_derived_constructions_are_valid(full_corpus, wide_instances):
    # Derived polymatroids skip the axiom checks because they are valid
    # by theorem; a validated rebuild of each table must agree.
    for P in full_corpus + wide_instances:
        for Q in _derived_constructions(P):
            rebuilt = Polymatroid(Q.table)
            assert (Q.coord_min, Q.coord_max, Q.full_rank) == (
                rebuilt.coord_min,
                rebuilt.coord_max,
                rebuilt.full_rank,
            )
