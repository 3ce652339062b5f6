import itertools
import random

import pytest

from polymat import (
    BaseExchangeError,
    Graph,
    Matroid,
    check_matroid_polynomials,
    circuit_sets,
    elements_of,
    hyperplane_sets,
    polynomial_pair,
    rank_drop_thresholds,
    deficiency_thresholds,
    tutte_polynomial,
)

from polymat.matroids import _check_exchange
from polymat.subsets import mask_of

from generators import seeded_multigraph, seeded_multigraphs
from oracles import (
    closure_hyperplanes,
    component_count,
    dc_tutte,
    minimal_circuits,
    per_mask_tutte,
    rank_zero_loops,
)


def u23() -> Matroid:
    return Matroid(3, [(1, 2), (1, 3), (2, 3)])


def test_bases_must_be_equicardinal():
    with pytest.raises(ValueError):
        Matroid(3, [(1,), (2, 3)])


def test_exchange_axiom_enforced():
    # {1,2} and {3,4}: removing 1 must allow adding 3 or 4, but neither
    # {2,3} nor {2,4} is listed.
    with pytest.raises(BaseExchangeError):
        Matroid(4, [(1, 2), (3, 4)])


def test_rank_route_agrees_with_exchange_scan():
    # Random families of r-subsets, n <= 7: the rank-function route must
    # accept exactly the families the exchange scan accepts, reject the
    # others with the scan's witness, and give every subset max |S & B|.
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(2, 7)
        combos = list(itertools.combinations(range(1, n + 1), rng.randint(1, n - 1)))
        family = rng.sample(combos, rng.randint(1, min(len(combos), 6)))
        masks = sorted({mask_of(b, n) for b in family})
        try:
            _check_exchange(masks)
            witness = None
        except BaseExchangeError as exc:
            witness = str(exc)
        if witness is None:
            M = Matroid(n, family)
            assert M._ranks == tuple(max((m & b).bit_count() for b in masks) for m in range(1 << n))
        else:
            with pytest.raises(BaseExchangeError) as info:
                Matroid(n, family)
            assert str(info.value) == witness
        outcomes.add(witness is None)
    assert outcomes == {True, False}


def test_bases_required():
    with pytest.raises(ValueError):
        Matroid(2, [])


def test_subset_rank():
    M = u23()
    assert M.rank == 2
    assert M.subset_rank(0b111) == 2
    assert M.subset_rank(0b001) == 1
    assert M.subset_rank(0) == 0


def test_polymatroid_bases_are_indicators():
    M = u23()
    P = M.to_polymatroid()
    assert set(P.bases()) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert M.to_polymatroid() is P


def test_u23_polynomials():
    interior, exterior = polynomial_pair(u23().to_polymatroid())
    assert interior.coeffs == (1, 1, 1)
    assert exterior.coeffs == (1, 2)


def test_u23_tutte():
    T = tutte_polynomial(u23())
    assert T.evaluate(1, 1) == 3
    assert T.at_x1().coeffs == (2, 1)
    assert T.at_y1().coeffs == (1, 1, 1)
    assert T.coefficient(1, 0) == 1
    assert T.coefficient(0, 5) == 0


def test_tutte_polynomial_is_computed_once():
    M = u23()
    assert tutte_polynomial(M) is tutte_polynomial(M)


def test_tutte_matches_deletion_contraction():
    cases = [
        (4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),  # complete
        (3, [(1, 2), (2, 3), (1, 3), (1, 3)]),  # parallel pair in a triangle
        (2, [(1, 2), (1, 2), (1, 1)]),  # doubled edge plus a loop
        (4, [(1, 2), (2, 3), (3, 4)]),  # path: bridges only
    ]
    from polymat import Graph

    for nv, edges in cases:
        M = Graph(nv, edges).cycle_matroid()
        grid = tutte_polynomial(M).grid
        expected = dc_tutte(edges)
        got = {
            (i, j): c
            for i, row in enumerate(grid)
            for j, c in enumerate(row)
            if c
        }
        assert got == expected


def _graphs_with_a_bridge(edge_counts):
    # Each multigraph has a loop and a parallel pair; a pendant vertex adds a bridge.
    rng = random.Random(53)
    for edge_count in edge_counts:
        vertex_count, edges = seeded_multigraph(rng, edge_count - 1)
        edges.insert(rng.randint(0, len(edges)), (rng.randint(1, vertex_count), vertex_count + 1))
        yield Graph(vertex_count + 1, edges)


def test_pair_counted_tutte_matches_per_mask_expansion():
    # The oracle counts (corank, nullity) pairs before expanding them;
    # the reference expands every mask's term on its own.
    for G in _graphs_with_a_bridge(range(6, 15)):
        M = G.cycle_matroid()
        assert tutte_polynomial(M).grid == per_mask_tutte(M), G.edges


def test_pair_counted_tutte_matches_deletion_contraction_past_eight_edges():
    for G in _graphs_with_a_bridge((8, 9, 10)):
        grid = tutte_polynomial(G.cycle_matroid()).grid
        got = {(i, j): c for i, row in enumerate(grid) for j, c in enumerate(row) if c}
        assert got == dc_tutte(list(G.edges)), G.edges


def test_reversal_specializations():
    # Exterior = reversal of T(1, y) padded to n - d; interior the same
    # for T(x, 1) padded to d.
    M = u23()
    interior, exterior = polynomial_pair(M.to_polymatroid())
    T = tutte_polynomial(M)
    assert exterior == T.at_x1().reversed_to(M.n - M.rank)
    assert interior == T.at_y1().reversed_to(M.rank)


def test_native_structure_matches_polymatroid_route():
    M = u23()
    P = M.to_polymatroid()
    assert M.hyperplane_sets() == {
        j: s for j, s in hyperplane_sets(P).items()
    }
    assert M.circuit_sets() == {j: s for j, s in circuit_sets(P).items()}
    assert M.rank_drop_threshold(2) == rank_drop_thresholds(P).get(2)
    assert M.nullity_threshold(2) == deficiency_thresholds(P).get(2)


def test_u23_native_families():
    M = u23()
    assert {tuple(elements_of(h)) for h in M.hyperplanes()} == {(1,), (2,), (3,)}
    assert {tuple(elements_of(c)) for c in M.circuits()} == {(1, 2, 3)}


def test_full_report_passes():
    report = check_matroid_polynomials(u23())
    assert report.passed


def test_loop_and_coloop_matroid():
    # Elements 1 and 2 sit in the unique base (coloops); 3 is a loop.
    M = Matroid(3, [(1, 2)])
    assert M.loop_mask() == 0b100
    T = tutte_polynomial(M)
    assert T.evaluate(1, 1) == 1
    assert T.coefficient(2, 1) == 1  # x^2 y
    report = check_matroid_polynomials(M)
    assert report.passed


def test_nullity_threshold_loop_handling():
    # Two loops reach plain nullity 2 at size 2, but the loop-free scan
    # (the polymatroid's deficiency view) never sees them.
    M = Matroid(3, [(1,)])
    assert M.nullity_threshold(2) is None
    assert check_matroid_polynomials(M).passed


def uniform(r: int, n: int) -> tuple[Matroid, list[int]]:
    """U(r, n) from its base list, with its rank list min(|m|, r) computed directly."""
    bases = itertools.combinations(range(1, n + 1), r)
    return Matroid(n, bases), [min(bin(m).count("1"), r) for m in range(1 << n)]


def graph_case(G) -> tuple[Matroid, list[int]]:
    """A cycle matroid with its rank list from DFS component counts."""
    ranks = [
        G.vertex_count
        - component_count(G.vertex_count, [e for i, e in enumerate(G.edges) if m >> i & 1])
        for m in range(1 << G.edge_count)
    ]
    return G.cycle_matroid(), ranks


def per_base_pivot(M: Matroid, pivot_in_base: bool) -> frozenset[int]:
    """Fundamental cocircuits or circuits, one (base, pivot) pair at a time:
    the pivot p plus every q across the base B with B ^ p ^ q a base."""
    base_set = set(M.base_masks)
    full = (1 << M.n) - 1
    out = set()
    for b in M.base_masks:
        pivots, partners = (b, full ^ b) if pivot_in_base else (full ^ b, b)
        for p in (1 << t for t in range(M.n) if pivots >> t & 1):
            out.add(p | sum(
                1 << t for t in range(M.n) if partners >> t & 1 and b ^ p ^ 1 << t in base_set
            ))
    return frozenset(out)


@pytest.mark.parametrize("family", ["graphs", "uniform", "rank-zero"])
def test_base_list_families_match_rank_scans(family):
    # The matroid reads its families off the base list; the oracles scan
    # every mask of an independently computed rank list for closed sets of
    # rank r - 1, minimal dependent sets and rank-zero singletons.  Probing
    # each distinct exchange core once must give the per-(base, pivot)
    # families, and the thresholds must match a per-mask exact-level scan.
    # The graphs have loops, parallel edges and coloops.
    cases = {
        "graphs": lambda: [graph_case(G) for G in seeded_multigraphs()],
        "uniform": lambda: [uniform(r, n) for n in range(6, 11) for r in (1, n // 2, n - 1)],
        "rank-zero": lambda: [(Matroid(2, [()]), [0, 0, 0, 0])],
    }[family]()
    for M, ranks in cases:
        assert M.hyperplanes() == closure_hyperplanes(M.n, ranks), M
        assert M.circuits() == minimal_circuits(M.n, ranks), M
        assert M.loop_mask() == rank_zero_loops(M.n, ranks), M
        assert M._fundamental_sets(True) == per_base_pivot(M, True), M
        assert M._fundamental_sets(False) == per_base_pivot(M, False), M
        n, full, loops = M.n, (1 << M.n) - 1, M.loop_mask()
        sizes = [bin(m).count("1") for m in range(1 << n)]
        for k in range(n + 2):
            drops = [sizes[m] for m in range(1 << n) if ranks[full ^ m] == ranks[-1] - k]
            assert M.rank_drop_threshold(k) == min(drops, default=None), (M, k)
            exact = [sizes[m] for m in range(1 << n) if not m & loops and sizes[m] - ranks[m] == k]
            assert M.nullity_threshold(k) == min(exact, default=None)


def test_bridges_catch_a_base_list_that_disagrees_with_the_ranks():
    # U(2, 4)'s rank table with the base {1, 2} left out of the base list:
    # the native families come from the list alone, so both bridges fail.
    _, ranks = uniform(2, 4)
    bases = [m for m in range(16) if bin(m).count("1") == 2 and m != 0b0011]
    report = check_matroid_polynomials(Matroid._trusted(4, ranks, bases))
    assert not report.hyperplane_bridge
    assert not report.circuit_bridge
