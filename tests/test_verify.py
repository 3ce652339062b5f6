"""The named check suites behind the verify command."""

from __future__ import annotations

import json
import pathlib
import random

import pytest

import polymat.cli as cli
import polymat.graphs
import polymat.hypergraphs
import polymat.matroids
import polymat.structure
import polymat.verify
from polymat.activity import polynomial_pair
from polymat.core import Polymatroid, _once
from polymat.graphs import CutFormulaRow, Graph
from polymat.hypergraphs import Hypergraph
from polymat.matroids import Matroid, TuttePolynomial
from polymat.polynomials import Polynomial
from polymat.verify import (
    CheckResult,
    verify_graph,
    verify_hypergraph,
    verify_matroid,
    verify_polymatroid,
)

from generators import connected_hypergraph_document, random_polymatroid


def assert_all_pass(checks):
    failed = [c for c in checks if not c.passed]
    assert not failed, failed
    # Passing checks carry no detail text.
    assert all(c.detail == "" for c in checks)
    # Check names identify one check each.
    names = [c.name for c in checks]
    assert len(names) == len(set(names))


def test_polymatroid_suite_on_reference(example5):
    checks = verify_polymatroid(example5)
    assert_all_pass(checks)
    assert {c.name for c in checks} >= {
        "basis-count-consistency",
        "exterior-constant-term",
        "exterior-linear-term",
        "slice-recursion-all-elements",
        "interior-equals-dual-exterior",
        "exterior-equals-dual-interior",
        "threshold-existence-and-monotonicity",
        "thresholds-swap-under-duality",
        "circuits-are-dual-hyperplane-complements",
        "families-empty-below-first-threshold",
        "exterior-formula-in-range",
        "interior-formula-in-range",
        "relabeling-invariance",
        "unimodal-guaranteed-prefixes",
    }


def test_basis_count_check_catches_a_corrupted_basis_dag(example5):
    # Drop the first leaf from a fresh copy's cached DAG: 14 of the 17 bases remain.
    P = Polymatroid(example5.table)
    dag = P._basis_dag()
    key = next(k for k, v in vars(P).items() if v is dag)
    vars(P)[key] = ((),) + dag[1:]
    assert P.basis_count() == 14
    checks = {c.name: c for c in verify_polymatroid(P)}
    assert not checks["basis-count-consistency"].passed
    assert checks["basis-count-consistency"].detail == "interior(1)=14 exterior(1)=14 bases=17"


def test_polymatroid_suite_on_random_instances():
    rng = random.Random(61)
    for _ in range(25):
        assert_all_pass(verify_polymatroid(random_polymatroid(rng)))


def test_matroid_suite_adds_tutte_checks():
    checks = verify_matroid(Matroid(3, [(1, 2), (1, 3), (2, 3)]))
    assert_all_pass(checks)
    assert {c.name for c in checks} >= {
        "tutte-exterior-reversal",
        "tutte-interior-reversal",
        "tutte-basis-count",
        "matroid-rank-drop-bridge",
        "matroid-nullity-bridge",
        "matroid-hyperplane-bridge",
        "matroid-circuit-bridge",
    }


def test_matroid_suite_handles_loops_and_coloops():
    # Element 3 is a loop and elements 1, 2 are coloops, so this walks
    # both the loop-aware circuit bridge and the grounded threshold swap.
    assert_all_pass(verify_matroid(Matroid(3, [(1, 2)])))


def test_graph_suite_on_k4():
    checks = verify_graph(Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
    assert_all_pass(checks)
    names = {c.name for c in checks}
    assert "bonds-are-hyperplane-complements" in names
    assert "cut-count-coefficients" in names
    assert "cut-threshold-bound" in names


def test_graph_suite_on_loopy_multigraph():
    for G in (
        Graph(3, [(1, 2), (1, 2), (2, 3), (2, 3), (3, 3)]),
        # Two vertices: cycle rank one, so no rank drop of two exists.
        Graph(2, [(1, 2), (1, 2), (1, 2)]),
        Graph(2, [(1, 2), (1, 2), (2, 2)]),
        Graph(2, [(1, 2)]),
    ):
        checks = verify_graph(G)
        assert_all_pass(checks)
        assert "cut-threshold-bound" in {c.name for c in checks}


def test_graph_suite_on_tree():
    assert_all_pass(verify_graph(Graph(4, [(1, 2), (2, 3), (2, 4)])))


def test_graph_suite_requires_connected_input():
    with pytest.raises(ValueError):
        verify_graph(Graph(3, [(1, 2)]))


def test_hypergraph_suite_on_samples():
    for H in (
        Hypergraph(("a", "b"), [("a", "b"), ("a", "b")]),
        Hypergraph(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b", "c")]),
        Hypergraph(("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "b", "c")]),
    ):
        checks = verify_hypergraph(H)
        assert_all_pass(checks)
        names = {c.name for c in checks}
        assert "tree-degree-vectors-match-bases" in names
        assert "girth-binomial-prefix" in names


def _hypergraph(seed: int, edge_count: int) -> Hypergraph:
    doc = connected_hypergraph_document(seed, edge_count)
    return Hypergraph(doc.vertices, doc.hyperedges)


@pytest.mark.parametrize("seed, edge_count", [(8, 6), (8, 8)])
def test_hypergraph_suite_counts_components_once_per_subset(monkeypatch, seed, edge_count):
    # One count for every hyperedge subset, plus the connectivity test before them.
    H = _hypergraph(seed, edge_count)
    calls = []
    count = polymat.graphs._components

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(polymat.graphs, "_components", counted)
    monkeypatch.setattr(polymat.hypergraphs, "_components", counted)
    assert_all_pass(verify_hypergraph(H))
    assert len(calls) <= 2**edge_count + 2


def test_hypergraph_suite_passes_on_twelve_hyperedges():
    H = _hypergraph(5, 12)
    assert (H.vertex_count, H.edge_count) == (6, 12)
    assert_all_pass(verify_hypergraph(H))


def test_hypergraph_suite_requires_connected_input():
    with pytest.raises(ValueError):
        verify_hypergraph(Hypergraph(("a", "b"), [("a",), ("b",)]))


@pytest.mark.parametrize("case", ["coverage", "K5"])
def test_suite_builds_each_basis_dag_once(monkeypatch, case):
    # The sweep and the basis count read one DAG per polymatroid: P, its
    # dual and its relabelings are each built exactly once.
    built = []
    build = Polymatroid._basis_dag.__wrapped__

    def counted(P):
        built.append(P)
        return build(P)

    monkeypatch.setattr(Polymatroid, "_basis_dag", _once(counted))
    if case == "K5":
        K5 = Graph(5, [(u, v) for u in range(1, 6) for v in range(u + 1, 6)])
        assert_all_pass(verify_matroid(K5.cycle_matroid()))
    else:
        assert_all_pass(verify_polymatroid(random_polymatroid(random.Random(3), 7)))
    assert len(built) >= 4
    assert len({id(P) for P in built}) == len(built)


def test_check_result_detail_kept_on_failure():
    result = CheckResult("sample", False, "left 1 vs right 2")
    assert not result.passed
    assert result.detail == "left 1 vs right 2"


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"

POLYMATROID_NAMES = [
    "basis-count-consistency",
    "exterior-constant-term",
    "exterior-linear-term",
    "slice-recursion-all-elements",
    "interior-equals-dual-exterior",
    "exterior-equals-dual-interior",
    "threshold-existence-and-monotonicity",
    "thresholds-swap-under-duality",
    "circuits-are-dual-hyperplane-complements",
    "families-empty-below-first-threshold",
    "exterior-formula-in-range",
    "interior-formula-in-range",
    "relabeling-invariance",
    "unimodal-guaranteed-prefixes",
]
MATROID_NAMES = POLYMATROID_NAMES + [
    "tutte-exterior-reversal",
    "tutte-interior-reversal",
    "tutte-basis-count",
    "matroid-rank-drop-bridge",
    "matroid-nullity-bridge",
    "matroid-hyperplane-bridge",
    "matroid-circuit-bridge",
]
GRAPH_NAMES = MATROID_NAMES + [
    "bonds-are-hyperplane-complements",
    "cut-count-coefficients",
    "cut-threshold-bound",
]
HYPERGRAPH_NAMES = POLYMATROID_NAMES + [
    "tree-degree-vectors-match-bases",
    "split-threshold-bridge",
    "two-component-family-bridge",
    "unique-cycle-family-bridge",
    "double-cycle-threshold-bridge",
    "degree-sum-deficiency-offset",
    "girth-binomial-prefix",
]


@pytest.mark.parametrize(
    "sample, names",
    [
        ("coverage5.rank-table", POLYMATROID_NAMES),
        ("u23.matroid", MATROID_NAMES),
        ("k4.graph", GRAPH_NAMES),
        ("triangles.hypergraph", HYPERGRAPH_NAMES),
        ("parallel-pair.hypergraph", HYPERGRAPH_NAMES),
    ],
)
def test_verify_prints_each_kinds_checks_in_order(capsys, sample, names):
    code = cli.main(["verify", "--machine", str(SAMPLES / sample)])
    assert code == 0
    assert [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]] == names


# One report per bridge; each break makes exactly one named check fail.
BROKEN_REPORTS = [
    (
        "check_duality",
        lambda r: r._replace(dual_exterior=Polynomial((1, 2), "y")),
        "coverage5.rank-table",
        "FAIL interior-equals-dual-exterior — (1, 5, 8, 3) vs (1, 2)",
    ),
    (
        "check_matroid_polynomials",
        lambda r: r._replace(hyperplane_bridge=False),
        "u23.matroid",
        "FAIL matroid-hyperplane-bridge — ",
    ),
    (
        "cut_formula_check",
        lambda r: r._replace(rows=(CutFormulaRow(0, 2, 1),) + r.rows[1:]),
        "k4.graph",
        "FAIL cut-count-coefficients — rows [(0, 2, 1), (1, 3, 3), (2, 6, 6), (3, 6, 6)]",
    ),
    (
        "cut_formula_check",
        lambda r: r._replace(threshold_bound_ok=False),
        "k4.graph",
        "FAIL cut-threshold-bound — ",
    ),
    (
        "structure_report",
        lambda r: r._replace(rank_drop_threshold=r.split_threshold + 1),
        "triangles.hypergraph",
        "FAIL split-threshold-bridge — 3 vs 4",
    ),
]


@pytest.mark.parametrize("name, spoil, sample, line", BROKEN_REPORTS)
def test_report_passes_exactly_when_its_checks_do(capsys, monkeypatch, name, spoil, sample, line):
    build = getattr(polymat.verify, name)
    reports = []

    def spoiled(*args):
        reports.append(build(*args))
        reports.append(spoil(reports[0]))
        return reports[1]

    monkeypatch.setattr(polymat.verify, name, spoiled)
    code = cli.main(["verify", str(SAMPLES / sample)])
    out = capsys.readouterr().out.splitlines()
    sound, broken = reports
    assert sound.passed and all(ok for _, ok, _ in sound.checks())
    assert not broken.passed
    assert [c[0] for c in broken.checks() if not c[1]] == [line.split()[1]]
    assert [c[0] for c in broken.checks()] == [c[0] for c in sound.checks()]
    # verify prints that one check as failed, with its detail text.
    assert code == 1
    assert [text for text in out if text.startswith("FAIL")] == [line]
    total = int(out[-1].split("/")[1].split()[0])
    assert out[-1] == f"verify {total - 1}/{total} checks passed"


def _plus_one(f):
    return lambda *args: f(*args) + 1


def _tutte_shifted(deltas):
    """Spoil a Tutte route by adding deltas[(i, j)] to the x^i y^j coefficients.

    Shifts summing to zero along a row leave T(x, 1) and T(1, 1) alone, along
    a column T(1, y) and T(1, 1); any other shift moves T(1, 1) and so both
    one-variable specializations.
    """

    def spoil(f):
        def shifted(M):
            grid = [list(row) for row in f(M).grid]
            for (i, j), d in deltas.items():
                grid[i][j] += d
            return TuttePolynomial(tuple(map(tuple, grid)))

        return shifted

    return spoil


def _first_member_dropped(f):
    return lambda *args: {j: frozenset(sorted(group)[1:]) for j, group in f(*args).items()}


def _level_one_raised(f):
    return lambda *args: {**f(*args), 1: f(*args)[1] + 1}


def _dual_interior_lengthened(f):
    """Spoil the dual's half of the duality route only: ``P.dual()`` returns
    the dual with one more interior coefficient in its cached polynomial pair."""

    @_once
    def dual(P):
        D = f(P)
        pair = polynomial_pair(D)
        key = next(k for k, v in vars(D).items() if v is pair)
        vars(D)[key] = (Polynomial(pair[0].coeffs + (1,), "x"), pair[1])
        return D

    return dual


# One patched computation per row: a name in polymat.verify, polymat.structure
# or a frontend module, or a method.  Each breaks one route; verify prints
# every check that reads it as failed, with its detail.  New rows go last,
# since a row's index is part of its test id.
BROKEN_INLINE = [
    (
        polymat.verify,
        "first_exterior_coefficients",
        lambda f: lambda P: (f(P)[0] + 1, f(P)[1]),
        "coverage5.rank-table",
        ["FAIL exterior-constant-term — got 1, closed form 2"],
        "verify 13/14 checks passed",
    ),
    (
        polymat.verify,
        "first_exterior_coefficients",
        lambda f: lambda P: (f(P)[0], f(P)[1] + 1),
        "coverage5.rank-table",
        ["FAIL exterior-linear-term — got 3, closed form 4"],
        "verify 13/14 checks passed",
    ),
    (
        polymat.verify,
        "exterior_by_slices",
        lambda f: lambda P, t: f(P, t) if t != 2 else Polynomial(f(P, t).coeffs + (1,)),
        "coverage5.rank-table",
        ["FAIL slice-recursion-all-elements — mismatch at elements [2]"],
        "verify 13/14 checks passed",
    ),
    (
        # The threshold scan stops one level short of its top.
        polymat.structure,
        "_threshold_scan",
        lambda f: lambda levels, top, n, what: f(levels, top - 1, n, what),
        "coverage5.rank-table",
        [
            "FAIL threshold-existence-and-monotonicity — rank-drop {0: 0, 1: 2, 2: 4}, "
            "deficiency {0: 0, 1: 2, 2: 2, 3: 3, 4: 4}"
        ],
        "verify 13/14 checks passed",
    ),
    (
        polymat.verify,
        "circuit_sets",
        lambda f: lambda P: {j: frozenset(sorted(group)[1:]) for j, group in f(P).items()},
        "coverage5.rank-table",
        [
            "FAIL circuits-are-dual-hyperplane-complements — {0: frozenset(), 1: frozenset(), "
            "2: frozenset({10, 18, 6}), 3: frozenset({21}), 4: frozenset(), 5: frozenset()} vs "
            "{0: frozenset(), 1: frozenset(), 2: frozenset({18, 10, 3, 6}), "
            "3: frozenset({13, 21}), 4: frozenset(), 5: frozenset()}"
        ],
        "verify 13/14 checks passed",
    ),
    (
        polymat.verify,
        "exterior_coefficient_formula",
        _plus_one,
        "coverage5.rank-table",
        ["FAIL exterior-formula-in-range — mismatch at indices [0, 1, 2, 3]"],
        "verify 13/14 checks passed",
    ),
    (
        polymat.verify,
        "interior_coefficient_formula",
        _plus_one,
        "coverage5.rank-table",
        ["FAIL interior-formula-in-range — mismatch at indices [0, 1]"],
        "verify 13/14 checks passed",
    ),
    (
        # A result that is not a relabeling: any wrong bit permutation would
        # pass, by the invariance checked.  This table's interior and
        # exterior differ, so its dual changes the pair.
        Polymatroid,
        "relabel",
        lambda f: lambda P, sigma: P.dual(),
        "coverage5.rank-table",
        ["FAIL relabeling-invariance — changed under [(5, 4, 3, 2, 1), (2, 3, 4, 5, 1)]"],
        "verify 13/14 checks passed",
    ),
    (
        # A unimodality test that rejects a plateau, which K4's prefixes have.
        polymat.verify,
        "is_unimodal",
        lambda f: lambda seq: f(seq) and all(a != b for a, b in zip(seq, seq[1:])),
        "k4.graph",
        ["FAIL unimodal-guaranteed-prefixes — exterior (1, 3, 6, 6) interior (1, 3, 6, 6)"],
        "verify 23/24 checks passed",
    ),
    (
        Graph,
        "bonds",
        lambda f: lambda G: f(G)[:-1],
        "k4.graph",
        [
            "FAIL bonds-are-hyperplane-complements — [7, 25, 30, 42, 45, 52] vs "
            "[7, 25, 30, 42, 45, 51, 52]"
        ],
        "verify 23/24 checks passed",
    ),
    (
        Hypergraph,
        "tree_degree_vectors",
        lambda f: lambda H: frozenset(sorted(f(H))[1:]),
        "triangles.hypergraph",
        [
            "FAIL tree-degree-vectors-match-bases — trees only [], bases only [(0, 0, 1, 2)]"
        ],
        "verify 20/21 checks passed",
    ),
    (
        polymat.matroids,
        "tutte_polynomial",
        _tutte_shifted({(0, 0): 1, (0, 1): -1}),
        "k4.graph",
        ["FAIL tutte-exterior-reversal — "],
        "verify 23/24 checks passed",
    ),
    (
        polymat.matroids,
        "tutte_polynomial",
        _tutte_shifted({(0, 0): 1, (1, 0): -1}),
        "k4.graph",
        ["FAIL tutte-interior-reversal — "],
        "verify 23/24 checks passed",
    ),
    (
        polymat.matroids,
        "tutte_polynomial",
        _tutte_shifted({(0, 0): 1}),
        "k4.graph",
        [
            "FAIL tutte-exterior-reversal — ",
            "FAIL tutte-interior-reversal — ",
            "FAIL tutte-basis-count — ",
        ],
        "verify 21/24 checks passed",
    ),
    (
        polymat.graphs,
        "tutte_polynomial",
        _tutte_shifted({(0, 0): 1}),
        "k4.graph",
        ["FAIL cut-count-coefficients — rows [(0, 1, 1), (1, 3, 3), (2, 6, 6), (3, 6, 7)]"],
        "verify 23/24 checks passed",
    ),
    (
        Matroid,
        "rank_drop_threshold",
        _plus_one,
        "k4.graph",
        ["FAIL matroid-rank-drop-bridge — "],
        "verify 23/24 checks passed",
    ),
    (
        Matroid,
        "nullity_threshold",
        _plus_one,
        "k4.graph",
        ["FAIL matroid-nullity-bridge — "],
        "verify 23/24 checks passed",
    ),
    (
        polymat.hypergraphs,
        "two_component_families",
        _first_member_dropped,
        "triangles.hypergraph",
        ["FAIL two-component-family-bridge — "],
        "verify 20/21 checks passed",
    ),
    (
        polymat.hypergraphs,
        "unique_cycle_families",
        _first_member_dropped,
        "triangles.hypergraph",
        ["FAIL unique-cycle-family-bridge — "],
        "verify 20/21 checks passed",
    ),
    (
        polymat.hypergraphs,
        "double_cycle_threshold",
        _plus_one,
        "triangles.hypergraph",
        ["FAIL double-cycle-threshold-bridge — 4 vs 3"],
        "verify 20/21 checks passed",
    ),
    (
        Polymatroid,
        "dual",
        _dual_interior_lengthened,
        "coverage5.rank-table",
        ["FAIL exterior-equals-dual-interior — (1, 3, 5, 6, 2) vs (1, 3, 5, 6, 2, 1)"],
        "verify 13/14 checks passed",
    ),
    (
        # Grounding forgets to subtract the coordinate minima (1 at element 3).
        Polymatroid,
        "grounded",
        lambda f: lambda P: P,
        "triangles.hypergraph",
        ["FAIL thresholds-swap-under-duality — threshold maps do not swap"],
        "verify 20/21 checks passed",
    ),
    (
        # Each input of the families check feeds another check too: here the
        # rank-drop maps of P, its dual and its translate all read their first
        # threshold one too high, so the swap fails with it.
        polymat.verify,
        "rank_drop_thresholds",
        _level_one_raised,
        "coverage5.rank-table",
        [
            "FAIL thresholds-swap-under-duality — threshold maps do not swap",
            "FAIL families-empty-below-first-threshold — nonempty family below its first threshold",
        ],
        "verify 12/14 checks passed",
    ),
    (
        polymat.hypergraphs,
        "full_deficiency",
        _plus_one,
        "triangles.hypergraph",
        ["FAIL degree-sum-deficiency-offset — 3 vs 1"],
        "verify 20/21 checks passed",
    ),
    (
        Hypergraph,
        "girth",
        lambda f: lambda H: f(H) + 2,
        "triangles.hypergraph",
        [
            "FAIL girth-binomial-prefix — rows [(0, True, True), (1, True, True), "
            "(2, False, True), (3, False, False)]"
        ],
        "verify 20/21 checks passed",
    ),
]


@pytest.mark.parametrize("owner, name, spoil, sample, lines, summary", BROKEN_INLINE)
def test_inline_check_prints_its_failure(
    capsys, monkeypatch, owner, name, spoil, sample, lines, summary
):
    monkeypatch.setattr(owner, name, spoil(getattr(owner, name)))
    code = cli.main(["verify", str(SAMPLES / sample)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert {text for text in out if text.startswith("FAIL")} == set(lines)
    assert out[-1] == summary
