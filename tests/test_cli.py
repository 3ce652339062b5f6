"""Command-line interface: outputs, flags, and exit codes."""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations

import pytest

import polymat.cli as cli
from polymat import Polymatroid, RankTable
from polymat.documents import (
    GraphDocument,
    HypergraphDocument,
    MatroidDocument,
    RankTableDocument,
    emit_document,
)
from polymat.graphs import Graph
from polymat.polynomials import Polynomial
from polymat.subsets import elements_of
from polymat.verify import CheckResult

from conftest import reference_document
from generators import coverage_table, ladder_tables, seeded_multigraphs
from oracles import brute_spanning_trees, component_count


SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "samples"


@pytest.fixture
def table_file(tmp_path):
    path = tmp_path / "reference.rank-table"
    path.write_text(reference_document())
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -----------------------------------------------------------------


def test_validate_rank_table(capsys, table_file):
    code, out, err = run(capsys, ["validate", table_file])
    assert code == 0
    assert "valid rank-table" in out
    assert "ground-set 5 full-rank 3" in out
    assert err == ""


def test_validate_machine_json(capsys, table_file):
    code, out, _ = run(capsys, ["validate", "--machine", table_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "validate"
    assert payload["valid"] is True
    assert payload["ground_set"] == 5
    assert payload["full_rank"] == 3


def test_validate_graph_sample(capsys):
    code, out, _ = run(capsys, ["validate", str(SAMPLES / "k4.graph")])
    assert code == 0
    assert "vertices 4 edges 6 connected" in out


def test_validate_axiom_violation_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.rank-table"
    path.write_text(
        "kind rank-table\nn 1\nrank empty 0\nrank 1 2\n".replace("rank 1 2", "rank 1 -1")
    )
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_validate_monotonicity_violation_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.rank-table"
    path.write_text("kind rank-table\nn 2\nrank empty 0\nrank 1 2\nrank 2 1\nrank 1,2 1\n")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "error:" in err


# -- bases ---------------------------------------------------------------------


def test_bases_lists_all_seventeen(capsys, table_file):
    code, out, _ = run(capsys, ["bases", table_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bases 17"
    rows = lines[1:]
    assert len(rows) == 17
    assert all(len(row.split()) == 5 for row in rows)
    assert "1 1 0 1 0" in rows


def _rank_table_file(tmp_path, table) -> str:
    entries = tuple((elements_of(m), v) for m, v in enumerate(table.values))
    path = tmp_path / "pinned.rank-table"
    path.write_text(emit_document(RankTableDocument(table.n, entries)))
    return str(path)


@pytest.mark.parametrize(
    "table",
    # main writes text 4,096 lines at a time: coverage-12's 19,651 lines cross four chunks.
    [ladder_tables()["coverage-9a"], RankTable(1, (0, 3)), coverage_table(12, 10, 3, 1)],
    ids=["coverage-9a", "one-element", "coverage-12"],
)
def test_bases_output_is_pinned(capsys, tmp_path, table):
    path = _rank_table_file(tmp_path, table)
    bases = Polymatroid(table).bases()
    lines = [f"bases {len(bases)}"] + [" ".join(map(str, b)) for b in bases]
    assert run(capsys, ["bases", path]) == (0, "".join(line + "\n" for line in lines), "")
    payload = {"bases": [list(b) for b in bases], "command": "bases",
               "count": len(bases), "kind": "rank-table"}
    machine = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert run(capsys, ["bases", "--machine", path]) == (0, machine, "")


# -- poly ------------------------------------------------------------------------


def test_poly_direct_output(capsys, table_file):
    code, out, _ = run(capsys, ["poly", table_file])
    assert code == 0
    assert "exterior 1 3 5 6 2" in out
    assert "interior 1 5 8 3" in out
    assert "exterior-pretty 1+3y+5y²+6y³+2y⁴" in out


def test_poly_kind_filter(capsys, table_file):
    code, out, _ = run(capsys, ["poly", "--kind", "exterior", table_file])
    assert code == 0
    assert "exterior 1 3 5 6 2" in out
    assert "interior" not in out


def test_poly_machine_payload(capsys, table_file):
    code, out, _ = run(capsys, ["poly", "--machine", table_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["exterior"]["coefficients"] == [1, 3, 5, 6, 2]
    assert payload["interior"]["coefficients"] == [1, 5, 8, 3]


def test_poly_on_graph_matches_library(capsys):
    from polymat.activity import polynomial_pair
    from polymat.graphs import Graph

    code, out, _ = run(capsys, ["poly", str(SAMPLES / "k4.graph")])
    assert code == 0
    interior, exterior = polynomial_pair(
        Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        .cycle_matroid()
        .to_polymatroid()
    )
    assert f"interior {' '.join(map(str, interior.coeffs))}" in out
    assert f"exterior {' '.join(map(str, exterior.coeffs))}" in out


def test_poly_and_coeffs_match_polynomial_pair_on_wide_corpus(capsys, tmp_path, wide_instances):
    # poly and coeffs run the slice recursion; the direct sweep is the second route.
    from polymat.activity import polynomial_pair

    for P in wide_instances:
        path = _rank_table_file(tmp_path, P.table)
        pair = dict(zip(("interior", "exterior"), polynomial_pair(P)))
        for kind, names in cli._KINDS.items():
            text = [line for name in names for line in (
                f"{name} " + " ".join(map(str, pair[name].coeffs)),
                f"{name}-pretty {pair[name].pretty()}",
            )]
            assert run(capsys, ["poly", "--kind", kind, path]) == (0, "\n".join(text) + "\n", "")
            code, out, err = run(capsys, ["poly", "--kind", kind, "--machine", path])
            assert (code, err) == (0, "")
            assert json.loads(out) == {
                "command": "poly", "kind": "rank-table",
                **{name: {"coefficients": list(pair[name].coeffs), "pretty": pair[name].pretty()}
                   for name in names},
            }
            code, out, err = run(capsys, ["coeffs", "--kind", kind, "--machine", path])
            payload = json.loads(out)
            assert (code, err) == (0, "")
            rows = [r for name in names for r in payload[name]["rows"]]
            for name in names:
                column = [r["enumerated"] for r in payload[name]["rows"]]
                assert len(column) > pair[name].degree
                assert column == [pair[name].coefficient(i) for i in range(len(column))]
            _, out, _ = run(capsys, ["coeffs", "--kind", kind, path])
            words = [line.split() for line in out.splitlines() if " enumerated " in line]
            assert [w[w.index("enumerated") + 1] for w in words] == [str(r["enumerated"]) for r in rows]


@pytest.mark.parametrize("kind", tuple(cli._KINDS))
@pytest.mark.parametrize("command", ["poly", "coeffs"])
def test_poly_and_coeffs_run_only_the_slice_routes_kind_names(
    capsys, monkeypatch, table_file, command, kind
):
    called = []

    def recorded(name, route):
        def wrapper(P):
            called.append(name)
            return route(P)
        return wrapper

    def refused(self):
        raise AssertionError("the direct sweep's basis DAG was built")

    for name in ("interior", "exterior"):
        route = f"{name}_by_slices"
        monkeypatch.setattr(cli, route, recorded(name, getattr(cli, route)))
    monkeypatch.setattr(Polymatroid, "_basis_dag", refused)
    assert run(capsys, [command, "--kind", kind, table_file])[0] == 0
    assert called == list(cli._KINDS[kind])


# -- structure ---------------------------------------------------------------------


def test_structure_report_lines(capsys, table_file):
    code, out, _ = run(capsys, ["structure", table_file])
    assert code == 0
    assert "full-rank 3" in out
    assert "full-deficiency 5" in out
    assert "rank-drop-thresholds 0:0 1:2 2:4 3:5" in out
    assert "deficiency-thresholds 0:0 1:2 2:2 3:3 4:4 5:5" in out
    assert "flats 6" in out
    assert "hyperplanes complement-size 2 count 1: 1,2,3" in out
    assert "hyperplanes complement-size 3 count 1: 4,5" in out
    assert "circuits size 2 count 4:" in out
    assert "circuits size 3 count 2:" in out


def test_structure_machine_payload(capsys, table_file):
    code, out, _ = run(capsys, ["structure", "--machine", table_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_drop_thresholds"] == {"0": 0, "1": 2, "2": 4, "3": 5}
    assert payload["full_deficiency"] == 5
    assert payload["flats"] == [[], [1], [3], [4, 5], [1, 2, 3], [1, 2, 3, 4, 5]]


# -- coeffs -----------------------------------------------------------------------


def test_coeffs_flags_out_of_range_rows(capsys, table_file):
    code, out, _ = run(capsys, ["coeffs", table_file])
    assert code == 0
    assert "exterior guaranteed-range 4" in out
    assert "interior guaranteed-range 2" in out
    assert "exterior i=3 formula 6 enumerated 6 in-range match" in out
    assert "exterior i=4 formula 6 enumerated 2 flagged differs" in out
    assert "interior i=2 formula 11 enumerated 8 flagged differs" in out
    assert out.rstrip().endswith("coeffs ok")


def test_coeffs_machine_payload(capsys, table_file):
    code, out, _ = run(capsys, ["coeffs", "--machine", table_file])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    ext_rows = payload["exterior"]["rows"]
    assert ext_rows[4] == {
        "i": 4,
        "formula": 6,
        "enumerated": 2,
        "in_range": False,
        "match": False,
    }


def test_coeffs_in_range_mismatch_exits_1(capsys, table_file, monkeypatch):
    monkeypatch.setattr(cli, "interior_by_slices", lambda P: Polynomial((5,), var="x"))
    monkeypatch.setattr(cli, "exterior_by_slices", lambda P: Polynomial((5,)))
    code, out, _ = run(capsys, ["coeffs", table_file])
    assert code == 1
    assert "coeffs FAILED: in-range mismatch" in out


# -- verify -----------------------------------------------------------------------


def test_verify_rank_table_all_pass(capsys, table_file):
    code, out, _ = run(capsys, ["verify", table_file])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
    total = lines[-1].split()[1]
    good, count = total.split("/")
    assert good == count


def test_verify_samples_pass(capsys):
    for name in ("k4.graph", "u23.matroid", "parallel-pair.hypergraph",
                 "triangles.hypergraph", "coverage5.rank-table"):
        code, out, _ = run(capsys, ["verify", str(SAMPLES / name)])
        assert code == 0, name
        assert "FAIL" not in out


def test_verify_two_vertex_graph_exits_0(capsys, tmp_path):
    path = tmp_path / "triple.graph"
    path.write_text("kind graph\nvertices 2\nedge 1 2\nedge 1 2\nedge 1 2\n")
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert "PASS cut-threshold-bound" in out
    assert "FAIL" not in out


def test_one_vertex_graph_needs_an_edge(capsys, tmp_path):
    path = tmp_path / "point.graph"
    path.write_text("kind graph\nvertices 1\n")
    for command in cli._COMMANDS:
        assert run(capsys, [command, str(path)]) == (2, "", "error: cycle matroid needs at least one edge\n")
    path.write_text("kind graph\nvertices 3\n")  # connectivity is refused first
    assert run(capsys, ["validate", str(path)])[2] == "error: cycle matroid requires a connected graph\n"


def _twin_documents(G: Graph) -> dict[str, str]:
    """G as a graph document and its hypergraph, matroid and rank-table twins.

    A loop is a one-vertex hyperedge; the bases and ranks come from the
    test oracles, not from the code under test.
    """
    v, edges = G.vertex_count, list(G.edges)
    m = len(edges)
    names = tuple(map(str, range(1, v + 1)))
    hyperedges = tuple(tuple(names[w - 1] for w in sorted({a, b})) for a, b in edges)
    bases = sorted(tuple(i + 1 for i in sorted(tree)) for tree in brute_spanning_trees(v, edges))
    ranks = (
        (tuple(elements_of(mask)), v - component_count(v, [edges[i] for i in range(m) if mask >> i & 1]))
        for mask in range(1 << m)
    )
    return {
        "graph": emit_document(GraphDocument(v, tuple(edges))),
        "hypergraph": emit_document(HypergraphDocument(names, hyperedges)),
        "matroid": emit_document(MatroidDocument(m, tuple(bases))),
        "rank-table": emit_document(RankTableDocument(m, tuple(ranks))),
    }


_TWIN_GRAPHS = {
    **{f"seeded-{k}": G for k, G in enumerate(seeded_multigraphs()) if G.is_connected()},
    "one-loop": Graph(1, [(1, 1)]),
    "two-loops": Graph(1, [(1, 1), (1, 1)]),
}


@pytest.mark.parametrize("name", tuple(_TWIN_GRAPHS))
def test_one_edge_list_gives_one_answer_in_every_frontend(capsys, tmp_path, name):
    paths = []
    for kind, text in _twin_documents(_TWIN_GRAPHS[name]).items():
        paths.append(tmp_path / f"twin.{kind}")
        paths[-1].write_text(text)
    for command in ("bases", "poly", "structure", "coeffs"):
        plain = [run(capsys, [command, str(path)]) for path in paths]
        assert plain == [plain[0]] * len(paths), command
        payloads = [json.loads(run(capsys, [command, "--machine", str(path)])[1]) for path in paths]
        for payload in payloads:
            del payload["kind"]
        assert payloads == [payloads[0]] * len(paths), command
    for path in paths:
        code, out, _ = run(capsys, ["verify", str(path)])
        assert code == 0, (path.name, out)


def test_verify_graph_past_twelve_vertices_exits_0(capsys, tmp_path):
    path = tmp_path / "c14.graph"
    edges = "".join(f"edge {i} {i % 14 + 1}\n" for i in range(1, 15))
    path.write_text("kind graph\nvertices 14\n" + edges)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert "FAIL" not in out


def test_verify_petersen_graph_exits_0(capsys, tmp_path):
    # A graph at the sizes the guards admit: 15 edges, 2,000 spanning trees.
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i, (i + 1) % 5 + 6) for i in range(6, 11)]
    path = tmp_path / "petersen.graph"
    edges = "".join(f"edge {u} {v}\n" for u, v in outer + spokes + inner)
    path.write_text("kind graph\nvertices 10\n" + edges)
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == "verify 24/24 checks passed"


def test_verify_failure_exits_1(capsys, table_file, monkeypatch):
    def failing(P):
        return (CheckResult("demo-check", False, "forced failure"),)

    monkeypatch.setattr(cli, "verify_polymatroid", failing)
    code, out, _ = run(capsys, ["verify", table_file])
    assert code == 1
    assert "FAIL demo-check — forced failure" in out
    assert "verify 0/1 checks passed" in out


@pytest.mark.parametrize(
    "family, bridge",
    [("hyperplane_sets", "matroid-hyperplane-bridge"), ("circuit_sets", "matroid-circuit-bridge")],
)
def test_verify_fails_a_bridge_whose_rank_table_side_loses_a_member(
    capsys, monkeypatch, family, bridge
):
    # Each bridge compares the base-list family with the rank-table one, so
    # with one member dropped from the rank-table side that bridge alone fails.
    import polymat.matroids

    computed = getattr(polymat.matroids, family)

    def short(P):
        groups = dict(computed(P))
        j = min(j for j, group in groups.items() if group)
        groups[j] = frozenset(sorted(groups[j])[1:])
        return groups

    monkeypatch.setattr(polymat.matroids, family, short)
    code, out, _ = run(capsys, ["verify", str(SAMPLES / "k4.graph")])
    assert code == 1
    assert [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")] == [bridge]


# -- size guards and input handling ----------------------------------------------


def test_size_guard_rejects_without_override(capsys, table_file):
    code, _, err = run(capsys, ["validate", "--max-n", "4", table_file])
    assert code == 2
    assert "exceeds the limit 4" in err
    assert "--max-n" in err


def test_size_guard_raise_warns(capsys, table_file):
    code, _, err = run(capsys, ["validate", "--max-n", "17", table_file])
    assert code == 0
    assert "warning: size limit raised to 17" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["validate", "no-such-file.rank-table"])
    assert code == 2
    assert err.startswith("error: cannot read input")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("options", [[], ["--machine"]])
def test_closed_output_pipe_exits_2_as_a_write_error(capsys, monkeypatch, table_file, options):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["bases", *options, table_file]) == 2
    assert capsys.readouterr().err == "error: cannot write output: [Errno 32] Broken pipe\n"
    # Reading stays its own error: a directory cannot be read as a document.
    assert cli.main(["bases", str(pathlib.Path(table_file).parent)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read input: ")


@pytest.mark.parametrize("options", [[], ["--machine"]])
def test_closed_stdout_exits_2_as_a_write_error(capsys, monkeypatch, table_file, options):
    monkeypatch.setattr(sys, "stdout", None)  # what Python starts with when descriptor 1 is closed
    assert cli.main(["validate", *options, table_file]) == 2
    assert capsys.readouterr().err == "error: cannot write output: standard output is closed\n"


def test_closed_stdin_exits_2_as_a_read_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)
    assert run(capsys, ["validate", "-"]) == (2, "", "error: cannot read input: standard input is closed\n")


class _RefusingStderr(io.StringIO):
    def write(self, text):
        raise OSError(9, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _RefusingStderr()], ids=["none", "refusing"])
def test_closed_stderr_changes_no_exit_code(capsys, monkeypatch, stderr):
    monkeypatch.setattr(sys, "stderr", stderr)
    assert run(capsys, ["validate", "no-such-file.graph"])[:2] == (2, "")
    code, out, _ = run(capsys, ["validate", "--max-n", "21", str(SAMPLES / "k4.graph")])
    assert (code, out) == (0, "valid graph\nvertices 4 edges 6 connected\nground-set 6 full-rank 3\n")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: polymat [options] <command> <file>")
    names = ("validate", "bases", "poly", "structure", "coeffs", "verify")
    assert tuple(cli._COMMANDS) == names
    for name in names:
        assert f"\n  {name:<10} {cli._COMMANDS[name].__doc__}\n" in out
    assert "validate   parse the document and check its defining axioms" in out


def _fresh_process(argv, **options):
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, polymat.cli; sys.exit(polymat.cli.main())", *argv],
        env=env, capture_output=True, text=True, timeout=60, **options,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_closed_descriptors_in_a_fresh_process():
    k4 = str(SAMPLES / "k4.graph")
    closing = lambda fd: lambda: os.close(fd)  # in the child, after its pipes are in place
    assert _fresh_process(["validate", k4], preexec_fn=closing(1)) == (
        2, "", "error: cannot write output: standard output is closed\n")
    assert _fresh_process(["validate", "no-such-file.graph"], preexec_fn=closing(2)) == (2, "", "")
    assert _fresh_process(["validate", "--max-n", "21", k4], preexec_fn=closing(2)) == (
        0, "valid graph\nvertices 4 edges 6 connected\nground-set 6 full-rank 3\n", "")


def test_parser_reuse_carries_nothing_between_calls(capsys, table_file):
    # One parser serves every call in a process; no option outlives its call.
    assert run(capsys, ["validate", "--max-n", "17", table_file])[2].count("warning") == 1
    assert run(capsys, ["validate", table_file])[2] == ""
    for options in (["--machine"], ["--kind", "interior"]):
        run(capsys, ["poly", *options, table_file])
        assert run(capsys, ["poly", table_file]) == _fresh_process(["poly", table_file])


@pytest.mark.parametrize(
    "options", [["--machine"], ["--kind", "exterior"], ["--machine", "--kind", "exterior"]]
)
def test_options_before_or_after_command(capsys, table_file, options):
    _, expected, _ = run(capsys, ["poly", *options, table_file])
    for argv in ([*options, "poly", table_file], ["poly", table_file, *options]):
        assert run(capsys, argv) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["bogus", "FILE"], "argument <command>: invalid choice: 'bogus'"),
        (["validate"], "the following arguments are required: <file>"),
        (["poly", "--kind", "bogus", "FILE"], "argument --kind: invalid choice: 'bogus'"),
        (["poly", "--method", "recursion", "FILE"], "unrecognized arguments: --method"),
    ],
)
def test_bad_arguments_exit_2(capsys, table_file, argv, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main([table_file if a == "FILE" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"polymat: error: {reason}" in captured.err
    assert "Traceback" not in captured.err


def test_parse_error_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.graph"
    path.write_text("kind graph\nvertices 2\nedge 1 5\n")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "error: line 3, column 8:" in err


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.sys, "stdin", io.StringIO("kind graph\nvertices 2\nedge 1 2\n")
    )
    code, out, _ = run(capsys, ["validate", "-"])
    assert code == 0
    assert "valid graph" in out


def test_output_is_deterministic(capsys, table_file):
    _, first, _ = run(capsys, ["structure", "--machine", table_file])
    _, second, _ = run(capsys, ["structure", "--machine", table_file])
    assert first == second


_AGREEMENT_DOCUMENTS = {
    **{p.name: p.read_text() for p in sorted(SAMPLES.iterdir())},
    "k5.graph": emit_document(GraphDocument(5, tuple(combinations(range(1, 6), 2)))),
    "u24.matroid": emit_document(MatroidDocument(4, tuple(combinations(range(1, 5), 2)))),
}


def _fields(text):
    """'key value key flag ...' as {key: int value, or True for a bare key}."""
    tokens, fields = text.split(), {}
    while tokens:
        key = tokens.pop(0)
        fields[key] = int(tokens.pop(0)) if tokens and tokens[0].isdigit() else True
    return fields


def _thresholds(entries):
    return " ".join(f"{k}:{v}" for k, v in sorted(entries.items(), key=lambda kv: int(kv[0])))


@pytest.mark.parametrize("command", tuple(cli._COMMANDS))
@pytest.mark.parametrize("name", tuple(_AGREEMENT_DOCUMENTS))
def test_text_and_machine_output_agree(capsys, tmp_path, name, command):
    path = tmp_path / name
    path.write_text(_AGREEMENT_DOCUMENTS[name])
    code, text, _ = run(capsys, [command, str(path)])
    machine_code, out, _ = run(capsys, [command, "--machine", str(path)])
    payload = json.loads(out)
    lines = text.splitlines()
    assert code == machine_code
    assert (payload["command"], payload["kind"]) == (command, name.split(".")[1])
    if command == "validate":
        assert lines[0] == f"valid {payload['kind']}"
        fields = {k.replace("_", "-"): v for k, v in payload.items()
                  if k not in ("command", "kind", "valid")}
        assert _fields(" ".join(lines[1:])) == fields
    elif command == "bases":
        rows = [" ".join(map(str, b)) for b in payload["bases"]]
        assert lines == [f"bases {payload['count']}"] + rows
    elif command == "poly":
        assert lines == [
            line
            for side in ("interior", "exterior")
            for line in (f"{side} " + " ".join(map(str, payload[side]["coefficients"])),
                         f"{side}-pretty {payload[side]['pretty']}")
        ]
    elif command == "structure":
        assert lines[:6] == [
            f"ground-set {payload['ground_set']}",
            f"full-rank {payload['full_rank']}",
            f"full-deficiency {payload['full_deficiency']}",
            "rank-drop-thresholds " + _thresholds(payload["rank_drop_thresholds"]),
            "deficiency-thresholds " + _thresholds(payload["deficiency_thresholds"]),
            f"flats {len(payload['flats'])}",
        ]
    elif command == "coeffs":
        expected = []
        for side in ("interior", "exterior"):
            expected.append(f"{side} guaranteed-range {payload[side]['guaranteed_range']}")
            expected += [
                f"{side} i={r['i']} formula {r['formula']} enumerated {r['enumerated']} "
                + ("in-range " if r["in_range"] else "flagged ")
                + ("match" if r["match"] else "differs")
                for r in payload[side]["rows"]
            ]
        expected.append("coeffs ok" if payload["passed"] else "coeffs FAILED: in-range mismatch")
        assert lines == expected
    else:
        checks = payload["checks"]
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS" if c["passed"] else "FAIL", c["name"]] for c in checks
        ]
        good = sum(c["passed"] for c in checks)
        assert lines[-1] == f"verify {good}/{len(checks)} checks passed"


_ODD_DOCUMENTS = {
    "loop.graph": "kind graph\nvertices 1\nedge 1 1\n",
    "disconnected.graph": "kind graph\nvertices 3\nedge 1 2\n",
    "two-vertex.graph": "kind graph\nvertices 2\nedge 1 2\n",
    "empty-base.matroid": "kind matroid\nn 2\nbase empty\n",
    "no-exchange.matroid": "kind matroid\nn 4\nbase 1,2\nbase 3,4\n",
    "disconnected.hypergraph": "kind hypergraph\nvertices a b c d\nhedge a b\nhedge c d\n",
    "not-submodular.rank-table":
        "kind rank-table\nn 2\nrank empty 0\nrank 1 1\nrank 2 1\nrank 1,2 3\n",
    "huge-rank.rank-table": "kind rank-table\nn 1\nrank empty 0\nrank 1 99999999999999999999\n",
}
_ODD_DOCUMENTS.update({p.name: p.read_text() for p in sorted(SAMPLES.iterdir())})


@pytest.mark.parametrize("command", tuple(cli._COMMANDS))
@pytest.mark.parametrize("name", tuple(_ODD_DOCUMENTS))
def test_every_command_ends_without_traceback(capsys, tmp_path, name, command):
    path = tmp_path / name
    path.write_text(_ODD_DOCUMENTS[name])
    code, _, err = run(capsys, [command, str(path)])
    assert code in ((0,) if name == "loop.graph" else (0, 1, 2))
    assert "Traceback" not in err


@pytest.mark.parametrize("edge", ["1 2", "999999999 1000000000"])
def test_huge_vertex_count_exits_2_without_allocating(capsys, tmp_path, edge):
    # More vertices than edges + 1 cannot be connected; that is answered
    # before anything per vertex is allocated.
    path = tmp_path / "sparse.graph"
    path.write_text(f"kind graph\nvertices 1000000000\nedge {edge}\n")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["validate", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert peak < 1 << 20
    assert (code, out) == (2, "")
    assert err == "error: cycle matroid requires a connected graph\n"


@pytest.mark.parametrize("command", tuple(cli._COMMANDS))
def test_full_rank_past_the_threshold_limit_is_refused_without_allocating(
    capsys, tmp_path, command
):
    path = tmp_path / "huge-rank.rank-table"
    path.write_text(_ODD_DOCUMENTS[path.name])
    tracemalloc.start()
    try:
        code, out, err = run(capsys, [command, str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    if command in ("structure", "coeffs", "verify"):
        assert (code, out) == (2, "")
        assert err == (
            "error: full rank 99999999999999999999 exceeds the limit 1048576 for threshold maps\n"
        )
    else:
        assert (code, err) == (0, "")


_NUMBER_REPLACEMENTS = ("-1", "0", "1000000000", "x")


def _mutants(text: str):
    """Each line dropped, each line doubled, and each numeric token replaced."""
    lines = text.splitlines(keepends=True)
    for k, line in enumerate(lines):
        yield "".join(lines[:k] + lines[k + 1 :])
        yield "".join(lines[: k + 1] + lines[k:])
        tokens = line.split()
        for t, token in enumerate(tokens):
            if token.isdigit():
                for value in _NUMBER_REPLACEMENTS:
                    changed = " ".join(tokens[:t] + [value] + tokens[t + 1 :]) + "\n"
                    yield "".join(lines[:k] + [changed] + lines[k + 1 :])


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.iterdir()))
def test_every_command_survives_mutated_samples(capsys, tmp_path, sample):
    path = tmp_path / sample
    for text in _mutants((SAMPLES / sample).read_text()):
        path.write_text(text)
        for command in cli._COMMANDS:
            start = time.perf_counter()
            code, _, err = run(capsys, [command, str(path)])
            assert code in (0, 1, 2), (command, text)
            assert "Traceback" not in err, (command, text)
            assert time.perf_counter() - start < 5, (command, text)


def _modules_after(code):
    """Which of dataclasses, inspect and json are imported after ``code`` in a fresh interpreter, and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    probe = "\nprint(*(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules), file=sys.stderr)"
    done = subprocess.run(
        [sys.executable, "-c", "import sys, polymat.cli\n" + code + probe],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split()), done.stdout


def test_cold_start_imports_neither_dataclasses_nor_json():
    assert _modules_after("") == (set(), "")
    sample = str(SAMPLES / "coverage5.rank-table")
    loaded, out = _modules_after(f"polymat.cli.main(['poly', {sample!r}])")
    assert "json" not in loaded
    assert out.startswith("interior 1 ")
    loaded, out = _modules_after(f"polymat.cli.main(['poly', '--machine', {sample!r}])")
    assert "json" in loaded
    assert json.loads(out)["command"] == "poly"
