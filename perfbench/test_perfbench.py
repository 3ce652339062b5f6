"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

Runs the smallest op of each (command, document kind) pair of every
workload twice with tracing, and checks that outputs are right, that the
exact counts repeat, and that every per-layer metric records calls on the
workloads it is meant for: a layer that silently goes unwrapped fails here
instead of reading as zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


def smallest_ops(workload: str) -> list:
    best = {}
    for op in workloads.build(workload, 0):
        key = (op.command, op.doc.kind)
        if key not in best or op.doc.n < best[key].doc.n:
            best[key] = op
    return list(best.values())


@pytest.fixture(scope="module")
def traced_passes():
    out = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for op_list in map(smallest_ops, spec.WORKLOADS):
            for op in op_list:
                (Path(tmp) / op.doc.name).write_text(op.doc.text, encoding="utf-8")
        for workload in spec.WORKLOADS:
            ops = smallest_ops(workload)
            argvs = [op.argv(Path(tmp)) for op in ops]
            out[workload] = ops, [run.run_pass(argvs, True) for _ in range(2)]
    return out


def test_outputs_are_correct(traced_passes):
    for ops, passes in traced_passes.values():
        for result in passes:
            assert run.failures(ops, result) == []


def test_counts_repeat_exactly(traced_passes):
    for _ops, (first, second) in traced_passes.values():
        assert run.exact_counts(first["spans"]) == run.exact_counts(second["spans"])


def test_every_layer_metric_records_calls(traced_passes):
    missing = []
    for name, _unit, _better, statistic, sources, _target, names in spec.PER_LAYER:
        if statistic == "overhead":
            continue
        for workload in names:
            spans = traced_passes[workload][1][0]["spans"]
            if run.layer_stat(spans, sources, "calls") == 0:
                missing.append(f"{name} on {workload}")
    assert missing == []


REBIND_PROBE = """
import inspect, polymat.cli, tracing
tracing.Tracer().install()
stale = []
for module in tracing.polymat_modules():
    for attr, obj in vars(module).items():
        layer = getattr(obj, "__module__", "").rpartition(".")[2]
        if inspect.isfunction(obj) and layer in tracing.LAYER_MODULES and not obj.__name__.startswith("_"):
            if not hasattr(obj, "__wrapped__"):
                stale.append(module.__name__ + "." + attr)
print(stale)
"""


def test_every_reference_is_rebound():
    done = subprocess.run(
        [sys.executable, "-c", REBIND_PROBE],
        env={**run.worker_env(), "PYTHONPATH": f"{run.SRC}:{HERE}"},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_result_line_has_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "small-corpus", "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m[0]: m[1] for m in spec.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_spec():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.benchmark_json()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-poly", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
