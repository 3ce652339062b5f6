"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph-verify --seed 1 --seconds 30 --trace 0

Each pass runs the workload's ops through ``polymat.cli.main`` in a fresh
interpreter (``worker.py``); passes repeat until ``--seconds`` is used up.
Outputs are checked against expected values computed here beforehand.
With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

import checks  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

# Passes needed for a median, and traced/untraced pairs needed to see
# whether counts repeat.
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PASS_TIMEOUT_S = 170

SETUP_CODE = "import polymat.cli\nimport time\nprint(time.monotonic())"


def find_program() -> bool:
    """Put src/ on sys.path; False, with a message, when the sources are missing."""
    if not (SRC / "polymat" / "cli.py").is_file():
        print(f"error: no polymat sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def time_setup() -> float:
    """Seconds from starting a fresh interpreter to finishing `import polymat.cli`."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=worker_env(), cwd=ROOT, capture_output=True, text=True, check=True, timeout=PASS_TIMEOUT_S,
    )
    return float(done.stdout) - start


def run_pass(argvs: list[list[str]], trace: bool) -> dict:
    """One pass over the ops in a fresh interpreter; see worker.py."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps({"ops": argvs, "trace": trace}),
        env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"benchmark worker failed:\n{done.stderr}")
    return json.loads(done.stdout)


def failures(ops, result) -> list[str]:
    out = []
    for op, got in zip(ops, result["ops"]):
        reason = checks.check(op, got["code"], got["out"])
        if reason is not None:
            out.append(f"{op.command} {op.doc.name}: {reason} {got['err'].strip()}")
    return out


# -- metrics -------------------------------------------------------------------


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    def per_pass(fn):
        return statistics.median(fn([op["s"] for op in p["ops"]]) for p in passes)

    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "max_op_s": per_pass(max),
        "op_p50_ms": 1000 * per_pass(statistics.median),
        "op_p90_ms": 1000 * per_pass(lambda s: statistics.quantiles(s, n=10, method="inclusive")[8]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }


def layer_stat(spans: dict, sources, statistic: str) -> float:
    names = [
        name for name in spans
        if any(name.startswith(s) if s.endswith(".") else name == s for s in sources)
    ]
    calls = sum(spans[n]["calls"] for n in names)
    if statistic == "hit_ratio":
        return sum(spans[n]["hits"] for n in names) / calls if calls else 0.0
    if statistic == "calls":
        return calls
    return sum(spans[n][statistic] for n in names)


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {}
    for name, _unit, _better, statistic, sources, _target, _workloads in spec.PER_LAYER:
        if statistic == "overhead":
            out[name] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
                p["wall_s"] for p in untraced
            )
        elif statistic in spec.EXACT_STATISTICS:
            # Checked to repeat exactly across traced passes.
            out[name] = layer_stat(traced[0]["spans"], sources, statistic)
        else:
            out[name] = statistics.median(layer_stat(p["spans"], sources, statistic) for p in traced)
    return out


def exact_counts(spans: dict) -> dict:
    """The span statistics two passes over the same inputs must repeat exactly."""
    return {
        name: (s["calls"], s["distinct"], s["hits"]) for name, s in spans.items() if s["calls"]
    }


# -- one run ---------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.build(workload, seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        directory = Path(tmp)
        for op in ops:
            (directory / op.doc.name).write_text(op.doc.text, encoding="utf-8")
        argvs = [op.argv(directory) for op in ops]
        setup, untraced, traced = [], [], []
        start = time.monotonic()
        while True:
            if not trace:
                # Spread over the run, not bunched at its start, so that one
                # slow moment of a shared host does not set the median.
                setup += [time_setup() for _ in range(spec.SETUP_PROBES_PER_PASS)]
            untraced.append(run_pass(argvs, False))
            if trace:
                traced.append(run_pass(argvs, True))
            rounds = len(untraced)
            elapsed = time.monotonic() - start
            enough = rounds >= (MIN_TRACED_PAIRS if trace else MIN_PASSES)
            if enough and elapsed * (rounds + 1) / rounds > seconds:
                break
    problems = [reason for p in untraced + traced for reason in failures(ops, p)]
    failed = len(problems)
    if trace:
        counts = [exact_counts(p["spans"]) for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("span counts differ between traced passes of the same inputs")
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end(untraced, setup)
    return {
        "ops": len(ops),
        "passes": len(untraced) + len(traced),
        "attempted": len(ops) * (len(untraced) + len(traced)),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
    }


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {m[0]: m[1] for m in spec.PER_LAYER}
    return {m[0]: m[1] for m in spec.END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not find_program():
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    unit = units(bool(args.trace))
    print(
        f"{args.workload} seed {args.seed}: {result['passes']} passes of {result['ops']} ops, "
        f"error_rate {result['failed'] / result['attempted']:g} "
        f"({result['failed']} of {result['attempted']} ops failed)"
    )
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {unit[name]}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": unit[n]} for n, v in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
