"""Run every workload, untraced and traced, and print every metric.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Writes BENCHMARK.json from spec.py, then for each workload prints the
end-to-end metrics (untraced run) and the per-layer metrics (traced run),
each with its unit, the error rate, and the line count of src/ as context.
"""

from __future__ import annotations

import argparse
import sys

import run
import spec


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (run.SRC / "polymat").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    args = parser.parse_args(argv)
    if not run.find_program():
        return 2
    print(f"wrote {spec.write_benchmark_json(run.ROOT)}")
    print(f"src/polymat lines: {src_lines()} (context, not gated)")
    status = 0
    for workload in spec.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(workload, args.seed, args.seconds, trace)
            unit = run.units(trace)
            print(
                f"\n{workload} ({'traced' if trace else 'untraced'}, seed {args.seed}): "
                f"{result['passes']} passes of {result['ops']} ops, "
                f"error_rate {result['failed'] / result['attempted']:g}"
            )
            for problem in result["problems"][:20]:
                print(f"  FAILED {problem}")
            for name, value in result["metrics"].items():
                print(f"  {name:48} {value:14.6g} {unit[name]}")
            if result["problems"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
