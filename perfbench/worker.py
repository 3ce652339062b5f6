"""One benchmark pass, run in a fresh interpreter.

Reads a job from standard input: {"ops": [argv, ...], "trace": bool}.
Runs every op through ``polymat.cli.main`` in this one process and thread,
and prints one JSON result: each op's exit code, output and time, the
pass's wall time and peak resident memory, and with tracing the per-span
summary.  Each op names a different document, so no document is processed
twice in one interpreter.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
import traceback


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return {"code": code, "out": out.getvalue(), "err": err.getvalue(), "s": time.perf_counter() - start}


def peak_rss_mb() -> float:
    """This process's own high-water resident memory.

    ``ru_maxrss`` is not used: Linux carries it over from the parent
    across exec, so it would report the memory of run.py, which started it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    job = json.load(sys.stdin)
    cli = importlib.import_module("polymat.cli")
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    start = time.perf_counter()
    ops = [run_op(cli.main, argv) for argv in job["ops"]]
    wall = time.perf_counter() - start
    result = {"ops": ops, "wall_s": wall, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        result["spans"] = tracer.summary()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
