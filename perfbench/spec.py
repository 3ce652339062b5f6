"""What the benchmark measures: workloads, metrics, bounds and the layer map.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/report.py``), so the runner and the
committed definition cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 40

# Fresh interpreters started before each untraced pass only to time
# `import polymat.cli`.
SETUP_PROBES_PER_PASS = 3

WORKLOADS = {
    "graph-verify": "polymat verify on K4, K3,3, W5 and K5: frontends, Tutte oracle, bonds and verify's repeated recomputation",
    "table-poly": "direct poly and bases on n=8-9 coverage tables: basis enumeration and activity probes, one pair per table",
    "small-corpus": "a few hundred tiny documents of all four kinds through all six subcommands: parsing, CLI and structure",
}

# (name, unit, better, bound).  A bound is the share of the parent's median
# by which a metric may worsen.  Times get the largest bound allowed: on the
# shared 2-vCPU host where they were set, CPU speed drifts by up to 40 % over
# seconds to minutes, and ten runs with different seeds spread by 0.08-0.24
# (interquartile range over median; README.md).  Memory does not drift.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("max_op_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

DERIVED = ("dual", "grounded", "delete", "contract", "slice_at", "relabel")

# Per-layer metrics of the traced run: (name, unit, better, statistic, span
# names it aggregates, end-to-end metric it should move, workloads).  A span
# name ending in "." stands for every wrapped function of that module.
_P = "core.Polymatroid."
PER_LAYER = [
    ("core.Polymatroid.init.calls", "count", "lower", "calls", (_P + "init",), "wall_s", ("graph-verify",)),
    ("core.Polymatroid.init.distinct_tables", "count", "lower", "distinct", (_P + "init",), "wall_s", ("graph-verify",)),
    ("core.Polymatroid.init.self_s", "s", "lower", "self_s", (_P + "init",), "wall_s", ("graph-verify",)),
    ("core.derived.calls", "count", "lower", "calls", tuple(_P + d for d in DERIVED), "wall_s", ("graph-verify",)),
    ("core.derived.self_s", "s", "lower", "self_s", tuple(_P + d for d in DERIVED), "wall_s", ("graph-verify",)),
    ("core.Polymatroid.bases.calls", "count", "lower", "calls", (_P + "bases",), "wall_s", ("table-poly",)),
    ("core.Polymatroid.bases.self_s", "s", "lower", "self_s", (_P + "bases",), "wall_s", ("table-poly",)),
    ("core.Polymatroid.is_member.calls", "count", "lower", "calls", (_P + "is_member",), "wall_s", ("table-poly", "graph-verify")),
    ("core.Polymatroid.is_member.hit_ratio", "ratio", "higher", "hit_ratio", (_P + "is_member",), "wall_s", ("table-poly", "graph-verify")),
    ("core.Polymatroid.is_member.self_s", "s", "lower", "self_s", (_P + "is_member",), "wall_s", ("table-poly", "graph-verify")),
    ("activity.polynomial_pair.calls", "count", "lower", "calls", ("activity.polynomial_pair",), "wall_s", ("graph-verify", "table-poly")),
    ("activity.polynomial_pair.distinct_tables", "count", "lower", "distinct", ("activity.polynomial_pair",), "wall_s", ("graph-verify", "table-poly")),
    ("activity.polynomial_pair.self_s", "s", "lower", "self_s", ("activity.polynomial_pair",), "wall_s", ("graph-verify", "table-poly")),
    ("activity.exterior_by_slices.calls", "count", "lower", "calls", ("activity.exterior_by_slices",), "wall_s", ("graph-verify",)),
    ("activity.exterior_by_slices.distinct_tables", "count", "lower", "distinct", ("activity.exterior_by_slices",), "wall_s", ("graph-verify",)),
    ("activity.exterior_by_slices.self_s", "s", "lower", "self_s", ("activity.exterior_by_slices",), "wall_s", ("graph-verify",)),
    ("matroids.Matroid.init.self_s", "s", "lower", "self_s", ("matroids.Matroid.init",), "max_op_s", ("graph-verify",)),
    ("matroids.Matroid.to_polymatroid.self_s", "s", "lower", "self_s", ("matroids.Matroid.to_polymatroid",), "max_op_s", ("graph-verify",)),
    ("matroids.tutte_polynomial.self_s", "s", "lower", "self_s", ("matroids.tutte_polynomial",), "wall_s", ("graph-verify",)),
    ("graphs.Graph.spanning_tree_masks.self_s", "s", "lower", "self_s", ("graphs.Graph.spanning_tree_masks",), "wall_s", ("graph-verify",)),
    ("graphs.Graph.bonds.calls", "count", "lower", "calls", ("graphs.Graph.bonds",), "wall_s", ("graph-verify",)),
    ("graphs.Graph.bonds.self_s", "s", "lower", "self_s", ("graphs.Graph.bonds",), "wall_s", ("graph-verify",)),
    ("hypergraphs.Hypergraph.to_polymatroid.self_s", "s", "lower", "self_s", ("hypergraphs.Hypergraph.to_polymatroid",), "op_p90_ms", ("small-corpus",)),
    ("hypergraphs.Hypergraph.tree_degree_vectors.self_s", "s", "lower", "self_s", ("hypergraphs.Hypergraph.tree_degree_vectors",), "op_p90_ms", ("small-corpus",)),
    ("hypergraphs.structure_report.self_s", "s", "lower", "self_s", ("hypergraphs.structure_report",), "op_p90_ms", ("small-corpus",)),
    ("structure.calls", "count", "lower", "calls", ("structure.",), "op_p50_ms", ("small-corpus",)),
    ("structure.self_s", "s", "lower", "self_s", ("structure.",), "op_p50_ms", ("small-corpus",)),
    ("structure.binomial_prefix_check.calls", "count", "lower", "calls", ("structure.binomial_prefix_check",), "op_p50_ms", ("small-corpus",)),
    ("documents.parse_document.calls", "count", "lower", "calls", ("documents.parse_document",), "op_p50_ms", ("small-corpus",)),
    ("documents.parse_document.self_s", "s", "lower", "self_s", ("documents.parse_document",), "op_p50_ms", ("small-corpus",)),
    ("cli.main.self_s", "s", "lower", "self_s", ("cli.main",), "op_p50_ms", ("small-corpus",)),
    ("verify.polymatroid.self_s", "s", "lower", "self_s", ("verify.verify_polymatroid",), "wall_s", ("graph-verify",)),
    ("verify.matroid.self_s", "s", "lower", "self_s", ("verify.verify_matroid",), "wall_s", ("graph-verify",)),
    ("verify.graph.self_s", "s", "lower", "self_s", ("verify.verify_graph",), "wall_s", ("graph-verify",)),
    ("verify.hypergraph.self_s", "s", "lower", "self_s", ("verify.verify_hypergraph",), "wall_s", ("small-corpus",)),
    ("trace.overhead_s", "s", "lower", "overhead", (), "wall_s", tuple(WORKLOADS)),
]

# Per-layer statistics that two traced passes of the same inputs must repeat
# exactly; later changes may cite them as counts.
EXACT_STATISTICS = ("calls", "distinct", "hit_ratio")


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": m[0], "unit": m[1], "better": m[2]} for m in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path
