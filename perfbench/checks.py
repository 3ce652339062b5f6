"""Expected outputs by independent routes, and the output checks.

Everything here runs in the benchmark's own process, outside the timed
passes.  The routes share no code with the command the pass runs:

- graph polynomials come from ``networkx.tutte_polynomial``;
- rank-table and hypergraph polynomials come from the slice recursion,
  while the command runs the direct route;
- rank tables of graphs, matroids and hypergraphs are computed here from
  the document's own data;
- listed bases are checked against every subset constraint with numpy, and
  their number against the expected polynomial at 1;
- ``structure`` output is rebuilt here from the definitions;
- ``verify`` must exit 0 and report N/N checks passed.
"""

from __future__ import annotations

import functools
import os
import re

# The benchmark stays on one thread; numpy's BLAS would start one per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def trimmed(coeffs) -> tuple[int, ...]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def subset_text(mask: int) -> str:
    els = [str(t + 1) for t in range(mask.bit_length()) if mask >> t & 1]
    return ",".join(els) if els else "empty"


# -- rank tables of the frontends ------------------------------------------


def _components(size: int, groups) -> int:
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    count = size
    for group in groups:
        root = find(group[0])
        for other in group[1:]:
            r = find(other)
            if r != root:
                parent[r] = root
                count -= 1
    return count


def graph_rank_values(vertex_count: int, edges) -> tuple[int, ...]:
    """Cycle-matroid rank of every edge subset: vertices minus components."""
    m = len(edges)
    return tuple(
        vertex_count
        - _components(vertex_count + 1, [edges[i] for i in range(m) if mask >> i & 1])
        + 1
        for mask in range(1 << m)
    )


def hypergraph_rank_values(vertex_count: int, hyperedges) -> tuple[int, ...]:
    """|V| minus the components left when the chosen hyperedges join their vertices."""
    m = len(hyperedges)
    return tuple(
        vertex_count - _components(vertex_count, [hyperedges[i] for i in range(m) if mask >> i & 1])
        for mask in range(1 << m)
    )


# -- polynomials --------------------------------------------------------------


def tutte_polynomials(vertex_count: int, edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(interior, exterior) of a connected graph from networkx's Tutte polynomial.

    I(x) = x^d T(1/x, 1) and X(y) = y^(m-d) T(1, 1/y), with d = |V| - 1.
    """
    return _tutte_polynomials(vertex_count, tuple(sorted(tuple(sorted(e)) for e in edges)))


@functools.lru_cache(maxsize=None)
def _tutte_polynomials(vertex_count: int, edges):
    # networkx spends ~30 ms per graph in sympy; tiny random graphs repeat.
    import networkx as nx
    import sympy

    G = nx.MultiGraph()
    G.add_nodes_from(range(1, vertex_count + 1))
    G.add_edges_from(edges)
    x, y = sympy.Symbol("x"), sympy.Symbol("y")
    terms = sympy.Poly(nx.tutte_polynomial(G), x, y).terms()
    d = vertex_count - 1
    nullity = len(edges) - d
    at_y1 = [0] * (d + 1)
    at_x1 = [0] * (nullity + 1)
    for (i, j), c in terms:
        at_y1[i] += int(c)
        at_x1[j] += int(c)
    return trimmed(reversed(at_y1)), trimmed(reversed(at_x1))


def slice_polynomials(n: int, values) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(interior, exterior) by polymat's slice recursion."""
    from polymat.activity import exterior_by_slices, interior_by_slices
    from polymat.core import Polymatroid, RankTable

    P = Polymatroid(RankTable(n, values, max_n=n))
    return interior_by_slices(P).coeffs, exterior_by_slices(P).coeffs


# -- expected text ------------------------------------------------------------


def structure_lines(n: int, values) -> list[str]:
    """The exact `polymat structure` text, rebuilt from the definitions."""
    full = (1 << n) - 1
    rank = values[full]
    singles = [values[1 << t] for t in range(n)]
    deficiency = [sum(singles[t] for t in range(n) if m >> t & 1) - values[m] for m in range(full + 1)]
    g = deficiency[full]
    drops = {k: min(n - m.bit_count() for m in range(full + 1) if rank - values[m] >= k) for k in range(rank + 1)}
    defs = {k: min(m.bit_count() for m in range(full + 1) if deficiency[m] >= k) for k in range(g + 1)}
    flats = [
        m for m in range(full + 1)
        if all(values[m | 1 << t] > values[m] for t in range(n) if not m >> t & 1)
    ]
    lines = [
        f"ground-set {n}",
        f"full-rank {rank}",
        f"full-deficiency {g}",
        "rank-drop-thresholds " + " ".join(f"{k}:{v}" for k, v in drops.items()),
        "deficiency-thresholds " + " ".join(f"{k}:{v}" for k, v in defs.items()),
        f"flats {len(flats)}",
    ]
    lines += [f"flat {subset_text(m)}" for m in flats]
    hyperplanes = [m for m in flats if values[m] == rank - 1]
    for j in range(n + 1):
        group = [m for m in hyperplanes if n - m.bit_count() == j]
        if group:
            members = " ".join(subset_text(m) for m in group)
            lines.append(f"hyperplanes complement-size {j} count {len(group)}: {members}")
    circuits = [
        m for m in range(1, full + 1)
        if deficiency[m] == 1
        and all(deficiency[m ^ 1 << t] == 0 for t in range(n) if m >> t & 1)
    ]
    for j in range(n + 1):
        group = [m for m in circuits if m.bit_count() == j]
        if group:
            members = " ".join(subset_text(m) for m in group)
            lines.append(f"circuits size {j} count {len(group)}: {members}")
    return lines


# -- checks -------------------------------------------------------------------


def _check_bases(lines, n, values, count) -> str | None:
    if lines[:1] != [f"bases {count}"] or len(lines) != count + 1:
        return f"expected {count} bases, got header {lines[:1]} and {len(lines) - 1} rows"
    vectors = [tuple(map(int, line.split())) for line in lines[1:]]
    if vectors != sorted(set(vectors)) or any(len(v) != n for v in vectors):
        return "bases are not distinct vectors of length n in lexicographic order"
    vecs = np.array(vectors, dtype=np.int64)
    masks = np.arange(1 << n)
    bits = (masks[:, None] >> np.arange(n)[None, :]) & 1
    sums = vecs @ bits.T
    ranks = np.array(values, dtype=np.int64)
    if (vecs < 0).any() or (sums > ranks[None, :]).any() or (sums[:, -1] != ranks[-1]).any():
        return "a listed vector is not a basis"
    return None


def _check_coeffs(lines, polys) -> str | None:
    if lines[-1:] != ["coeffs ok"]:
        return f"coeffs did not pass: {lines[-1:]}"
    for line in lines:
        parts = line.split()
        if len(parts) >= 6 and parts[1].startswith("i=") and parts[4] == "enumerated":
            name, i, got = parts[0], int(parts[1][2:]), int(parts[5])
            coeffs = polys[0] if name == "interior" else polys[1]
            want = coeffs[i] if i < len(coeffs) else 0
            if got != want:
                return f"{name} coefficient {i}: enumerated {got}, expected {want}"
    return None


def check(op, code, out: str) -> str | None:
    """None when the op's output is right, else what is wrong."""
    try:
        return _check(op, code, out)
    except ValueError as exc:
        return f"unreadable output ({exc})"


def _check(op, code, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    doc = op.doc
    if op.command == "validate":
        return None if lines == doc.validate_lines() else f"validate printed {lines}"
    if op.command == "bases":
        return _check_bases(lines, doc.n, doc.values, sum(op.polys[1]))
    if op.command == "poly":
        want = [
            "interior " + " ".join(map(str, op.polys[0])),
            "exterior " + " ".join(map(str, op.polys[1])),
        ]
        got = [line for line in lines if not line.startswith(("interior-pretty", "exterior-pretty"))]
        return None if got == want else f"poly printed {got}, expected {want}"
    if op.command == "structure":
        want = structure_lines(doc.n, doc.values)
        return None if lines == want else "structure output differs from the definitions"
    if op.command == "coeffs":
        return _check_coeffs(lines, op.polys)
    if op.command == "verify":
        summary = re.fullmatch(r"verify ([1-9][0-9]*)/\1 checks passed", lines[-1]) if lines else None
        passed = summary is not None and not any(line.startswith("FAIL") for line in lines)
        return None if passed else f"verify reported {lines[-1:]}"
    raise KeyError(f"no check for command {op.command}")
