"""Workload documents and op lists, generated from the seed.

An op is one `polymat <command> [flags] <document>` call.  Every op of a
pass names its own document, so a pass never processes a document twice.

`graph-verify` and `table-poly` run fixed inputs whose
ground set the seed permutes: edge order for graphs, element labels for
rank tables.  The polynomials do not depend on that order, so the work per
pass stays nearly the same across seeds while the documents differ.
`small-corpus` draws every document afresh from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import checks

@dataclass
class Document:
    name: str
    kind: str
    n: int
    values: tuple[int, ...]  # rank of every subset of the ground set, by mask
    text: str
    summary: str = ""  # the frontend's line of `validate` output
    graph: tuple | None = None  # (vertex count, edges) when networkx can check it

    def validate_lines(self) -> list[str]:
        lines = [f"valid {self.kind}"]
        if self.summary:
            lines.append(self.summary)
        return lines + [f"ground-set {self.n} full-rank {self.values[-1]}"]


@dataclass
class Op:
    command: str
    flags: tuple[str, ...]
    doc: Document
    polys: tuple | None = None  # expected (interior, exterior) when the check needs them

    def argv(self, directory: Path) -> list[str]:
        return [self.command, *self.flags, str(directory / self.doc.name)]


# -- documents ------------------------------------------------------------------


def rank_table_document(name: str, n: int, values) -> Document:
    lines = ["kind rank-table", f"n {n}"]
    lines += [f"rank {checks.subset_text(m)} {v}" for m, v in enumerate(values)]
    return Document(name, "rank-table", n, tuple(values), "\n".join(lines) + "\n")


def graph_document(name: str, vertex_count: int, edges) -> Document:
    lines = ["kind graph", f"vertices {vertex_count}"] + [f"edge {u} {v}" for u, v in edges]
    return Document(
        name,
        "graph",
        len(edges),
        checks.graph_rank_values(vertex_count, edges),
        "\n".join(lines) + "\n",
        summary=f"vertices {vertex_count} edges {len(edges)} connected",
        graph=(vertex_count, tuple(edges)),
    )


def matroid_document(name: str, vertex_count: int, edges) -> Document:
    """The cycle matroid of a graph, given by its spanning trees."""
    values = checks.graph_rank_values(vertex_count, edges)
    rank = values[-1]
    trees = [m for m, v in enumerate(values) if v == rank == m.bit_count()]
    lines = ["kind matroid", f"n {len(edges)}"] + [f"base {checks.subset_text(m)}" for m in trees]
    return Document(
        name,
        "matroid",
        len(edges),
        values,
        "\n".join(lines) + "\n",
        summary=f"elements {len(edges)} rank {rank} bases {len(trees)}",
        graph=(vertex_count, tuple(edges)),
    )


def hypergraph_document(name: str, vertex_count: int, hyperedges) -> Document:
    names = "abcdefgh"[:vertex_count]
    lines = ["kind hypergraph", "vertices " + " ".join(names)]
    lines += ["hedge " + " ".join(names[v] for v in edge) for edge in hyperedges]
    return Document(
        name,
        "hypergraph",
        len(hyperedges),
        checks.hypergraph_rank_values(vertex_count, hyperedges),
        "\n".join(lines) + "\n",
        summary=f"vertices {vertex_count} hyperedges {len(hyperedges)} connected",
    )


def coverage_values(n: int, universe: int, k: int, gen_seed: int) -> tuple[int, ...]:
    """Size of the union of n random k-subsets of range(universe), per subset."""
    rng = random.Random(gen_seed)
    covers = []
    for _ in range(n):
        bits = 0
        for x in rng.sample(range(universe), k):
            bits |= 1 << x
        covers.append(bits)
    union = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        union[m] = union[m ^ low] | covers[low.bit_length() - 1]
    return tuple(u.bit_count() for u in union)


def relabeled(n: int, values, rng: random.Random) -> tuple[int, ...]:
    """The same rank function with the elements renamed by a random permutation."""
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [0] * (1 << n)
    for m, v in enumerate(values):
        image = 0
        for t in range(n):
            if m >> t & 1:
                image |= 1 << sigma[t]
        out[image] = v
    return tuple(out)


def _permuted_edges(edges, rng: random.Random):
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    return edges


# -- workloads ------------------------------------------------------------------


def _complete(k):
    return k, [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def _wheel(rim):
    spokes = [(1, i) for i in range(2, rim + 2)]
    return rim + 1, spokes + [(i, i + 1) for i in range(2, rim + 1)] + [(rim + 1, 2)]


GRAPH_LADDER = {
    "K4": _complete(4),
    "K33": (6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]),
    "W5": _wheel(5),
    "K5": _complete(5),
}

# (command, coverage parameters (n, universe, k, generator seed)); the
# parameters pick tables with 1,115 to 2,133 bases.
TABLE_POLY = [
    ("poly", (8, 8, 3, 1)),
    ("poly", (9, 8, 3, 3)),
    ("bases", (8, 8, 3, 5)),
    ("bases", (9, 8, 3, 4)),
]


def graph_verify(rng: random.Random) -> list[Op]:
    return [
        Op("verify", (), graph_document(f"{name}.graph", nv, _permuted_edges(edges, rng)))
        for name, (nv, edges) in GRAPH_LADDER.items()
    ]


def table_poly(rng: random.Random) -> list[Op]:
    ops = []
    for i, (command, params) in enumerate(TABLE_POLY):
        n = params[0]
        doc = rank_table_document(f"t{i}.rank-table", n, relabeled(n, coverage_values(*params), rng))
        ops.append(Op(command, (), doc, checks.slice_polynomials(n, doc.values)))
    return ops


# small-corpus: every kind through every command, this many documents each.
# Sizes follow a fixed schedule and only the contents are drawn from the
# seed, so the mix of cheap and costly documents is the same for every seed.
CORPUS_COMMANDS = ("validate", "bases", "poly", "structure", "coeffs", "verify")
CORPUS_PER_PAIR = 24
RANK_TABLE_SIZES = (2, 3, 4, 5)
# (vertices, edges).  Two-vertex graphs are left out: `polymat verify`
# fails their cut-threshold-bound check, which needs a second rank-drop
# threshold that a rank-1 cycle matroid does not have.
GRAPH_SHAPES = ((3, 2), (3, 3), (4, 3), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6))
# (vertices, hyperedges)
HYPERGRAPH_SHAPES = ((2, 2), (3, 2), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5))


def _tiny_rank_table(rng: random.Random, n: int):
    """Truncated weighted coverage; singleton ranks stay at most 3."""
    weights = [rng.randint(1, 3) for _ in range(rng.randint(1, 6))]
    covers = []
    for _ in range(n):
        budget, chosen = 3, set()
        for x in rng.sample(range(len(weights)), len(weights)):
            if weights[x] <= budget and rng.random() < 0.5:
                chosen.add(x)
                budget -= weights[x]
        covers.append(chosen)
    values = []
    for m in range(1 << n):
        covered = set().union(*(covers[t] for t in range(n) if m >> t & 1))
        values.append(sum(weights[x] for x in covered))
    cap = rng.randint(1, values[-1]) if values[-1] and rng.random() < 0.5 else None
    return n, [min(v, cap) if cap else v for v in values]


def _tiny_graph(rng: random.Random, nv: int, ne: int):
    """Connected simple graph: a random spanning tree plus random extra edges."""
    edges = {tuple(sorted((v, rng.randint(1, v - 1)))) for v in range(2, nv + 1)}
    pairs = [(u, v) for u in range(1, nv + 1) for v in range(u + 1, nv + 1) if (u, v) not in edges]
    edges = sorted(edges) + rng.sample(pairs, ne - len(edges))
    return nv, _permuted_edges(edges, rng)


def _tiny_hypergraph(rng: random.Random, nv: int, m: int):
    """Connected hypergraph whose hyperedges have 1 to 3 vertices."""
    while True:
        edges = [tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 3))))) for _ in range(m)]
        if checks.hypergraph_rank_values(nv, edges)[-1] == nv - 1:
            return nv, edges


def small_corpus(rng: random.Random) -> list[Op]:
    ops = []
    for command in CORPUS_COMMANDS:
        for i in range(CORPUS_PER_PAIR):
            graph = GRAPH_SHAPES[i % len(GRAPH_SHAPES)]
            docs = [
                rank_table_document(f"c{len(ops)}.rank-table", *_tiny_rank_table(rng, RANK_TABLE_SIZES[i % 4])),
                graph_document(f"c{len(ops) + 1}.graph", *_tiny_graph(rng, *graph)),
                matroid_document(f"c{len(ops) + 2}.matroid", *_tiny_graph(rng, *graph)),
                hypergraph_document(
                    f"c{len(ops) + 3}.hypergraph",
                    *_tiny_hypergraph(rng, *HYPERGRAPH_SHAPES[i % len(HYPERGRAPH_SHAPES)]),
                ),
            ]
            ops += [Op(command, (), doc) for doc in docs]
    rng.shuffle(ops)
    for op in ops:
        if op.command in ("bases", "poly", "coeffs"):
            if op.doc.graph is not None:
                op.polys = checks.tutte_polynomials(*op.doc.graph)
            else:
                op.polys = checks.slice_polynomials(op.doc.n, op.doc.values)
    return ops


GENERATORS = {
    "graph-verify": graph_verify,
    "table-poly": table_poly,
    "small-corpus": small_corpus,
}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's ops with their expected values; the same seed gives the same ops."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"))
