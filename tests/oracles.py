"""Independent brute-force reference implementations.

Everything here recomputes library quantities from first principles
with deliberately different algorithms (plain product scans, DFS
reachability, deletion-contraction) so tests compare two genuinely
separate routes.  None of these functions import from the library
beyond plain data (rank tables are consumed through their ``values``,
indexed by mask, and their ``rank_of`` method, or as rank lists indexed
by mask; the hypertree listing reads a graph's spanning trees, which
``test_graphs`` checks against ``brute_spanning_trees``).  The one
exception is ``tuple_keyed_rank_table``, a reference for the rank-table
parser's keying and ordering, which shares the library's tokenizer, subset
and integer readers and error type so that errors can be compared exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict


# -- lattice points ------------------------------------------------------


def brute_bases(table) -> set[tuple[int, ...]]:
    """All maximal lattice points by scanning the full coordinate box."""
    n = table.n
    singles = [table.values[1 << t] for t in range(n)]
    full = table.values[-1]
    out = set()
    for vec in itertools.product(*(range(s + 1) for s in singles)):
        if sum(vec) != full:
            continue
        if all(
            sum(vec[t] for t in range(n) if m >> t & 1) <= table.values[m]
            for m in range(1, 1 << n)
        ):
            out.add(vec)
    return out


def leaf_checked_bases(table) -> list[tuple[int, ...]]:
    """All bases in lexicographic order, by a depth-first search.

    Each coordinate is bounded by its singleton rank and by the rank of
    the prefix, and the remaining total must stay reachable; every leaf
    then gets a full scan of the subset inequalities.
    """
    n = table.n
    ranks = table.values
    full = ranks[-1]
    low = [full - ranks[((1 << n) - 1) ^ (1 << t)] for t in range(n)]
    high = [ranks[1 << t] for t in range(n)]
    room = [sum(high[t:]) for t in range(n + 1)]
    vec = [0] * n
    out = []

    def is_basis() -> bool:
        sums = [0] * (1 << n)
        for m in range(1, 1 << n):
            lowest = m & -m
            sums[m] = sums[m ^ lowest] + vec[lowest.bit_length() - 1]
            if sums[m] > ranks[m]:
                return False
        return sums[-1] == full

    def extend(t: int, total: int) -> None:
        if t == n:
            if is_basis():
                out.append(tuple(vec))
            return
        need = full - total
        start = max(low[t], need - room[t + 1], 0)
        stop = min(high[t], ranks[(1 << (t + 1)) - 1] - total, need)
        for v in range(start, stop + 1):
            vec[t] = v
            extend(t + 1, total + v)

    extend(0, 0)
    return out


def minor_ranks(table, t, j) -> dict[tuple[int, ...], tuple[int, int, int]]:
    """Deletion, contraction and slice ranks of element t, straight from their definitions.

    Maps each subset I of the other elements, renumbered downward past t
    as ``slice_at`` numbers them, to (f(I), f(I + t) - f({t}),
    min(f(I), f(I + t) - j)).  Ranks are read by element tuple.
    """
    others = [e for e in range(1, table.n + 1) if e != t]
    ft = table.rank_of((t,))
    out = {}
    for size in range(len(others) + 1):
        for subset in itertools.combinations(others, size):
            without = table.rank_of(subset)
            within = table.rank_of(subset + (t,))
            renumbered = tuple(e - (e > t) for e in subset)
            out[renumbered] = (without, within - ft, min(without, within - j))
    return out


def brute_polynomial_counts(points, n) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(interior, exterior) coefficient counts of an explicit point set.

    Index i of a point a is internally active when no a - e_i + e_j
    (j < i) is in the set, externally active when no a + e_i - e_j is.
    Returned untrimmed with n + 1 slots each.
    """
    pts = set(map(tuple, points))
    interior = [0] * (n + 1)
    exterior = [0] * (n + 1)
    for a in pts:
        internally_active = 0
        externally_active = 0
        for i in range(1, n + 1):
            if all(
                tuple(a[t] - (t == i - 1) + (t == j - 1) for t in range(n)) not in pts
                for j in range(1, i)
            ):
                internally_active += 1
            if all(
                tuple(a[t] + (t == i - 1) - (t == j - 1) for t in range(n)) not in pts
                for j in range(1, i)
            ):
                externally_active += 1
        interior[n - internally_active] += 1
        exterior[n - externally_active] += 1
    return tuple(interior), tuple(exterior)


# -- graphs --------------------------------------------------------------


def reachable(edges, start) -> set:
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def component_count(vertex_count, edges) -> int:
    remaining = set(range(1, vertex_count + 1))
    parts = 0
    while remaining:
        start = next(iter(remaining))
        remaining -= reachable(edges, start) | {start}
        parts += 1
    return parts


def brute_spanning_trees(vertex_count, edges) -> set[frozenset[int]]:
    """Edge-index sets of spanning trees, by scanning all (V-1)-subsets."""
    out = set()
    if vertex_count < 1:
        return out
    for combo in itertools.combinations(range(len(edges)), vertex_count - 1):
        chosen = [edges[i] for i in combo]
        if len(reachable(chosen, 1)) == vertex_count:
            out.add(frozenset(combo))
    if vertex_count == 1:
        out.add(frozenset())
    return out


def brute_bonds(vertex_count, edges) -> set[frozenset[int]]:
    """Minimal disconnecting edge-index sets, by scanning all subsets."""
    m = len(edges)
    base = component_count(vertex_count, edges)
    out = set()
    for mask in range(1, 1 << m):
        kept = [edges[i] for i in range(m) if not mask >> i & 1]
        if component_count(vertex_count, kept) <= base:
            continue
        minimal = True
        for i in range(m):
            if not mask >> i & 1:
                continue
            back = kept + [edges[i]]
            if component_count(vertex_count, back) > base:
                minimal = False
                break
        if minimal:
            out.add(frozenset(i for i in range(m) if mask >> i & 1))
    return out


def brute_girth(vertex_count, edges):
    """Size of the smallest edge set that is a single cycle, if any."""
    m = len(edges)
    for r in range(1, m + 1):
        for combo in itertools.combinations(range(m), r):
            degree = defaultdict(int)
            for i in combo:
                a, b = edges[i]
                degree[a] += 1
                degree[b] += 1
            if any(d != 2 for d in degree.values()):
                continue
            chosen = [edges[i] for i in combo]
            touched = set(degree)
            if reachable(chosen, next(iter(touched))) >= touched:
                return r
    return None


def dc_tutte(edges) -> dict[tuple[int, int], int]:
    """Tutte polynomial of a connected multigraph by deletion-contraction.

    Returns {(i, j): coefficient} for x^i y^j.  Loops contribute a factor
    y, bridges a factor x, and every other edge splits into deletion
    plus contraction.
    """
    if not edges:
        return {(0, 0): 1}
    (u, v) = edges[0]
    rest = list(edges[1:])
    if u == v:
        return {(i, j + 1): c for (i, j), c in dc_tutte(rest).items()}
    merged = [(u if a == v else a, u if b == v else b) for a, b in rest]
    if v not in reachable(rest, u):
        return {(i + 1, j): c for (i, j), c in dc_tutte(merged).items()}
    out = dict(dc_tutte(rest))
    for key, c in dc_tutte(merged).items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


# -- matroids --------------------------------------------------------------


def per_mask_tutte(M) -> tuple[tuple[int, ...], ...]:
    """Tutte grid of a matroid by the corank-nullity expansion, one mask at a time.

    Every mask's term (x - 1)^corank (y - 1)^nullity is expanded on its
    own; ranks are read through ``M.subset_rank``.
    """
    d = M.rank
    width = M.n - d
    grid = [[0] * (width + 1) for _ in range(d + 1)]
    for m in range(1 << M.n):
        r = M.subset_rank(m)
        a = d - r
        b = bin(m).count("1") - r
        for k in range(a + 1):
            ca = math.comb(a, k) * (-1) ** (a - k)
            for l in range(b + 1):
                grid[k][l] += ca * math.comb(b, l) * (-1) ** (b - l)
    return tuple(tuple(row) for row in grid)


def closure_hyperplanes(n, ranks) -> frozenset[int]:
    """Masks of rank r - 1 that equal their closure, by scanning every mask.

    ``ranks`` is a rank list indexed by mask; the closure of a mask adds
    every element that keeps its rank.
    """
    top = ranks[-1]
    return frozenset(
        m
        for m in range(1 << n)
        if ranks[m] == top - 1
        and all(m >> t & 1 or ranks[m | 1 << t] > ranks[m] for t in range(n))
    )


def minimal_circuits(n, ranks) -> frozenset[int]:
    """Dependent masks all of whose one-smaller subsets are independent."""

    def independent(m):
        return ranks[m] == bin(m).count("1")

    return frozenset(
        m
        for m in range(1, 1 << n)
        if not independent(m)
        and all(independent(m & ~(1 << t)) for t in range(n) if m >> t & 1)
    )


def per_mask_thresholds(levels, sizes) -> dict[int, int]:
    """k -> least size of a mask whose level is at least k, for k = 0..max level.

    ``levels`` and ``sizes`` are lists indexed by mask.  One pass over every
    mask keeps the least size at each level; a pass over k from the top
    carries the minimum down.
    """
    least = {}
    for level, size in zip(levels, sizes):
        if level not in least or size < least[level]:
            least[level] = size
    out, best = {}, None
    for k in range(max(levels), -1, -1):
        if k in least and (best is None or least[k] < best):
            best = least[k]
        out[k] = best
    return dict(sorted(out.items()))


def rank_zero_loops(n, ranks) -> int:
    """Mask of the elements whose singleton has rank zero."""
    return sum(1 << t for t in range(n) if ranks[1 << t] == 0)


def full_rank_masks(ranks) -> tuple[int, ...]:
    """Masks, ascending, whose rank is both the full rank and their size: the bases."""
    return tuple(m for m, r in enumerate(ranks) if r == ranks[-1] == bin(m).count("1"))


# -- hypergraphs -----------------------------------------------------------


def brute_restricted_components(vertex_count, edge_vertex_masks, chosen_mask) -> int:
    """Components of the incidence graph on ALL vertices plus chosen edges."""
    edges = []
    for idx, vmask in enumerate(edge_vertex_masks):
        if not chosen_mask >> idx & 1:
            continue
        node = vertex_count + idx + 1
        for t in range(vertex_count):
            if vmask >> t & 1:
                edges.append((node, t + 1))
    nodes = set(range(1, vertex_count + 1))
    nodes.update(
        vertex_count + idx + 1
        for idx in range(len(edge_vertex_masks))
        if chosen_mask >> idx & 1
    )
    remaining = set(nodes)
    parts = 0
    while remaining:
        start = next(iter(remaining))
        remaining -= reachable(edges, start) | {start}
        parts += 1
    return parts


def listed_tree_degree_vectors(vertex_count, edge_count, incidence_graph) -> frozenset:
    """Hyperedge-node degrees minus one over the listed spanning trees of the incidence graph.

    Nodes 1..vertex_count are the vertices, the next edge_count nodes the
    hyperedges; every incidence edge is (vertex, hyperedge node).
    """
    out = set()
    for tree in incidence_graph.spanning_tree_masks():
        degrees = [-1] * edge_count
        for idx, (_, node) in enumerate(incidence_graph.edges):
            if tree >> idx & 1:
                degrees[node - vertex_count - 1] += 1
        out.add(tuple(degrees))
    return frozenset(out)


# -- prefix conditions ---------------------------------------------------------


def brute_prefix_conditions(table, k) -> tuple[bool, bool]:
    """(exterior, interior) conditions of the binomial prefix, by scanning size-k subsets.

    Exterior: removing any k elements keeps the full rank.  Interior:
    every k-subset's rank is the sum of its singleton ranks.
    """
    n = table.n
    ground = range(1, n + 1)
    full = table.rank_of(ground)
    exterior = interior = True
    for subset in itertools.combinations(ground, k):
        rest = [e for e in ground if e not in subset]
        exterior &= table.rank_of(rest) == full
        interior &= table.rank_of(subset) == sum(table.rank_of((e,)) for e in subset)
    return exterior, interior


# -- sequences ---------------------------------------------------------------


def brute_unimodal(seq) -> bool:
    """True when some split point makes the sequence rise then fall."""
    seq = list(seq)
    if not seq:
        return True
    return any(
        all(seq[i] <= seq[i + 1] for i in range(p))
        and all(seq[i] >= seq[i + 1] for i in range(p, len(seq) - 1))
        for p in range(len(seq))
    )


# -- documents ----------------------------------------------------------------


def tuple_keyed_rank_table(text: str):
    """A ``kind rank-table`` document read with every subset keyed by its
    ascending element tuple, then sorted into mask order by reading each
    tuple from its largest element down: a keying that shares nothing with
    the library's mask-keyed one.

    Only the keying, the totality search and the ordering are its own; the
    tokenizer, the ``n`` header, subsets, integers and errors are the
    library's, so both parsers raise the same (line, column, reason).
    """
    from polymat import documents as d

    rows = d._tokenize(text)
    kind_line, body = rows[0][0], rows[1:]
    n = d._parse_count(body, kind_line, "n", "value", "ground-set size")
    seen: dict[tuple[int, ...], int] = {}
    for row in body[1:]:
        tokens = row[1]
        if tokens[0] != "rank":
            raise d._error(row, 0, f"expected 'rank', got {tokens[0]!r}")
        if len(tokens) != 3:
            raise d._error(row, 0, "'rank' lines need a subset and a value")
        subset = d._parse_subset(tokens[1], row, 1, n)
        if subset in seen:
            raise d._error(row, 1, f"duplicate rank entry for {tokens[1]!r}")
        seen[subset] = d._parse_int(tokens[2], row, 2, "rank value")
    if len(seen).bit_length() <= n:  # fewer than 2^n distinct subsets of 1..n
        ascending = (
            tuple(e + 1 for e in range(m.bit_length()) if m >> e & 1) for m in itertools.count()
        )
        missing = next(s for s in ascending if s not in seen)
        raise d.ParseError(
            body[-1][0], 1, f"rank table is not total: missing subset {d._subset_text(missing)}"
        )
    return d.RankTableDocument(n, tuple(sorted(seen.items(), key=lambda e: e[0][::-1])))
