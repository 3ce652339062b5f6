"""Line-oriented input documents and their canonical text form.

Four kinds are understood, each introduced by a ``kind`` header:

    kind rank-table          kind graph          kind matroid        kind hypergraph
    n 2                      vertices 3          n 3                 vertices a b
    rank empty 0             edge 1 2            base 1,2            hedge a b
    rank 1 1                 edge 2 3            base 1,3            hedge a b
    rank 2 1                 edge 1 3            base 2,3
    rank 1,2 2

Blank lines and ``#`` comments are ignored.  Rank tables must list
every subset exactly once; subsets are comma-separated element lists
or the word ``empty``.  ``emit_document`` produces a canonical text
form, and parse(emit(parse(text))) == parse(text).
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple, Union

from .subsets import bit, elements_of


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class RankTableDocument(NamedTuple):
    kind = "rank-table"
    n: int
    entries: tuple[tuple[tuple[int, ...], int], ...]  # sorted by subset mask


class GraphDocument(NamedTuple):
    kind = "graph"
    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # input order


class MatroidDocument(NamedTuple):
    kind = "matroid"
    n: int
    bases: tuple[tuple[int, ...], ...]  # sorted


class HypergraphDocument(NamedTuple):
    kind = "hypergraph"
    vertices: tuple[str, ...]
    hyperedges: tuple[tuple[str, ...], ...]  # input order, members in vertex order


InputDocument = Union[RankTableDocument, GraphDocument, MatroidDocument, HypergraphDocument]


def _tokenize(text: str):
    """(line number, tokens, text before any comment) for each line that has tokens."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        tokens = tuple(stripped.split())  # a tuple of strings: untracked by the collector
        if tokens:
            rows.append((lineno, tokens, stripped))
    return rows


def _error(row, k: int, message: str) -> ParseError:
    """An error at the k-th token of a row; columns are found only for errors."""
    lineno, tokens, stripped = row
    end = 0
    for tok in tokens[: k + 1]:
        end = stripped.index(tok, end) + len(tok)
    return ParseError(lineno, end - len(tokens[k]) + 1, message)


def _parse_int(token: str, row, k: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _error(row, k, f"expected an integer {what}, got {token!r}") from None


def _parse_subset(token: str, row, k: int, n: int) -> tuple[int, ...]:
    """Ascending elements of a comma list or ``empty``: distinct, then each in 1..n."""
    if token == "empty":
        return ()
    parts = token.split(",")
    try:
        out = sorted(map(int, parts))
    except ValueError:  # only now scan part by part: the first bad one names the error
        for part in parts:
            if not part:
                raise _error(row, k, f"malformed subset {token!r}") from None
            _parse_int(part, row, k, "element")
        raise
    if len(set(out)) != len(out):
        raise _error(row, k, f"repeated element in subset {token!r}")
    for e in out:
        if not 1 <= e <= n:
            raise _error(row, k, f"element {e} outside ground set 1..{n}")
    return tuple(out)


def parse_document(text: str) -> InputDocument:
    rows = _tokenize(text)
    if not rows:
        raise ParseError(1, 1, "empty document")
    lineno, tokens, _ = rows[0]
    if tokens[0] != "kind" or len(tokens) != 2:
        raise _error(rows[0], 0, "document must start with 'kind <kind>'")
    kind = tokens[1]
    body = rows[1:]
    if kind == "rank-table":
        return _parse_rank_table(body, lineno)
    if kind == "graph":
        return _parse_graph(body, lineno)
    if kind in ("matroid", "matroid-bases"):
        return _parse_matroid(body, lineno)
    if kind == "hypergraph":
        return _parse_hypergraph(body, lineno)
    raise _error(rows[0], 1, f"unknown kind {kind!r}")


def _expect_header(body, name: str, after_line: int):
    if not body:
        raise ParseError(after_line, 1, f"expected '{name} ...' after the kind line")
    word = body[0][1][0]
    if word != name:
        raise _error(body[0], 0, f"expected '{name} ...', got {word!r}")
    return body[0]


def _parse_count(body, kind_line: int, header: str, noun: str, what: str) -> int:
    """The positive integer of a '<header> <count>' line, the first after the kind line."""
    row = _expect_header(body, header, kind_line)
    if len(row[1]) != 2:
        raise _error(row, 0, f"'{header}' takes exactly one {noun}")
    value = _parse_int(row[1][1], row, 1, what)
    if value < 1:
        raise _error(row, 1, f"{what} must be positive")
    return value


def _parse_rank_table(body, kind_line: int) -> RankTableDocument:
    """Entries keyed by subset mask, read in one pass.

    A total table has 2^n lines, so only elements up to the bit length of the
    line count (``cap``) can occur in one; their canonical spellings map to
    their bits.  A part the map cannot read, or a repeat (fewer bits than
    parts), sends the line to ``_parse_subset``, which raises its error or
    returns the subset.  A subset past ``cap`` keeps its tuple as key: the
    table is not total, and no mask of a huge element is ever built.
    """
    n = _parse_count(body, kind_line, "n", "value", "ground-set size")
    rows = body[1:]
    cap = min(n, len(rows).bit_length())
    bits = {str(e): bit(e) for e in range(1, cap + 1)}
    seen: dict[int | tuple[int, ...], int] = {}
    for row in rows:
        tokens = row[1]
        if tokens[0] != "rank":
            raise _error(row, 0, f"expected 'rank', got {tokens[0]!r}")
        if len(tokens) != 3:
            raise _error(row, 0, "'rank' lines need a subset and a value")
        parts = tokens[1].split(",")
        try:
            key = sum(map(bits.__getitem__, parts))
        except KeyError:
            key = None
        if key is None or key.bit_count() != len(parts):
            subset = _parse_subset(tokens[1], row, 1, n)
            key = subset if subset and subset[-1] > cap else sum(map(bit, subset))
        if key in seen:
            raise _error(row, 1, f"duplicate rank entry for {tokens[1]!r}")
        seen[key] = _parse_int(tokens[2], row, 2, "rank value")
    # Entries are distinct subsets of 1..n: a bit length <= n means fewer than 2^n, never built.
    # The first missing mask is at most len(seen), so within cap, where every key is a mask.
    if len(seen).bit_length() <= n:
        missing = next(m for m in count() if m not in seen)
        missing_text = _subset_text(elements_of(missing))
        raise ParseError(body[-1][0], 1, f"rank table is not total: missing subset {missing_text}")
    subsets = [()]  # in mask order: each element doubles the list
    for e in range(1, n + 1):
        subsets += [s + (e,) for s in subsets]
    return RankTableDocument(n, tuple(zip(subsets, map(seen.__getitem__, range(1 << n)))))


def _parse_graph(body, kind_line: int) -> GraphDocument:
    nv = _parse_count(body, kind_line, "vertices", "count", "vertex count")
    edges = []
    for row in body[1:]:
        tokens = row[1]
        if tokens[0] != "edge":
            raise _error(row, 0, f"expected 'edge', got {tokens[0]!r}")
        if len(tokens) != 3:
            raise _error(row, 0, "'edge' lines need two endpoints")
        u = _parse_int(tokens[1], row, 1, "vertex id")
        v = _parse_int(tokens[2], row, 2, "vertex id")
        for w, k in ((u, 1), (v, 2)):
            if not 1 <= w <= nv:
                raise _error(row, k, f"vertex {w} outside 1..{nv}")
        edges.append((u, v))
    return GraphDocument(nv, tuple(edges))


def _parse_matroid(body, kind_line: int) -> MatroidDocument:
    n = _parse_count(body, kind_line, "n", "value", "ground-set size")
    bases = set()
    for row in body[1:]:
        tokens = row[1]
        if tokens[0] != "base":
            raise _error(row, 0, f"expected 'base', got {tokens[0]!r}")
        if len(tokens) != 2:
            raise _error(row, 0, "'base' lines take one subset")
        bases.add(_parse_subset(tokens[1], row, 1, n))
    if not bases:
        raise ParseError(kind_line, 1, "a matroid document needs at least one base")
    return MatroidDocument(n, tuple(sorted(bases)))


def _parse_hypergraph(body, kind_line: int) -> HypergraphDocument:
    header = _expect_header(body, "vertices", kind_line)
    names = tuple(header[1][1:])
    if not names:
        raise _error(header, 0, "'vertices' needs at least one name")
    if len(set(names)) != len(names):
        raise _error(header, 0, "vertex names must be unique")
    order = {name: k for k, name in enumerate(names)}
    hyperedges = []
    for row in body[1:]:
        tokens = row[1]
        if tokens[0] != "hedge":
            raise _error(row, 0, f"expected 'hedge', got {tokens[0]!r}")
        members = tokens[1:]
        if not members:
            raise _error(row, 0, "'hedge' lines need at least one vertex")
        for k, name in enumerate(members):
            if name not in order:
                raise _error(row, k + 1, f"unknown vertex {name!r}")
        if len(set(members)) != len(members):
            raise _error(row, 0, "repeated vertex in hyperedge")
        hyperedges.append(tuple(sorted(members, key=order.get)))
    if not hyperedges:
        raise ParseError(kind_line, 1, "a hypergraph document needs at least one hyperedge")
    return HypergraphDocument(names, tuple(hyperedges))


def _subset_text(subset: tuple[int, ...]) -> str:
    return ",".join(map(str, subset)) if subset else "empty"


def emit_document(doc: InputDocument) -> str:
    """Canonical text form; parsing it back yields an equal document."""
    lines = [f"kind {doc.kind}"]
    if isinstance(doc, RankTableDocument):
        lines.append(f"n {doc.n}")
        for subset, value in doc.entries:
            lines.append(f"rank {_subset_text(subset)} {value}")
    elif isinstance(doc, GraphDocument):
        lines.append(f"vertices {doc.vertex_count}")
        for u, v in doc.edges:
            lines.append(f"edge {u} {v}")
    elif isinstance(doc, MatroidDocument):
        lines.append(f"n {doc.n}")
        for base in doc.bases:
            lines.append(f"base {_subset_text(base)}")
    elif isinstance(doc, HypergraphDocument):
        lines.append("vertices " + " ".join(doc.vertices))
        for edge in doc.hyperedges:
            lines.append("hedge " + " ".join(edge))
    else:
        raise TypeError(f"not an input document: {doc!r}")
    return "\n".join(lines) + "\n"
