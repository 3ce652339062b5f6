"""Input documents: parsing, canonical emission, and error positions."""

from __future__ import annotations

import pathlib
import random
import tracemalloc

import pytest

from polymat.documents import (
    GraphDocument,
    HypergraphDocument,
    MatroidDocument,
    ParseError,
    RankTableDocument,
    emit_document,
    parse_document,
)
from polymat.subsets import elements_of

from conftest import reference_document
from generators import coverage_table


RANK_TABLE_TEXT = """\
kind rank-table
n 2
rank empty 0   # comments vanish
rank 1 1

rank 2 1
rank 1,2 1
"""

GRAPH_TEXT = """\
kind graph
vertices 3
edge 1 2
edge 2 3
edge 1 3
edge 1 3
"""

MATROID_TEXT = """\
kind matroid
n 3
base 2,3
base 1,2
base 1,3
"""

HYPERGRAPH_TEXT = """\
kind hypergraph
vertices a b c
hedge b a
hedge b c
hedge a b c
"""


def roundtrip(text: str):
    doc = parse_document(text)
    again = parse_document(emit_document(doc))
    assert again == doc
    # Emission is canonical: emitting the reparsed document is byte-identical.
    assert emit_document(again) == emit_document(doc)
    return doc


# -- happy paths -------------------------------------------------------------


def test_rank_table_roundtrip():
    doc = roundtrip(RANK_TABLE_TEXT)
    assert isinstance(doc, RankTableDocument)
    assert doc.n == 2
    assert doc.entries == (((), 0), ((1,), 1), ((2,), 1), ((1, 2), 1))


def test_reference_table_roundtrip():
    doc = roundtrip(reference_document())
    assert doc.n == 5
    assert len(doc.entries) == 32


def test_graph_roundtrip_keeps_edge_order_and_multiplicity():
    doc = roundtrip(GRAPH_TEXT)
    assert isinstance(doc, GraphDocument)
    assert doc.vertex_count == 3
    assert doc.edges == ((1, 2), (2, 3), (1, 3), (1, 3))


def test_matroid_roundtrip_sorts_bases():
    doc = roundtrip(MATROID_TEXT)
    assert isinstance(doc, MatroidDocument)
    assert doc.bases == ((1, 2), (1, 3), (2, 3))


def test_matroid_bases_alias():
    text = MATROID_TEXT.replace("kind matroid", "kind matroid-bases")
    assert parse_document(text) == parse_document(MATROID_TEXT)
    # The canonical form always uses the plain name.
    assert emit_document(parse_document(text)).startswith("kind matroid\n")


def test_hypergraph_roundtrip_normalizes_member_order():
    doc = roundtrip(HYPERGRAPH_TEXT)
    assert isinstance(doc, HypergraphDocument)
    assert doc.vertices == ("a", "b", "c")
    assert doc.hyperedges == (("a", "b"), ("b", "c"), ("a", "b", "c"))


def test_subset_order_is_irrelevant_in_rank_tables():
    flipped = RANK_TABLE_TEXT.replace("rank 1,2 1", "rank 2,1 1")
    assert parse_document(flipped) == parse_document(RANK_TABLE_TEXT)


def test_shuffled_noncanonical_rank_table_parses_like_its_canonical_text():
    # n = 9: lines out of mask order, elements out of order, leading zeros.
    values = coverage_table(9, 12, 3, 1).values
    canonical = RankTableDocument(9, tuple((elements_of(m), v) for m, v in enumerate(values)))
    lines = emit_document(canonical).splitlines()
    body = lines[2:]
    random.Random(9).shuffle(body)
    body = [line.replace("rank 1,2 ", "rank 2,1 ").replace("rank 1 ", "rank 01 ") for line in body]
    assert "rank 2,1 " in "\n".join(body) and "rank 01 " in "\n".join(body)
    text = "\n".join(lines[:2] + body) + "\n"
    assert parse_document(text) == canonical == parse_document(emit_document(canonical))


def test_comments_and_blank_lines_are_ignored():
    noisy = "# leading comment\n\n" + GRAPH_TEXT.replace(
        "edge 1 2", "edge 1 2   # a parallel pair follows"
    )
    assert parse_document(noisy) == parse_document(GRAPH_TEXT)


# -- error positions -----------------------------------------------------------


def expect_error(text: str, line: int, reason_part: str, column: int | None = None):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    err = info.value
    assert err.line == line
    assert reason_part in err.reason
    if column is not None:
        assert err.column == column
    assert f"line {err.line}, column {err.column}:" in str(err)


def test_empty_document():
    expect_error("", 1, "empty document")
    expect_error("# only a comment\n", 1, "empty document")


def test_missing_kind_header():
    expect_error("n 2\n", 1, "must start with 'kind")


def test_unknown_kind_points_at_the_kind_token():
    expect_error("kind polygon\n", 1, "unknown kind", column=6)


def test_rank_table_requires_n_header():
    expect_error("kind rank-table\nrank empty 0\n", 2, "expected 'n")


def test_rank_table_bad_value_position():
    text = "kind rank-table\nn 1\nrank empty 0\nrank 1 one\n"
    expect_error(text, 4, "expected an integer rank value", column=8)


def test_rank_table_element_out_of_range():
    text = "kind rank-table\nn 1\nrank empty 0\nrank 2 1\n"
    expect_error(text, 4, "outside ground set", column=6)


def test_rank_table_duplicate_entry():
    text = "kind rank-table\nn 1\nrank empty 0\nrank 1 1\nrank 1 1\n"
    expect_error(text, 5, "duplicate rank entry")


def test_rank_table_missing_subset_named():
    text = "kind rank-table\nn 2\nrank empty 0\nrank 1 1\nrank 1,2 1\n"
    expect_error(text, 5, "missing subset 2")


def test_rank_table_missing_empty_subset_named():
    text = "kind rank-table\nn 1\nrank 1 1\n"
    expect_error(text, 3, "missing subset empty")


def test_rank_table_missing_subset_found_without_building_two_to_the_n():
    # 2^(10^9) would be a 125 MB integer; the totality check never builds it.
    text = "kind rank-table\nn 1000000000\nrank empty 0\nrank 1 1\n"
    tracemalloc.start()
    try:
        expect_error(text, 4, "missing subset 2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_huge_elements_parse_without_building_their_masks():
    # Subsets stay element tuples: bit 999999999 would be a 125 MB integer.
    tracemalloc.start()
    try:
        expect_error("kind rank-table\nn 1000000000\nrank 999999999 1\n", 3, "missing subset empty")
        doc = parse_document("kind matroid\nn 1000000000\nbase 999999999\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc == MatroidDocument(10**9, ((999999999,),))
    assert peak < 1 << 20


def test_count_headers():
    expect_error("kind matroid\nn 0\n", 2, "ground-set size must be positive", column=3)
    expect_error("kind matroid\nn x\n", 2, "expected an integer ground-set size", column=3)
    expect_error("kind matroid\nn 1 2\n", 2, "'n' takes exactly one value", column=1)
    expect_error("kind graph\nvertices x\n", 2, "expected an integer vertex count", column=10)
    expect_error("kind graph\nvertices 1 2\n", 2, "'vertices' takes exactly one count", column=1)


def test_matroid_subset_errors():
    expect_error("kind matroid\nn 3\nbase 1,,2\n", 3, "malformed subset", column=6)
    expect_error("kind matroid\nn 3\nbase 2,2\n", 3, "repeated element", column=6)
    expect_error("kind matroid\nn 2\nbase 3\n", 3, "element 3 outside ground set 1..2", column=6)


def test_subset_errors_name_the_first_bad_part():
    head = "kind matroid\nn 3\nbase "
    expect_error(head + "1,x,,\n", 3, "expected an integer element, got 'x'", column=6)
    expect_error(head + "1,,x\n", 3, "malformed subset '1,,x'", column=6)
    expect_error(head + "3,1,0\n", 3, "element 0 outside ground set", column=6)


def test_malformed_subset():
    text = "kind rank-table\nn 2\nrank 1,, 1\n"
    expect_error(text, 3, "malformed subset")
    text = "kind rank-table\nn 2\nrank 1,1 1\n"
    expect_error(text, 3, "repeated element")


def test_graph_errors():
    expect_error("kind graph\n", 1, "expected 'vertices")
    expect_error("kind graph\nvertices 0\n", 2, "must be positive")
    expect_error("kind graph\nvertices 2\nedge 1\n", 3, "two endpoints")
    expect_error("kind graph\nvertices 2\nedge 1 3\n", 3, "outside 1..2", column=8)
    expect_error("kind graph\nvertices 2\narc 1 2\n", 3, "expected 'edge'")


def test_matroid_errors():
    expect_error("kind matroid\nn 2\n", 1, "at least one base")
    expect_error("kind matroid\nn 2\nbase 3\n", 3, "outside ground set")
    expect_error("kind matroid\nn 2\nbasis 1\n", 3, "expected 'base'")


def test_hypergraph_errors():
    expect_error("kind hypergraph\nvertices a a\nhedge a\n", 2, "must be unique")
    expect_error("kind hypergraph\nvertices a\nhedge b\n", 3, "unknown vertex", column=7)
    expect_error("kind hypergraph\nvertices a\nhedge a a\n", 3, "repeated vertex")
    expect_error("kind hypergraph\nvertices a\nhedge\n", 3, "at least one vertex")
    expect_error("kind hypergraph\nvertices a\n", 1, "at least one hyperedge")


def test_sample_files_roundtrip():
    samples = pathlib.Path(__file__).resolve().parent.parent / "samples"
    for sample in samples.iterdir():
        text = sample.read_text()
        doc = parse_document(text)
        assert parse_document(emit_document(doc)) == doc
