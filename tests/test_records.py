"""Result records: immutable, and tuples that unpack and compare like plain tuples."""

from __future__ import annotations

import copy
import pickle

import pytest

from polymat import Polynomial
from polymat.activity import DualityReport, check_duality
from polymat.documents import GraphDocument, MatroidDocument, parse_document
from polymat.graphs import CutFormulaReport, CutFormulaRow
from polymat.verify import CheckResult


def test_polynomial_equality_ignores_var_and_hash_agrees():
    x, y = Polynomial((1, 2), "x"), Polynomial((1, 2), "y")
    assert x == y and hash(x) == hash(y)
    assert len({x, y, Polynomial((1, 2, 0))}) == 1
    assert x != Polynomial((2, 1), "x")
    assert x != (1, 2)


def test_polynomial_trims_trailing_zeros():
    assert Polynomial((3, 0, 0)).coeffs == (3,)
    assert Polynomial(()) == Polynomial((0,))
    assert Polynomial([1, 0]).coeffs == (1,)


def test_polynomial_repr_keeps_the_field_form():
    assert repr(Polynomial((1, 0, 2, 0), "x")) == "Polynomial(coeffs=(1, 0, 2), var='x')"
    assert repr(Polynomial(())) == "Polynomial(coeffs=(0,), var='y')"


def test_polynomial_survives_copy_and_pickle():
    p = Polynomial((1, 3, 5), "x")
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and twin.var == "x"


@pytest.mark.parametrize(
    "record, field",
    [
        (Polynomial((1, 2)), "coeffs"),
        (Polynomial((1, 2)), "var"),
        (CheckResult("name", True), "passed"),
        (GraphDocument(2, ((1, 2),)), "edges"),
        (GraphDocument(2, ((1, 2),)), "extra"),
    ],
)
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_records_are_tuples():
    result = CheckResult("duality", False, "swap fails")
    name, passed, detail = result
    assert (name, passed, detail) == ("duality", False, "swap fails")
    assert CheckResult("duality", True) == ("duality", True, "")
    assert repr(CheckResult("duality", True)) == "CheckResult(name='duality', passed=True, detail='')"
    doc = parse_document("kind matroid\nn 2\nbase 1\nbase 2\n")
    assert doc == MatroidDocument(2, ((1,), (2,))) == (2, ((1,), (2,)))
    assert doc.kind == "matroid" and "kind" not in doc._fields


def test_duality_report_passed(example5):
    assert check_duality(example5).passed
    a, b = Polynomial((1, 2), "x"), Polynomial((1, 3), "y")
    assert DualityReport(a, b, b, a).passed
    assert not DualityReport(a, b, a, b).passed


def test_cut_formula_report_passed():
    good, bad = CutFormulaRow(0, 1, 1), CutFormulaRow(1, 3, 2)
    assert good.matches and not bad.matches
    assert CutFormulaReport(1, 1, {}, (good,), True).passed
    assert not CutFormulaReport(1, 1, {}, (good, bad), True).passed
    assert not CutFormulaReport(1, 1, {}, (good,), False).passed
