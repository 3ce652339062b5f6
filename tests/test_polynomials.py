import pytest

from polymat import Polynomial


def test_trailing_zeros_trimmed():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial((0, 0)).coeffs == (0,)
    assert Polynomial(()).coeffs == (0,)


def test_degree_and_coefficient():
    p = Polynomial((1, 3, 5))
    assert p.degree == 2
    assert p.coefficient(0) == 1
    assert p.coefficient(2) == 5
    assert p.coefficient(7) == 0


def test_evaluation():
    p = Polynomial((1, 3, 5))
    assert p(1) == 9
    assert p(2) == 1 + 6 + 20
    assert p(0) == 1


def test_reversed_to():
    assert Polynomial((6, 6, 3, 1)).reversed_to(3).coeffs == (1, 3, 6, 6)
    assert Polynomial((2, 1)).reversed_to(3).coeffs == (0, 0, 1, 2)
    with pytest.raises(ValueError):
        Polynomial((1, 2, 3)).reversed_to(1)


def test_equality_ignores_variable_name():
    assert Polynomial((1, 2), "x") == Polynomial((1, 2), "y")
    assert Polynomial((1, 2)) != Polynomial((2, 1))


def test_pretty():
    assert Polynomial((1, 3, 5, 6, 2)).pretty() == "1+3y+5y²+6y³+2y⁴"
    assert Polynomial((1, 5, 8, 3), "x").pretty() == "1+5x+8x²+3x³"
    assert Polynomial((0,)).pretty() == "0"
    assert Polynomial((1,)).pretty() == "1"


def test_zero_coefficients_skipped_in_pretty():
    assert Polynomial((1, 0, 2)).pretty() == "1+2y²"
