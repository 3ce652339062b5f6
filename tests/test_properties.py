"""Property tests at n = 6-10 against the oracles, with hypothesis drawing the instance seed."""

import random

from hypothesis import given, settings, strategies as st

from polymat import Polynomial, polynomial_pair

from generators import random_polymatroid
from oracles import brute_polynomial_counts, leaf_checked_bases


def _check_against_oracles(seed, n):
    P = random_polymatroid(random.Random(seed), n)
    expected = leaf_checked_bases(P.table)
    assert list(P.bases()) == expected
    interior, exterior = brute_polynomial_counts(expected, n)
    assert polynomial_pair(P) == (Polynomial(interior, "x"), Polynomial(exterior, "y"))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 8))
def test_bases_and_polynomials_match_oracles(seed, n):
    _check_against_oracles(seed, n)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(9, 10))
def test_bases_and_polynomials_match_oracles_at_nine_and_ten(seed, n):
    # The oracle never slices, so this checks the slice DAG walk of bases().
    _check_against_oracles(seed, n)
