"""Property tests at n = 6-8 against the oracles, with hypothesis drawing the instance seed."""

import random

from hypothesis import given, settings, strategies as st

from polymat import Polynomial, polynomial_pair

from generators import random_polymatroid
from oracles import brute_polynomial_counts, leaf_checked_bases


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 8))
def test_bases_and_polynomials_match_oracles(seed, n):
    P = random_polymatroid(random.Random(seed), n)
    expected = leaf_checked_bases(P.table)
    assert list(P.bases()) == expected
    interior, exterior = brute_polynomial_counts(expected, n)
    assert polynomial_pair(P) == (Polynomial(interior, "x"), Polynomial(exterior, "y"))
