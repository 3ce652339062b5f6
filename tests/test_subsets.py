import random

import pytest

from polymat import bit, complement, elements_of, full_mask, iter_masks, mask_of
from polymat.subsets import subset_sums


def test_bit_positions():
    assert bit(1) == 1
    assert bit(3) == 4


def test_full_mask():
    assert full_mask(1) == 1
    assert full_mask(4) == 0b1111


def test_mask_of_and_back():
    assert mask_of((1, 3), 3) == 0b101
    assert mask_of((), 3) == 0
    assert elements_of(0b101) == (1, 3)
    assert elements_of(0) == ()


def test_mask_of_accepts_any_iterable_order():
    assert mask_of([3, 1], 3) == mask_of((1, 3), 3)
    assert mask_of(frozenset({2}), 2) == 0b10


def test_mask_of_rejects_out_of_range():
    with pytest.raises(ValueError):
        mask_of((0,), 3)
    with pytest.raises(ValueError):
        mask_of((4,), 3)


def test_complement():
    assert complement(0b101, 3) == 0b010
    assert complement(0, 2) == 0b11


def test_iter_masks_covers_everything():
    assert list(iter_masks(2)) == [0, 1, 2, 3]


def test_roundtrip_all_masks():
    for m in iter_masks(5):
        assert mask_of(elements_of(m), 5) == m


def test_subset_sums():
    assert subset_sums([]) == [0]
    assert subset_sums([2, 5, 1]) == [0, 2, 5, 7, 1, 3, 6, 8]


@pytest.mark.parametrize("n", range(6, 13))
def test_subset_sums_match_the_sum_over_each_mask(n):
    weights = [random.Random(n).randint(-3, 300) for _ in range(n)]
    assert subset_sums(weights) == [sum(weights[e - 1] for e in elements_of(m)) for m in iter_masks(n)]
