"""Bitmask encoding for subsets of the ground set {1, ..., n}.

Bit i-1 of a mask records whether element i is present.  Masks index
directly into dense rank tables, so the other modules work with plain
ints and convert to element tuples only at reporting boundaries.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import Callable, Iterable, Iterator, Sequence


def bit(element: int) -> int:
    return 1 << (element - 1)


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements: Iterable[int], n: int) -> int:
    """Mask for a collection of elements, validating the 1..n range."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set 1..{n}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Ascending tuple of the elements present in ``mask``."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def bits(mask: int) -> Iterator[int]:
    """The one-bit masks of the elements in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def by_size(
    masks: Iterable[int], n: int, size: Callable[[int], int] = int.bit_count
) -> dict[int, frozenset[int]]:
    """Masks grouped by ``size(mask)``, with a (possibly empty) group for every key 0..n."""
    grouped: dict[int, list[int]] = {j: [] for j in range(n + 1)}
    for m in masks:
        grouped[size(m)].append(m)
    return {j: frozenset(group) for j, group in grouped.items()}


def complement(mask: int, n: int) -> int:
    return ~mask & full_mask(n)


def iter_masks(n: int) -> range:
    """All subset masks of {1..n} in ascending numeric order."""
    return range(1 << n)


def subset_sums(weights: Sequence[int]) -> list[int]:
    """Sum of ``weights[e - 1]`` over the elements e of every mask, indexed by mask.

    Doubling: the masks with element t on top are those below bit(t), plus its weight."""
    sums = [0]
    for w in weights:
        sums += list(map(add, sums, repeat(w)))
    return sums
