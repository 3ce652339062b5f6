from __future__ import annotations

import gc
from itertools import combinations

import pytest

from polymat import Polymatroid, RankTable

from generators import corpus, wide_corpus

# A five-element truncated weighted-coverage table used as the shared
# worked example across the suite.  Its exterior polynomial, structural
# families, and thresholds are frozen in the tests that consume it.
_RANK_ONE = ({1}, {3})
_RANK_TWO = ({2}, {4}, {5}, {1, 2}, {1, 3}, {2, 3}, {4, 5}, {1, 2, 3})


def reference_rank(subset) -> int:
    s = set(subset)
    if not s:
        return 0
    if s in _RANK_ONE:
        return 1
    if s in _RANK_TWO:
        return 2
    return 3


def reference_document() -> str:
    lines = ["kind rank-table", "n 5"]
    for r in range(6):
        for combo in combinations(range(1, 6), r):
            name = ",".join(map(str, combo)) if combo else "empty"
            lines.append(f"rank {name} {reference_rank(combo)}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def example5() -> Polymatroid:
    return Polymatroid(RankTable.from_function(5, reference_rank))


@pytest.fixture(scope="session")
def full_corpus() -> list[Polymatroid]:
    instances = corpus()
    assert len(instances) >= 200
    return instances


@pytest.fixture(scope="session")
def small_corpus(full_corpus) -> list[Polymatroid]:
    return full_corpus[:60]


@pytest.fixture(scope="session")
def wide_instances() -> list[Polymatroid]:
    return wide_corpus()


@pytest.fixture
def gc_off():
    """Automatic collection off for one test, so ``gc.collect()`` counts the
    unreachable objects a call leaves behind in reference cycles."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if enabled:
        gc.enable()
