"""Hypothesis draws the same examples on every run of the suite.

The property tests compare some solver paths within a tolerance, so a fixed
set of examples keeps a pass or a failure reproducible.

The loop_cache fixture empties the per-process cache of generated loops,
grid loops and step loops alike, so what a test makes does not depend on
what ran before it.  Only test_the_loop_cache_stays_within_its_bound reads
the cache's figures; the other tests state which loops a block makes
through helpers.recorded_loops, which empties the cache itself.
"""

import pytest
from hypothesis import settings

from vdide import expressions

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def loop_cache():
    """expressions._loop_of, emptied."""
    expressions._loop_of.cache_clear()
    return expressions._loop_of
