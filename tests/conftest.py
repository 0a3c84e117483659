"""Hypothesis draws the same examples on every run of the suite.

The property tests compare some solver paths within a tolerance, so a fixed
set of examples keeps a pass or a failure reproducible.

The tree_loops fixture empties the per-process cache of tree step loops, so
a test that counts the loops made does not depend on what ran before it.
"""

import pytest
from hypothesis import settings

from vdide import stepper

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def tree_loops():
    """stepper._tree_loop, emptied, so its counters start from zero."""
    stepper._tree_loop.cache_clear()
    return stepper._tree_loop
