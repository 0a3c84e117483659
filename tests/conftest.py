"""Hypothesis draws the same examples on every run of the suite.

The property tests compare some solver paths within a tolerance, so a fixed
set of examples keeps a pass or a failure reproducible.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
