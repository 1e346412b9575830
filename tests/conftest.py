"""Shared fixtures for the test suite.

Plain helper functions live in :mod:`tests.helpers`; importing them from a
conftest by bare name is exactly the pattern that once let another
directory's ``conftest.py`` shadow this file and knock six modules out of
collection.  Only pytest fixtures and Hypothesis profiles belong here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

#: A deeper generated budget for ``--hypothesis-profile=deep``: the CI job
#: that installs numba runs the formation suite with it, where the
#: ``form_lanes`` reference is compiled and a case costs milliseconds.
#: Tests that pin their own ``max_examples`` keep it.
settings.register_profile("deep", max_examples=1000)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic statistical tests."""
    return np.random.default_rng(12345)
