"""Shared fixtures: small canonical structures and enumerated pools."""

from __future__ import annotations

import sys

import pytest

from hfkit import SetUniverse, enumerate_mewos, is_covered
from hfkit.suites import bullet, circ, circ_bullet, empty_mewo

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # derandomised and without an example database, so every run of the
    # property tests draws the same examples
    settings.register_profile("hfkit", derandomize=True, database=None, deadline=None)
    settings.load_profile("hfkit")


@pytest.fixture()
def u():
    return SetUniverse()


@pytest.fixture(scope="session")
def mewo_pool():
    """Every mewo of size at most 4, up to relabeling."""
    return [m for s in range(5) for m in enumerate_mewos(s)]


@pytest.fixture(scope="session")
def covered_pool(mewo_pool):
    return [m for m in mewo_pool if is_covered(m)]


@pytest.fixture(scope="session")
def small_mewo_pool():
    """Every mewo of size at most 3, for the heavier pairwise sweeps."""
    return [m for s in range(4) for m in enumerate_mewos(s)]


@pytest.fixture()
def fixtures_mewos():
    return bullet(), circ(), circ_bullet(), empty_mewo()


@pytest.fixture()
def low_recursion_limit():
    """Run a test with the recursion limit at 150, far below the depths it builds."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    yield
    sys.setrecursionlimit(limit)
