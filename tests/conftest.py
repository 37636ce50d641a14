"""Shared fixtures: small canonical structures and enumerated pools."""

from __future__ import annotations

import pytest

from hfkit import SetUniverse, enumerate_mewos, is_covered
from hfkit.suites import bullet, circ, circ_bullet, empty_mewo


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
