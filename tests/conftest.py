"""Shared fixtures and helpers: small canonical structures and enumerated
pools, a structure read through its own fields (`pos` of an ordinal, `preds`
and `marks` of a mewo) and relabeled, and threads raced against each other."""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest

from hfkit import FinOrd, SetUniverse, chain, enumerate_mewos, is_covered, validate_mewo, validate_ord
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


def rows(X) -> list[list[bool]]:
    """The order of X as nested lists, lt[x][y] meaning x < y: pos[x] < pos[y]
    for an ordinal, x among preds[y] for a mewo."""
    if isinstance(X, FinOrd):
        return [[p < q for q in X.pos] for p in X.pos]
    return [[x in ps for ps in X.preds] for x in range(X.size)]


def relabeled(X, idxs):
    """X on the elements `idxs` lists, element i of the result being idxs[i]
    of X, validated again: a permutation of the carrier gives an isomorphic
    copy, an ascending list of a segment's elements the segment itself."""
    lt = rows(X)
    sub = [[lt[a][b] for b in idxs] for a in idxs]
    if isinstance(X, FinOrd):
        return validate_ord(len(idxs), sub)
    return validate_mewo(len(idxs), sub, [X.marks[a] for a in idxs])


def labeled_ordinals(max_size, all_perms_upto=4, samples=6, seed=0):
    """Chains with assorted relabelings; exhaustive for small carriers."""
    rng = random.Random(seed)
    out = []
    for n in range(max_size + 1):
        if n <= all_perms_upto:
            out += [relabeled(chain(n), p) for p in itertools.permutations(range(n))]
        else:
            out.append(chain(n))
            for _ in range(samples):
                p = list(range(n))
                rng.shuffle(p)
                out.append(relabeled(chain(n), p))
    return out


def race(*targets):
    """Run each target on a thread of its own, switching threads every
    microsecond so that their steps interleave, and check that each ended."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, daemon=True) for target in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)


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
