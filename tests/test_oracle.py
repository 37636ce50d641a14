from __future__ import annotations

import ast
import itertools
from pathlib import Path

import pytest

import hfkit.oracle

from hfkit import (
    GenConfig,
    SetUniverse,
    SizeLimitError,
    chain,
    enum_bounded_sims,
    enum_simulations,
    enumerate_mewos,
    enumerate_v,
    equal_by_permutation,
    gen_random_mewo,
    gen_random_set,
    is_covered,
    mewo_equal,
    mewo_of_set,
    set_of_mewo,
    validate_mewo,
)


def test_enum_simulations_ordinal_pair():
    assert enum_simulations(chain(2), chain(3)) == [(0, 1)]
    assert enum_simulations(chain(3), chain(2)) == []
    assert enum_simulations(chain(3), chain(3)) == [(0, 1, 2)]


def test_enum_simulations_mewo_fixture(fixtures_mewos):
    bullet, _, cb, _ = fixtures_mewos
    assert enum_simulations(bullet, cb) == []
    assert enum_simulations(bullet, bullet) == [(0,)]


def test_enum_simulations_size_guard():
    with pytest.raises(SizeLimitError):
        enum_simulations(chain(7), chain(7))


def test_enum_simulations_type_mismatch(fixtures_mewos):
    bullet, _, _, _ = fixtures_mewos
    with pytest.raises(TypeError):
        enum_simulations(bullet, chain(1))


def test_enum_bounded_sims(fixtures_mewos):
    bullet, _, cb, emp = fixtures_mewos
    assert enum_bounded_sims(bullet, cb) == [(1, (0,))]
    assert enum_bounded_sims(emp, cb) == []
    assert enum_bounded_sims(chain(2), chain(3)) == [(2, (0, 1))]


def test_enumerate_v_counts(u):
    for level, count in enumerate((0, 1, 2, 4, 16)):
        assert len(enumerate_v(level, u)) == count


def test_enumerate_v_level5_count(u):
    assert len(enumerate_v(5, u)) == 65536


def test_enumerate_v_limit(u):
    with pytest.raises(SizeLimitError):
        enumerate_v(6, u)


def test_enumerate_v_distinct(u):
    pool = enumerate_v(4, u)
    assert len({h.id for h in pool}) == 16


def test_enumerate_v_st_ordinals_are_numerals(u):
    pool = enumerate_v(4, u)
    ords = sorted((h for h in pool if u.is_st_ordinal(h)), key=lambda h: u.rank_nat(h))
    assert ords == [u.von_neumann(n) for n in range(4)]


def test_enumerate_v5_st_ordinals_are_numerals(u):
    # the only hereditarily transitive sets among all 65536 of rank < 5
    # are the five numerals
    pool = enumerate_v(5, u)
    ords = sorted((h for h in pool if u.is_st_ordinal(h)), key=lambda h: u.rank_nat(h))
    assert ords == [u.von_neumann(n) for n in range(5)]


def test_enumerate_mewos_counts():
    assert len(enumerate_mewos(0)) == 1
    assert len(enumerate_mewos(1)) == 2
    assert len(enumerate_mewos(2)) == 4


def test_enumerate_mewos_distinct_and_valid():
    pool = enumerate_mewos(3)
    for X in pool:
        validate_mewo(X.size, X.lt, X.marked)
    for i, X in enumerate(pool):
        for Y in pool[i + 1 :]:
            assert not equal_by_permutation(X, Y)


def test_enumerate_mewos_limit():
    with pytest.raises(SizeLimitError):
        enumerate_mewos(5)


def test_enumerated_covered_roundtrip(covered_pool):
    u = SetUniverse()
    for X in covered_pool:
        assert mewo_equal(X, mewo_of_set(set_of_mewo(X, u)))


def test_gen_random_set_reproducible():
    cfg = GenConfig(seed=77, max_width=3, max_depth=3, count=30)
    u1, u2 = SetUniverse(), SetUniverse()
    ids1 = [h.id for h in gen_random_set(cfg, u1)]
    ids2 = [h.id for h in gen_random_set(cfg, u2)]
    assert ids1 == ids2


def test_gen_random_set_respects_depth(u):
    cfg = GenConfig(seed=5, max_width=4, max_depth=3, count=50)
    for h in gen_random_set(cfg, u):
        assert u.rank_nat(h) <= 3


def test_gen_random_mewo_reproducible_and_valid():
    cfg = GenConfig(seed=21, max_width=5, max_depth=3, count=30)
    a = [(m.lt.tobytes(), m.marked.tobytes()) for m in gen_random_mewo(cfg)]
    b = [(m.lt.tobytes(), m.marked.tobytes()) for m in gen_random_mewo(cfg)]
    assert a == b
    for m in gen_random_mewo(cfg):
        validate_mewo(m.size, m.lt, m.marked)


def test_gen_random_mewo_covered_filter():
    cfg = GenConfig(seed=22, max_width=5, max_depth=3, count=40)
    got = list(gen_random_mewo(cfg, covered_only=True))
    assert len(got) == 40
    assert all(is_covered(m) for m in got)


def test_gen_random_mewo_covered_stream_is_the_covered_part_of_the_stream():
    # the filter is the oracle's own cover predicate; it skips exactly the
    # mewos that is_covered refuses, and draws as the unfiltered stream does
    got = list(gen_random_mewo(GenConfig(seed=22, max_width=5, count=60), covered_only=True))
    stream = gen_random_mewo(GenConfig(seed=22, max_width=5, count=1000))
    assert list(itertools.islice(filter(is_covered, stream), 60)) == got


FAST_PATH_MODULES = {"universe", "ordinals", "mewos", "correspondence"}


def test_oracle_borrows_no_fast_path_helper():
    # the references share no code with the fast paths they cross-check: the
    # oracle takes only public names from those modules and reads no private
    # attribute of anything
    tree = ast.parse(Path(hfkit.oracle.__file__).read_text(encoding="utf-8"))
    borrowed = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in FAST_PATH_MODULES
        for alias in node.names
    }
    assert {"SetUniverse", "FinOrd", "Mewo", "validate_mewo"} <= borrowed
    assert [name for name in borrowed if name.startswith("_")] == []
    # data types and the validator, no decision: not even is_covered
    assert borrowed <= {"SetUniverse", "SetHandle", "PointedGraph", "FinOrd", "Mewo", "validate_mewo"}
    private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
    assert private == []
