from __future__ import annotations

import ast
import itertools
import random
from pathlib import Path

import pytest

import hfkit.oracle

from hfkit import (
    FormatError,
    GenConfig,
    HfkitError,
    Mewo,
    SetUniverse,
    SizeLimitError,
    ValidationError,
    chain,
    enum_bounded_sims,
    enum_simulations,
    enumerate_mewos,
    enumerate_v,
    equal_by_permutation,
    from_ordinal,
    gen_random_mewo,
    gen_random_set,
    is_covered,
    is_simulation,
    mewo_equal,
    mewo_of_set,
    partial_sim,
    partial_sim_by_segments,
    principality_check,
    set_of_mewo,
    validate_mewo,
)
from hfkit.oracle import _pair_lists
from hfkit.suites import partial_sims_match_oracle
from conftest import labeled_ordinals, relabeled, rows


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
    with pytest.raises(ValidationError):
        enum_simulations(bullet, chain(1))


ORACLES = {
    "enum_simulations": enum_simulations,
    "enum_bounded_sims": enum_bounded_sims,
    "equal_by_permutation": equal_by_permutation,
    "is_simulation": lambda X, Y: is_simulation(X, Y, ()),
    "partial_sim_by_segments": partial_sim_by_segments,
}


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_refuse_other_kinds_as_validation_errors(name, fixtures_mewos):
    # a pair is two FinOrds or two Mewos (two Mewos for partial simulations)
    bullet = fixtures_mewos[0]
    pairs = [(bullet, chain(1)), (chain(1), bullet), (None, None), (bullet, None), ("a", "a"), (bullet, "a")]
    if name == "partial_sim_by_segments":
        pairs.append((chain(1), chain(1)))
    for X, Y in pairs:
        with pytest.raises(ValidationError, match="expected two"):
            ORACLES[name](X, Y)
    # each with a hash, which the list-form cache reads: a Mewo built with
    # list rows has none, and this was a bare TypeError
    listed = Mewo(((), [0]), (False, True))
    for X, Y in ((listed, bullet), (bullet, listed), (listed, listed)):
        with pytest.raises(ValidationError, match=r"^Mewo\(size=2, .*unhashable rows; build it with validate_mewo$"):
            ORACLES[name](X, Y)


def test_oracles_read_an_ordinal_as_the_mewo_with_every_element_marked():
    ordinals = labeled_ordinals(4) + [chain(5), chain(6)]
    for a, b in itertools.product(ordinals, repeat=2):
        X, Y = from_ordinal(a), from_ordinal(b)
        assert enum_simulations(a, b) == enum_simulations(X, Y)
        assert enum_bounded_sims(a, b) == enum_bounded_sims(X, Y)
        assert equal_by_permutation(a, b) == equal_by_permutation(X, Y)


def test_is_simulation_refuses_what_is_not_a_map(fixtures_mewos):
    # each entry must be a plain int naming an element of Y, one per element of X
    bullet = fixtures_mewos[0]
    assert is_simulation(bullet, bullet, (0,))
    for f, position in (((-1,), 0), ((), 0), ((1,), 0), ((True,), 0), ((0, 0), 1)):
        with pytest.raises(FormatError, match=f"position {position} of"):
            is_simulation(bullet, bullet, f)
    with pytest.raises(FormatError, match="position 1 of"):
        is_simulation(chain(3), chain(3), [0, 3, 2])


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
    assert len(enumerate_mewos(3)) == 16
    assert len(enumerate_mewos(4)) == 144


def test_enumerate_mewos_distinct_and_valid():
    pool = enumerate_mewos(3)
    for X in pool:
        assert relabeled(X, range(X.size)) == X
    for i, X in enumerate(pool):
        for Y in pool[i + 1 :]:
            assert not equal_by_permutation(X, Y)


def test_enumerate_mewos_limit():
    with pytest.raises(SizeLimitError):
        enumerate_mewos(6)


def test_enumerate_mewos_at_size_5():
    u = SetUniverse()
    pool = enumerate_mewos(5)
    covered = [X for X in pool if is_covered(X)]
    assert (len(pool), len(covered)) == (2816, 1248)
    sets = [set_of_mewo(X, u) for X in covered]
    assert len(set(sets)) == 1248
    for X, h in zip(covered, sets):
        assert mewo_equal(X, mewo_of_set(h), u)


def test_enumerate_mewos_tests_one_relation_per_upper_triangle(monkeypatch):
    calls = []
    is_extensional = hfkit.oracle._is_extensional

    def counted(lt):
        calls.append(len(lt))
        return is_extensional(lt)

    monkeypatch.setattr(hfkit.oracle, "_is_extensional", counted)
    for size in range(5):
        enumerate_mewos(size)
    assert [calls.count(size) for size in range(5)] == [1, 1, 2, 8, 64]


def test_enumerated_covered_roundtrip(covered_pool):
    u = SetUniverse()
    for X in covered_pool:
        assert mewo_equal(X, mewo_of_set(set_of_mewo(X, u)), u)


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
    a = [(m.preds, m.marks) for m in gen_random_mewo(cfg)]
    b = [(m.preds, m.marks) for m in gen_random_mewo(cfg)]
    assert a == b
    for m in gen_random_mewo(cfg):
        assert relabeled(m, range(m.size)) == m


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


# -- the clause filters against the clauses map by map -----------------------
#
# References that judge one map at a time: one predicate per map for
# simulations, one check per permutation for isomorphisms, and the least
# relabeling over all permutations per candidate. The oracle's filters,
# which judge all maps clause by clause, must give exactly what these give.


def _clauses_hold(lt_x, marked_x, lt_y, marked_y, f) -> bool:
    n, m = len(lt_x), len(lt_y)
    if marked_x is not None and any(marked_x[x] and not marked_y[f[x]] for x in range(n)):
        return False
    if any(lt_x[x1][x2] and not lt_y[f[x1]][f[x2]] for x1 in range(n) for x2 in range(n)):
        return False
    return all(
        any(lt_x[x1][x2] and f[x1] == y for x1 in range(n))
        for x2 in range(n)
        for y in range(m)
        if lt_y[y][f[x2]]
    )


def _is_iso(lt_x, marked_x, lt_y, marked_y, p) -> bool:
    n = len(lt_x)
    if marked_x is not None and any(marked_x[x] != marked_y[p[x]] for x in range(n)):
        return False
    return all(lt_x[a][b] == lt_y[p[a]][p[b]] for a in range(n) for b in range(n))


def _map_by_map(X, Y):
    lt_x, lt_y = rows(X), rows(Y)
    mx, my = (list(X.marks), list(Y.marks)) if isinstance(X, Mewo) else (None, None)
    sims = [
        f for f in itertools.product(range(Y.size), repeat=X.size) if _clauses_hold(lt_x, mx, lt_y, my, f)
    ]
    bounded = []
    for b in range(Y.size):
        if my is not None and not my[b]:
            continue
        reach = {i for i in range(Y.size) if lt_y[i][b]}
        while True:
            more = reach | {i for i in range(Y.size) for j in reach if lt_y[i][j]}
            if more == reach:
                break
            reach = more
        reach = sorted(reach)
        seg = [[lt_y[i][j] for j in reach] for i in reach]
        seg_marked = None if my is None else [lt_y[i][b] for i in reach]
        if len(reach) == X.size:
            bounded += [
                (b, tuple(reach[i] for i in p))
                for p in itertools.permutations(range(X.size))
                if _is_iso(lt_x, mx, seg, seg_marked, p)
            ]
    equal = X.size == Y.size and any(
        _is_iso(lt_x, mx, lt_y, my, p) for p in itertools.permutations(range(X.size))
    )
    return sims, bounded, equal


def test_filters_give_exactly_the_maps_the_clauses_accept_map_by_map(small_mewo_pool, mewo_pool):
    rng = random.Random(18)
    size4 = [X for X in mewo_pool if X.size == 4]
    pairs = list(itertools.product(small_mewo_pool, repeat=2))
    pairs += list(itertools.product(labeled_ordinals(5, all_perms_upto=3, samples=2, seed=18), repeat=2))
    pairs += [(rng.choice(size4), rng.choice(size4)) for _ in range(60)]
    for X, Y in pairs:
        got = enum_simulations(X, Y), enum_bounded_sims(X, Y), equal_by_permutation(X, Y)
        assert got == _map_by_map(X, Y), (X, Y)


def _least_relabeling(lt, marked):
    return min(
        (tuple(lt[a][b] for a in p for b in p), tuple(marked[a] for a in p))
        for p in itertools.permutations(range(len(lt)))
    )


def test_enumerate_mewos_keeps_the_first_candidate_of_each_least_relabeling():
    for size in range(5):
        slots = [(i, j) for i in range(size) for j in range(size) if i != j]
        out = {}
        for bits in range(1 << len(slots)):
            lt = [[False] * size for _ in range(size)]
            for k, (i, j) in enumerate(slots):
                lt[i][j] = bool(bits >> k & 1)
            try:
                validate_mewo(size, lt, [False] * size)
            except HfkitError:
                continue
            for mbits in range(1 << size):
                marked = [mbits >> i & 1 == 1 for i in range(size)]
                out.setdefault(_least_relabeling(lt, marked), validate_mewo(size, lt, marked))
        assert enumerate_mewos(size) == [out[k] for k in sorted(out)]


def test_pair_lists_of_mewos_are_the_numpy_forms_as_lists(mewo_pool):
    pytest.importorskip("numpy")
    randoms = list(gen_random_mewo(GenConfig(seed=19, max_width=6, count=100)))
    for X in mewo_pool + randoms:
        assert _pair_lists(X, X) == (X.lt.tolist(), X.marked.tolist()) * 2


def test_partial_sim_by_segments_fixtures(fixtures_mewos):
    bullet, circ, cb, emp = fixtures_mewos
    assert partial_sim_by_segments(bullet, cb) is None
    assert partial_sim_by_segments(cb, cb) == {1: 1}
    assert partial_sim_by_segments(circ, emp) == {}
    with pytest.raises(ValidationError):
        partial_sim_by_segments(chain(1), chain(1))


def test_partial_sims_and_principality_match_the_segment_reference(mewo_pool):
    # every pair of sizes <= 2 and a seeded sample of the rest
    rng = random.Random(19)
    small = [X for X in mewo_pool if X.size <= 2]
    pairs = list(itertools.product(small, repeat=2)) + [tuple(rng.choices(mewo_pool, k=2)) for _ in range(3000)]
    u = SetUniverse()
    assert partial_sims_match_oracle(u, pairs) == []
    seen = {(partial_sim(X, Y, u) is not None, principality_check(X, Y, u)) for X, Y in pairs}
    assert seen == {(True, True), (True, False), (False, True)}


def test_the_partial_sim_law_calls_the_segment_reference_once_per_pair(monkeypatch, mewo_pool):
    calls = []
    reference = hfkit.oracle.partial_sim_by_segments
    monkeypatch.setattr(hfkit.oracle, "partial_sim_by_segments", lambda X, Y: calls.append((X, Y)) or reference(X, Y))
    pairs = list(itertools.product([X for X in mewo_pool if X.size <= 2], repeat=2))
    assert partial_sims_match_oracle(SetUniverse(), pairs) == []
    assert calls == pairs
