from __future__ import annotations

import gc
import itertools
import random
import weakref
from functools import partial

import pytest

from hfkit import (
    CyclicError,
    ExtensionalityError,
    GenConfig,
    LimitExceededError,
    PointedGraph,
    SetUniverse,
    ValidationError,
    WellfoundednessError,
    bounded_sim_mewo,
    chain,
    codes,
    covered_part,
    down_plus,
    from_ordinal,
    gen_random_mewo,
    is_covered,
    is_simulation,
    mark_all,
    mewo_equal,
    mewo_from_json,
    mewo_from_text,
    mewo_of_set,
    mewo_to_dot,
    mewo_to_json,
    mewo_to_text,
    ord_from_text,
    partial_sim,
    principality_check,
    set_of_mewo,
    simulation_mewo,
    singleton,
    union,
    validate_mewo,
)
from hfkit.mewos import Mewo, _collapse, covered_mask, down_plus_carrier
from hfkit.suites import (
    covering_is_principality,
    mewo_decisions_match_oracle,
    partial_sims_match_oracle,
    segments_covered,
    segments_injective,
    strict_into_markall,
    strict_then_weak_is_strict,
    unions_are_covered,
    unions_are_least_upper_bounds,
)
from conftest import race, relabeled, rows


def test_validate_fixtures(fixtures_mewos):
    bullet, circ, cb, emp = fixtures_mewos
    assert bullet.size == 1 and circ.size == 1 and cb.size == 2 and emp.size == 0


def test_validate_rejects_equal_predecessors():
    with pytest.raises(ExtensionalityError):
        validate_mewo(2, [[False] * 2] * 2, [False] * 2)


def test_validate_rejects_cycles():
    with pytest.raises(WellfoundednessError):
        validate_mewo(2, [[False, True], [True, False]], [False] * 2)


def _small_relations():
    """Every relation on at most 3 elements, self-loops included, then 3,000
    seeded ones on 4 to 8 elements, each as ascending successor lists."""
    for n in range(4):
        for bits in range(1 << n * n):
            yield [[j for j in range(n) if bits >> (i * n + j) & 1] for i in range(n)]
    rng = random.Random(14)
    for _ in range(3000):
        n = rng.randint(4, 8)
        p = rng.uniform(0.05, 0.4)
        yield [[j for j in range(n) if rng.random() < p] for i in range(n)]


def test_validation_meets_the_cycle_the_collapse_meets(u):
    # validate_mewo and from_graph walk the same lists with one walk: a
    # relation is refused as not wellfounded exactly when collapsing it under
    # a root above every element meets a cycle, and both name the same cycle
    cyclic = acyclic = 0
    for succ in _small_relations():
        n = len(succ)
        try:
            u.from_graph(PointedGraph.make(succ + [list(range(n))], root=n))
            expected = None
        except CyclicError as exc:
            expected = exc.cycle
        try:
            validate_mewo(n, [[j in s for j in range(n)] for s in succ], [False] * n)
            got = None
        except ExtensionalityError:
            got = None
        except WellfoundednessError as exc:
            got = exc.cycle
        assert got == expected, succ
        cyclic += expected is not None
        acyclic += expected is None
    assert cyclic > 1000 and acyclic > 500


def test_validate_shape():
    with pytest.raises(ValidationError):
        validate_mewo(2, [[False] * 2] * 2, [False] * 3)


@pytest.mark.parametrize("as_vector", [list, tuple, lambda v: pytest.importorskip("numpy").array(v, dtype=bool)])
def test_validate_reads_every_matrix_form(as_vector, fixtures_mewos):
    # rows and markings as lists, tuples or numpy arrays (skipped without numpy); the empty mewo from empty ones
    emp = fixtures_mewos[3]
    assert validate_mewo(0, as_vector([]), as_vector([])) == emp
    cb = validate_mewo(2, [as_vector([0, 1]), as_vector([0, 0])], as_vector([0, 1]))
    assert cb == fixtures_mewos[2] and cb.marks == (False, True)
    with pytest.raises(ValidationError, match="row 1 is not a list of 2 entries"):
        validate_mewo(2, [as_vector([False, True]), as_vector([False])], as_vector([False, True]))
    with pytest.raises(ValidationError, match="marking is not a list of 2 entries"):
        validate_mewo(2, [as_vector([False, True]), as_vector([False, False])], as_vector([True]))


NONTRANSITIVE = [[False, True, False], [False, False, True], [False] * 3]  # 0 < 1 < 2, not 0 < 2


def test_nontransitive_order_is_fine():
    X = validate_mewo(3, NONTRANSITIVE, [False, False, True])
    assert X.size == 3


def test_closure_chain():
    # transitive reachability below an element, reflexive reachability to a mark
    X = validate_mewo(3, NONTRANSITIVE, [False, False, True])
    assert down_plus_carrier(X, 2) == [0, 1]
    assert down_plus_carrier(X, 1) == [0]
    assert covered_mask(X) == [True, True, True]
    assert covered_mask(validate_mewo(3, NONTRANSITIVE, [False, True, False])) == [True, True, False]


def test_closure_empty_relation():
    X = validate_mewo(1, [[False]], [True])
    assert down_plus_carrier(X, 0) == []
    assert covered_mask(X) == [True]


def test_closure_idempotent(mewo_pool):
    # the reachability down_plus_carrier reads is transitively closed
    for X in mewo_pool:
        for x in range(X.size):
            below = down_plus_carrier(X, x)
            assert set(X.preds[x]) <= set(below)
            for y in below:
                assert set(down_plus_carrier(X, y)) <= set(below)


def test_is_covered_fixtures(fixtures_mewos):
    bullet, circ, cb, emp = fixtures_mewos
    assert not is_covered(circ)
    assert is_covered(cb)
    assert is_covered(emp)


def test_mark_all_covers(mewo_pool):
    for X in mewo_pool:
        assert is_covered(mark_all(X))
        assert mark_all(mark_all(X)) == mark_all(X)


def test_down_plus_two_chain(fixtures_mewos, u):
    bullet, _, cb, emp = fixtures_mewos
    assert mewo_equal(down_plus(cb, 1), bullet, u)
    assert down_plus(cb, 0) == emp


def test_down_plus_transitive_chain_marks_both():
    X = from_ordinal(chain(3))
    seg = down_plus(X, 2)
    assert seg.size == 2
    assert all(seg.marks)


def test_down_plus_always_covered(mewo_pool):
    assert segments_covered(mewo_pool) == []


def test_down_plus_injective(mewo_pool):
    assert segments_injective(SetUniverse(), mewo_pool) == []


def test_projection_from_segment_is_simulation(mewo_pool):
    for X in mewo_pool:
        target = mark_all(X)
        for x in range(X.size):
            seg = down_plus(X, x)
            assert is_simulation(seg, target, tuple(down_plus_carrier(X, x)))


def test_codes_two_chain(fixtures_mewos, u):
    _, _, cb, _ = fixtures_mewos
    cs = codes(cb, u)
    assert cs[0] == u.empty()
    assert cs[1] == u.mk_set([u.empty()])


def test_codes_of_marked_transitive_chains(u):
    for n in range(6):
        X = from_ordinal(chain(n))
        cs = codes(X, u)
        for k in range(n):
            assert cs[k] == u.von_neumann(k)


def test_codes_empty(u):
    emp = validate_mewo(0, [], [])
    assert len(codes(emp, u)) == 0


def test_codes_injective(mewo_pool, u):
    for X in mewo_pool:
        cs = codes(X, u)
        assert len({cs[i] for i in range(X.size)}) == X.size


def test_mewo_equal_basic(fixtures_mewos, u):
    bullet, circ, cb, _ = fixtures_mewos
    assert mewo_equal(cb, cb, u)
    assert not mewo_equal(bullet, circ, u)


def test_mewo_equal_permuted_copies(covered_pool):
    u = SetUniverse()
    for X in covered_pool:
        for perm in itertools.permutations(range(X.size)):
            try:
                Y = relabeled(X, perm)
            except ValidationError:
                continue
            assert mewo_equal(X, Y, u)


def test_mewo_equal_agrees_with_permutation_search(small_mewo_pool):
    assert mewo_decisions_match_oracle(SetUniverse(), itertools.product(small_mewo_pool, repeat=2)) == []


def test_simulation_fixture_missing_marking(fixtures_mewos, u):
    bullet, _, cb, _ = fixtures_mewos
    assert simulation_mewo(bullet, cb, u) is None


def test_simulation_into_mark_all(mewo_pool):
    u = SetUniverse()
    for X in mewo_pool:
        w = simulation_mewo(X, mark_all(X), u)
        assert w is not None and w.mapping == tuple(range(X.size))


def test_simulation_identity(fixtures_mewos, u):
    bullet, _, _, _ = fixtures_mewos
    w = simulation_mewo(bullet, bullet, u)
    assert w is not None and w.mapping == (0,)


def test_simulation_agrees_with_oracle(small_mewo_pool):
    assert mewo_decisions_match_oracle(SetUniverse(), itertools.product(small_mewo_pool, repeat=2)) == []


def test_simulations_compose_and_are_antisymmetric(small_mewo_pool):
    u = SetUniverse()
    pool = small_mewo_pool
    sims = {}
    for i, X in enumerate(pool):
        for j, Y in enumerate(pool):
            sims[i, j] = simulation_mewo(X, Y, u)
    for i, X in enumerate(pool):
        for j, Y in enumerate(pool):
            if sims[i, j] is not None and sims[j, i] is not None:
                assert mewo_equal(X, Y, u)
            for k, Z in enumerate(pool):
                if sims[i, j] is not None and sims[j, k] is not None:
                    composed = tuple(sims[j, k].mapping[y] for y in sims[i, j].mapping)
                    assert sims[i, k] is not None
                    assert composed == sims[i, k].mapping


def test_bounded_sim_fixtures(fixtures_mewos, u):
    bullet, _, cb, emp = fixtures_mewos
    got = bounded_sim_mewo(bullet, cb, u)
    assert got is not None and got[0] == 1
    assert bounded_sim_mewo(emp, bullet, u) is not None
    assert bounded_sim_mewo(emp, cb, u) is None


def test_bounded_sim_decides_on_codes_alone(small_mewo_pool, monkeypatch):
    # the bound is read off the codes: no segment, closure or equality is built
    import hfkit.mewos as mewos_module

    def forbidden(*args, **kwargs):
        raise AssertionError("bounded_sim_mewo must decide through codes alone")

    for name in ("down_plus", "down_plus_carrier", "mewo_equal"):
        monkeypatch.setattr(mewos_module, name, forbidden)
    assert mewo_decisions_match_oracle(SetUniverse(), itertools.product(small_mewo_pool, repeat=2)) == []


def test_bounded_sim_strictly_shrinks(covered_pool):
    u = SetUniverse()
    for X in covered_pool:
        for Y in covered_pool:
            if bounded_sim_mewo(X, Y, u) is not None:
                assert X.size < Y.size


def test_strict_then_weak_gives_strict(small_mewo_pool):
    assert strict_then_weak_is_strict(SetUniverse(), small_mewo_pool) == []


def test_strict_into_marked_closure(small_mewo_pool):
    assert strict_into_markall(SetUniverse(), small_mewo_pool) == []


def test_pointwise_code_criterion(small_mewo_pool):
    # a marking-preserving map is a simulation iff it preserves codes
    u = SetUniverse()
    for X in small_mewo_pool:
        for Y in small_mewo_pool:
            if X.size > 3 or Y.size > 3:
                continue
            cx, cy = codes(X, u), codes(Y, u)
            for f in itertools.product(range(Y.size), repeat=X.size):
                if any(X.marks[x] and not Y.marks[f[x]] for x in range(X.size)):
                    continue
                pointwise = all(cx[x] == cy[f[x]] for x in range(X.size))
                assert pointwise == is_simulation(X, Y, f)


def test_partial_sim_fixtures(fixtures_mewos, u):
    bullet, circ, cb, _ = fixtures_mewos
    assert partial_sim(bullet, cb, u) is None
    assert partial_sim(cb, cb, u) == {1: 1}
    assert partial_sim(circ, covered_part(circ), u) == {}


def test_partial_sim_into_covered_part(mewo_pool):
    u = SetUniverse()
    for X in mewo_pool:
        assert partial_sim(X, covered_part(X), u) is not None


def test_covered_part_fixtures(fixtures_mewos):
    bullet, circ, cb, emp = fixtures_mewos
    assert covered_part(circ) == emp
    assert covered_part(cb) == cb
    assert covered_part(mark_all(cb)) == mark_all(cb)


def test_covered_part_is_identity_iff_covered(mewo_pool):
    for X in mewo_pool:
        assert (covered_part(X) == X) == is_covered(X)
        assert is_covered(covered_part(X))


def test_principality_fixtures(fixtures_mewos, u):
    bullet, circ, cb, emp = fixtures_mewos
    assert principality_check(circ, emp, u) is False
    assert principality_check(cb, cb, u)
    assert principality_check(bullet, bullet, u)


def test_covered_is_principal_everywhere(covered_pool, small_mewo_pool):
    covered = [X for X in covered_pool if X.size <= 3]
    assert covering_is_principality(SetUniverse(), covered, small_mewo_pool) == []


def test_uncovered_fails_against_covered_part(mewo_pool):
    assert covering_is_principality(SetUniverse(), mewo_pool, ()) == []


def test_singleton_fixtures(fixtures_mewos, u):
    bullet, circ, cb, emp = fixtures_mewos
    assert mewo_equal(singleton(emp), bullet, u)
    assert mewo_equal(singleton(bullet), cb, u)
    with pytest.raises(ExtensionalityError):
        singleton(circ)


def test_singleton_of_covered_is_covered(covered_pool):
    for X in covered_pool:
        assert is_covered(singleton(X))


def test_singleton_keeps_the_validator_witness(mewo_pool):
    # the new top clashes with the element whose predecessors are the marked
    # ones, for a copy without codes and for one coded in a live universe,
    # whose singleton also carries codes
    u = SetUniverse()
    for X in mewo_pool:
        lt = [row + [mark] for row, mark in zip(rows(X), X.marks)] + [[False] * (X.size + 1)]
        marked = [False] * X.size + [True]
        bare, coded = Mewo(X.preds, X.marks), Mewo(X.preds, X.marks)
        codes(coded, u)
        for Y in (bare, coded):
            try:
                expected = validate_mewo(X.size + 1, lt, marked)
            except ExtensionalityError as exc:
                with pytest.raises(ExtensionalityError) as got:
                    singleton(Y)
                assert got.value.args == exc.args
            else:
                assert singleton(Y) == expected


def test_trusted_builders_agree_with_the_validator(mewo_pool, covered_pool, u):
    # the validator rebuilds preds from the matrix read off them: equal means same preds
    built = [from_ordinal(chain(n)) for n in range(5)]
    built.append(from_ordinal(ord_from_text("ord { size: 3; lt: 2<0, 2<1, 0<1 }")))
    for X in mewo_pool:
        built.append(covered_part(X))
        built += [down_plus(X, x) for x in range(X.size)]
    small = [X for X in covered_pool if X.size <= 3]
    built += [singleton(X) for X in covered_pool]
    built += [union([X, Y], u) for X in small for Y in small[:12]]
    for Z in built:
        assert relabeled(Z, range(Z.size)) == Z


def _universe_state(u):
    """Per attribute of u: its size, or the value itself when it has none,
    and every Mewo found in an attribute or one level inside one."""
    sizes, held = {}, []
    for key, value in vars(u).items():
        parts = [value]
        if isinstance(value, dict):
            parts += [*value, *value.values()]
        elif isinstance(value, (list, tuple, set)):
            parts += list(value)
        held += [p for p in parts if isinstance(p, Mewo)]
        sizes[key] = len(value) if hasattr(value, "__len__") else value
    return sizes, held


def test_codes_cache_keeps_no_state_on_the_universe(mewo_pool):
    u = SetUniverse()
    for X in mewo_pool:
        codes(X, u)
        before = len(u)
        codes(relabeled(X, range(X.size)), u)  # an equal structure
        codes(X, u)
        assert len(u) == before
    assert _universe_state(u)[1] == []
    # 2,048 distinct mewos: the sets of the subsets of the first 11 numerals
    v = SetUniverse()
    numerals = [v.von_neumann(k) for k in range(11)]
    family = [mewo_of_set(v.mk_set(s)) for r in range(12) for s in itertools.combinations(numerals, r)]
    assert len(set(family)) == 2048
    u = SetUniverse()
    top = from_ordinal(chain(11))
    simulation_mewo(top, top, u)
    sizes, _ = _universe_state(u)
    for X in family:
        assert simulation_mewo(X, top, u) is not None
    after, held = _universe_state(u)
    assert held == []
    # only the arena grew, by the 2,048 sets the family presents
    assert after["_children"] == after["_intern"] == sizes["_children"] + 2048 - 12
    assert {k: v for k, v in after.items() if k not in ("_children", "_intern")} == {
        k: v for k, v in sizes.items() if k not in ("_children", "_intern")
    }


def test_codes_cache_shared_by_threads_in_two_universes(covered_pool, u):
    # the threads flip the cache of each mewo between two universes while reading it
    pool = [Mewo(X.preds, X.marks) for X in covered_pool[:20]]  # fresh copies, no cache yet
    expected = [simulation_mewo(X, Y, u) for X in covered_pool[:20] for Y in covered_pool[:20]]
    universes = [SetUniverse(), SetUniverse()]
    h = universes[1].empty()
    for _ in range(10):  # so that one set has different ids in the two universes
        h = universes[1].mk_set([h])
    results = [None] * 4

    def worker(k):
        results[k] = [simulation_mewo(X, Y, universes[(k + i) % 2])
                      for i, (X, Y) in enumerate(itertools.product(pool, pool))]

    race(*(partial(worker, k) for k in range(4)))
    assert all(r == expected for r in results)


def _decide_all(pool, u) -> list[tuple]:
    return [(simulation_mewo(X, Y, u), bounded_sim_mewo(X, Y, u), mewo_equal(X, Y, u),
             principality_check(X, Y, u), partial_sim(X, Y, u)) for X in pool for Y in pool]


def test_cached_cover_agrees_with_the_code_count(mewo_pool):
    # X is covered exactly when the set its marked elements present has
    # X.size hereditary members: the codes of the covered elements
    randoms = list(gen_random_mewo(GenConfig(seed=16, max_width=6, count=200)))
    u = SetUniverse()
    for X in mewo_pool + randoms:
        Y = Mewo(X.preds, X.marks)  # a fresh copy: no cover or codes kept yet
        covered = is_covered(Y)
        assert Y._covered is covered and is_covered(Y) is covered
        assert covered == (len(u._below_ids(_collapse(Y, u)[0][Y.size])) == Y.size)
    assert {is_covered(X) for X in randoms} == {True, False}


def test_warm_decisions_walk_nothing(mewo_pool, monkeypatch):
    # once cover and codes are kept on the mewos, a sweep only reads them
    pool = [Mewo(X.preds, X.marks) for X in mewo_pool]
    u = SetUniverse()
    warm = _decide_all(pool, u)

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm decision walked the mewo or the universe")

    import hfkit.mewos as mewos_module

    monkeypatch.setattr(mewos_module, "_below", forbidden)
    for name in ("_below_ids", "_collapse_ids"):
        monkeypatch.setattr(SetUniverse, name, forbidden)
    assert _decide_all(pool, u) == warm


def test_decisions_on_fresh_copies_shared_by_threads(mewo_pool):
    # four threads race to fill the cover and codes of the same fresh copies
    originals = mewo_pool[::3]  # covered and uncovered, sizes 0 to 4
    expected = _decide_all(originals, SetUniverse())
    pool = [Mewo(X.preds, X.marks) for X in originals]
    universes = [SetUniverse(), SetUniverse()]
    results = [None] * 4

    def worker(k):
        results[k] = _decide_all(pool, universes[k % 2])

    race(*(partial(worker, k) for k in range(4)))
    assert all(r == expected for r in results)


def test_union_fixtures(fixtures_mewos, u):
    bullet, _, cb, emp = fixtures_mewos
    assert union([], u) == emp
    two_marked = from_ordinal(chain(2))
    assert mewo_equal(union([two_marked, cb], u), two_marked, u)
    for X in (bullet, cb, two_marked):
        assert mewo_equal(union([X], u), X, u)


def _fresh_collapse(Z, u):
    """The collapse of a copy of Z that carries nothing."""
    return _collapse(Mewo(Z.preds, Z.marks), u)


def test_union_and_singleton_carry_their_codes(covered_pool, monkeypatch):
    def refuse(*args):
        raise AssertionError("carried codes need no collapse")

    u, v = SetUniverse(), SetUniverse()
    h = v.empty()
    for _ in range(10):  # so that the codes have other ids in v
        h = v.mk_set([h])
    families = [[]] + [[X] for X in covered_pool] + [list(p) for p in zip(covered_pool, covered_pool[::-3])]
    for fam in families:
        for X in fam:
            _collapse(X, u)
        with monkeypatch.context() as m:
            m.setattr(u, "_collapse_ids", refuse)
            Z = union(fam, u)
            S = singleton(Z)
            carried = [_collapse(Z, u), _collapse(S, u)]
        assert carried == [_fresh_collapse(Z, u), _fresh_collapse(S, u)]
        assert [_collapse(Z, v), _collapse(S, v)] == [_fresh_collapse(Z, v), _fresh_collapse(S, v)]


def test_a_singleton_of_an_uncoded_singleton_codes_like_a_fresh_copy(covered_pool):
    # S1 stores the codes of X plus its top's when it is built, and S2
    # extends those once more: two tops, each coded as the set below it presents
    u = SetUniverse()
    for X in covered_pool:
        _collapse(X, u)
        S2 = singleton(singleton(X))
        assert _collapse(S2, u) == _fresh_collapse(S2, u)


def test_a_singleton_interns_at_most_the_set_it_presents(covered_pool):
    u = SetUniverse()
    for X in covered_pool:
        X = Mewo(X.preds, X.marks)  # a copy that carries no codes
        assert singleton(X)._collapsed is None  # so its singleton has none to store
        codes(X, u)
        before = len(u)
        S = singleton(X)
        assert S._collapsed[0]() is u and len(u) - before <= 1
        ids, index, codes_s, marked = _collapse(S, u)
        assert (ids, index, codes_s, marked) == _fresh_collapse(S, u)
        assert marked == {_collapse(X, u)[0][-1]}  # the top's code: the set X presents
        assert codes_s == _collapse(X, u)[2] | marked
        assert len(u) == before or ids[-1] == before  # the one new set is the set S presents


def test_a_singleton_of_a_mewo_coded_in_a_full_universe_interns_nothing(covered_pool):
    for X in covered_pool:
        probe = SetUniverse()
        codes(X, probe)
        u = SetUniverse(node_limit=len(probe))  # the sets coding X fill it
        codes(X, u)
        with pytest.raises(LimitExceededError):
            singleton(X)
        assert len(u) == len(probe)


def test_a_singleton_of_a_mewo_whose_universe_was_collected_carries_nothing():
    X = from_ordinal(chain(2))
    codes(X, SetUniverse())
    gc.collect()
    assert X._collapsed[0]() is None
    S = singleton(X)
    assert S._collapsed is None
    u = SetUniverse()
    assert _collapse(S, u) == _fresh_collapse(S, u)


def test_a_record_kept_for_a_collected_universe_is_not_read_for_a_fresh_one():
    # the record names its universe by the weakref it keeps alive, so no new
    # universe passes the identity check, not even one at the collected
    # universe's address (CPython reuses it at once); the loop stops there
    for _ in range(50):
        X = from_ordinal(chain(3))
        old = SetUniverse()
        stale, address = _collapse(X, old)[0], id(old)
        del old
        assert X._collapsed[0]() is None
        u = SetUniverse()
        h = u.empty()
        for _ in range(10):  # so that X's codes have other ids in u
            h = u.mk_set([h])
        assert _collapse(X, u) == _fresh_collapse(X, u) and _collapse(X, u)[0] != stale
        assert X._collapsed[0] is u._ref
        if id(u) == address:
            break


@pytest.mark.parametrize("decide", [simulation_mewo, bounded_sim_mewo, mewo_equal, principality_check],
                         ids=lambda f: f.__name__)
def test_decisions_on_records_of_two_universes_answer_as_on_fresh_copies(decide, small_mewo_pool):
    # X keeps its record for A and Y its record for B; A interns a chain of
    # singletons first, so that most codes have other ids in A than in B. In
    # A, in B and in a fresh C each decision must read only the records of
    # the universe it is given. D holds the answers on fresh copies
    A, B, D = SetUniverse(), SetUniverse(), SetUniverse()
    h = A.empty()
    for _ in range(6):
        h = A.mk_set([h])
    for X in small_mewo_pool:
        for Y in small_mewo_pool:
            want = decide(Mewo(X.preds, X.marks), Mewo(Y.preds, Y.marks), D)
            for u in (A, B, SetUniverse()):
                x, y = Mewo(X.preds, X.marks), Mewo(Y.preds, Y.marks)
                _collapse(x, A)
                _collapse(y, B)
                is_covered(x)
                assert decide(x, y, u) == want, (X, Y, u)


@pytest.mark.parametrize("decide", [simulation_mewo, bounded_sim_mewo, mewo_equal, principality_check, partial_sim],
                         ids=lambda f: f.__name__)
def test_coinciding_codes_are_an_extensionality_error(decide):
    # `Mewo(...)` trusts its input. Two elements with the same predecessors
    # get the same code; the decisions refuse such a mewo in either place,
    # naming a pair with the same predecessors, and keep no record for it
    # and no set its walk interned.
    # This was an `assert`, so `python -O` answered: the first mewo equaled
    # a one-element mewo, with a simulation that is not injective. In the
    # third, 0 and 1 share a code too, but their predecessors differ; in the
    # last, the least code, that of 0, is not shared
    one = from_ordinal(chain(1))
    for bad, pair in [(Mewo(((), ()), (True, False)), (0, 1)), (Mewo(((), ()), (True, True)), (0, 1)),
                      (Mewo(((2,), (3,), (), ()), (True,) * 4), (2, 3)), (Mewo(((), (0,), (0,)), (True,) * 3), (1, 2))]:
        for args in ((bad, one), (one, bad)):
            u = SetUniverse()
            u.von_neumann(1)  # the sets of `one`, so that only `bad` could intern more
            if args[0] is bad and not is_covered(bad) and decide is bounded_sim_mewo:
                assert decide(*args, u) is None  # an uncovered mewo is no segment; its codes are not read
                continue
            size = len(u)
            with pytest.raises(ExtensionalityError, match=f"^elements {pair[0]} and {pair[1]} have") as e:
                decide(*args, u)
            assert e.value.pair == pair and bad._collapsed is None and len(u) == size
            assert set(bad.preds[pair[0]]) == set(bad.preds[pair[1]])
        v = SetUniverse()
        with pytest.raises(ExtensionalityError, match=f"^elements {pair[0]} and {pair[1]} have"):
            set_of_mewo(bad, v)
        assert bad._collapsed is None and len(v) == 0


def test_union_of_covered_is_covered(covered_pool, u):
    assert unions_are_covered(u, [X for X in covered_pool if X.size <= 2]) == []


def test_union_is_least_upper_bound(covered_pool, mewo_pool):
    members = [X for X in covered_pool if X.size <= 2]
    bounds = [Y for Y in mewo_pool if Y.size <= 3]
    assert unions_are_least_upper_bounds(SetUniverse(), members, bounds) == []


def test_extensionality_of_strict_order_on_covered(covered_pool):
    # distinct covered mewos differ in some strict predecessor, witnessed
    # by the sets their marked elements denote
    u = SetUniverse()
    seen = {}
    for X in covered_pool:
        cs = codes(X, u)
        key = frozenset(cs[x] for x in X.marked_elements())
        assert key not in seen, "two distinct covered mewos share all predecessors"
        seen[key] = X


def test_from_ordinal(fixtures_mewos):
    _, _, _, emp = fixtures_mewos
    assert from_ordinal(chain(0)) == emp
    X = from_ordinal(chain(2))
    assert all(X.marks) and X.preds == ((), (0,))
    for n in range(5):
        assert is_covered(from_ordinal(chain(n)))


def test_text_roundtrip(fixtures_mewos, mewo_pool):
    bullet, circ, cb, emp = fixtures_mewos
    assert mewo_to_text(cb) == "mewo { elems: a b; lt: a<b; marked: b }"
    assert repr(cb) == "Mewo(size=2, lt=[(0, 1)], marked=[1])"
    for X in list(fixtures_mewos) + mewo_pool[:40]:
        assert mewo_from_text(mewo_to_text(X)) == X


def test_json_roundtrip(fixtures_mewos, mewo_pool):
    for X in list(fixtures_mewos) + mewo_pool[:40]:
        assert mewo_from_json(mewo_to_json(X)) == X


def test_text_errors():
    with pytest.raises(ValueError):
        mewo_from_text("mewo { elems: a a; lt: ; marked: }")
    with pytest.raises(ValueError):
        mewo_from_text("mewo { elems: a; lt: a<b; marked: }")


def test_text_reader_wants_the_exact_header(fixtures_mewos):
    bullet, _, _, emp = fixtures_mewos
    assert mewo_from_text("mewo{elems:a;lt:;marked:a}") == bullet
    assert mewo_from_text("mewo { }") == emp
    for text in ("mewox { }", "mewos { elems: a; lt: ; marked: a }", "mewo elems: a }", "mewo }"):
        with pytest.raises(ValueError, match="expected"):
            mewo_from_text(text)


def test_json_rejects_undeclared_names():
    with pytest.raises(ValueError, match="c"):
        mewo_from_json({"elems": ["a", "b"], "lt": [["a", "c"]], "marked": ["b"]})
    with pytest.raises(ValueError, match="z"):
        mewo_from_json({"elems": ["a"], "lt": [], "marked": ["z"]})


def test_text_reader_accepts_repeated_clauses():
    # elems and marked keep their last clause, lt clauses accumulate
    X = mewo_from_text(
        "mewo { elems: a; elems: a b c; lt: a<b; lt: a<c, b<c; marked: a; marked: c }"
    )
    assert mewo_to_text(X) == "mewo { elems: a b c; lt: a<b, a<c, b<c; marked: c }"
    with pytest.raises(ValueError, match="unknown clause 'mark'"):
        mewo_from_text("mewo { elems: a; mark: a }")


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"elems": ["a", "b"], "marked": ["b"]}, "lt"),
        ({"elems": 5, "lt": [], "marked": []}, "elems"),
        ({"elems": ["a"], "lt": []}, "marked"),
        ({"elems": ["a", "b"], "lt": [["a"]], "marked": []}, "lt"),
        ({"elems": ["a", "b"], "lt": [["a", 1]], "marked": []}, "lt"),
        ({"elems": [["a"]], "lt": [], "marked": []}, "elems"),
        (["a"], "elems"),
    ],
)
def test_json_rejects_malformed_documents(doc, key):
    with pytest.raises(ValueError, match=f"'{key}'"):
        mewo_from_json(doc)


def test_codes_cache_dies_with_its_universe(fixtures_mewos):
    _, _, cb, _ = fixtures_mewos
    scratch = SetUniverse()
    codes(cb, scratch)
    ref = weakref.ref(scratch)
    del scratch
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("n, names", [(26, [chr(ord("a") + i) for i in range(26)]),
                                      (27, [f"v{i}" for i in range(27)])])
def test_names_are_letters_up_to_26_elements(n, names):
    X = from_ordinal(chain(n))
    assert mewo_to_text(X).startswith(f"mewo {{ elems: {' '.join(names)}; lt: {names[0]}<{names[1]}, ")
    assert mewo_to_json(X)["elems"] == names and mewo_to_json(X)["marked"] == names
    dot = mewo_to_dot(X).splitlines()
    assert [line.split()[0] for line in dot[1:n + 1]] == names and f"  {names[-2]} -> {names[-1]};" in dot
    assert mewo_from_text(mewo_to_text(X)) == X and mewo_from_json(mewo_to_json(X)) == X


def test_dot_marks_filled(fixtures_mewos):
    _, _, cb, _ = fixtures_mewos
    dot = mewo_to_dot(cb)
    assert "a -> b" in dot
    assert dot.count("style=filled") == 1


def test_equality_and_principality_keep_their_former_definitions(mewo_pool):
    # the definitions the code-read answers must meet: equality is a
    # simulation between equal sizes that reflects the marking, and
    # principality is a simulation existing exactly when a partial one does
    u = SetUniverse()
    for X in mewo_pool:
        for Y in mewo_pool:
            w = simulation_mewo(X, Y, u)
            reflects = w is not None and X.size == Y.size and X.marks == tuple(Y.marks[y] for y in w.mapping)
            assert mewo_equal(X, Y, u) == reflects, (X, Y)
            assert principality_check(X, Y, u) == ((w is not None) == (partial_sim(X, Y, u) is not None)), (X, Y)


def test_decisions_agree_with_the_oracles_in_each_cell_of_the_two_inclusions(small_mewo_pool):
    # each pair sits in one cell of (T_X <= T_Y, M_X <= M_Y), the codes of all
    # elements and of the marked ones; the two mixed cells are the early
    # exits, codes included but marking not and the reverse
    u = SetUniverse()
    cells = set()
    pairs = list(itertools.product(small_mewo_pool, repeat=2))
    for X, Y in pairs:
        cx, cy = codes(X, u), codes(Y, u)
        marked_x, marked_y = set(itertools.compress(cx, X.marks)), set(itertools.compress(cy, Y.marks))
        assert _collapse(X, u)[2:] == ({h.id for h in cx}, {h.id for h in marked_x})
        cell = (set(cx) <= set(cy), marked_x <= marked_y)
        cells.add(cell)
        decided = (simulation_mewo(X, Y, u) is not None, partial_sim(X, Y, u) is not None)
        assert decided == (all(cell), cell[1]), (X, Y)
    assert cells == set(itertools.product((False, True), repeat=2))
    assert mewo_decisions_match_oracle(u, pairs) + partial_sims_match_oracle(u, pairs) == []


@pytest.mark.parametrize("decide", [simulation_mewo, bounded_sim_mewo, mewo_equal, principality_check, partial_sim],
                         ids=lambda f: f.__name__)
def test_a_non_mewo_is_a_typed_error(decide):
    # covered and uncovered partners, the FinOrd of the same size as one of
    # them; a partner coded in the universe passed (its record and cover
    # kept) takes the decisions' inline reads, which must refuse the same
    for good in (from_ordinal(chain(2)), Mewo(((),), (False,))):
        for coded in (False, True):
            u = SetUniverse()
            if coded:
                _collapse(good, u)
                is_covered(good)
            for bad in (chain(2), "x", None):
                for args in ((good, bad), (bad, good)):
                    with pytest.raises(ValidationError, match=f"expected a Mewo, got {type(bad).__name__}$"):
                        decide(*args, u)
                assert good._collapsed is None or good._collapsed[0] is u._ref


def test_cover_of_a_non_mewo_is_a_typed_error():
    for bad in (chain(2), "x", None):
        with pytest.raises(ValidationError, match=f"expected a Mewo, got {type(bad).__name__}$"):
            is_covered(bad)
