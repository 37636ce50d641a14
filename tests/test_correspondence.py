from __future__ import annotations

import gc
import random
import sys
import time
import tracemalloc

import pytest

import hfkit.ordinals
from hfkit import (
    SizeLimitError,
    bisimilar,
    enumerate_mewos,
    import_slice,
    is_hereditarily_transitive,
    mem_raw,
    mewo_from_text,
    ord_from_json,
    ord_from_text,
    parse,
    parse_program,
    ForeignHandleError,
    FormatError,
    GenConfig,
    LimitExceededError,
    NotAnOrdinalError,
    PointedGraph,
    Session,
    SetHandle,
    SetUniverse,
    ValidationError,
    bounded_sim,
    bounded_sim_mewo,
    canon,
    chain,
    codes,
    covered_part,
    down,
    down_plus,
    elements_ordinal,
    export_slice,
    enumerate_v,
    from_ordinal,
    gen_random_mewo,
    gen_random_set,
    mark_all,
    mewo_equal,
    mewo_of_set,
    mewo_of_set_literal,
    mewo_to_dot,
    mewo_to_json,
    mewo_to_text,
    order_type,
    partial_sim,
    principality_check,
    ord_to_json,
    ord_to_text,
    rank_ordinal,
    rank_quotient,
    same_order_type,
    set_of_mewo,
    set_of_ordinal,
    set_to_dot,
    simulation,
    simulation_mewo,
    singleton,
    sup,
    sup_classes,
    union,
    ord_sum,
    validate_mewo,
    validate_ord,
)
from hfkit.mewos import covered_mask
from hfkit.suites import _relabeled, mewo_transport, order_transport, ordinal_roundtrips, set_mewo_roundtrips
from conftest import relabeled


def test_set_of_ordinal_base(u):
    assert set_of_ordinal(chain(0), u) == u.empty()


def test_set_of_ordinal_chains_are_numerals(u):
    for n in range(9):
        assert set_of_ordinal(chain(n), u) == u.von_neumann(n)
        assert u.is_st_ordinal(set_of_ordinal(chain(n), u))


def test_set_of_ordinal_membership_transport(u):
    h2 = set_of_ordinal(chain(2), u)
    h3 = set_of_ordinal(chain(3), u)
    assert bounded_sim(chain(2), chain(3)) is not None
    assert u.mem(h2, h3)


def _at_default_recursion_limit(fn):
    """Run fn at CPython's default recursion limit; return (result, seconds)."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        t0 = time.perf_counter()
        got = fn()
        return got, time.perf_counter() - t0
    finally:
        sys.setrecursionlimit(limit)


def test_set_of_ordinal_at_the_numeral_bound(u):
    # depth 1024 exceeds the default recursion limit; the evaluation is iterative
    h, seconds = _at_default_recursion_limit(lambda: set_of_ordinal(chain(1024), u))
    assert h == u.von_neumann(1024)
    assert seconds < 2.0


def test_phi_is_the_set_of_the_all_marked_mewo(u):
    # phi runs on lengths; the collapse of from_ordinal is the literal recursion
    for alpha in [_relabeled(n) for n in range(65)] + [chain(1024)]:
        assert set_of_mewo(from_ordinal(alpha), u) == set_of_ordinal(alpha, u)


def test_a_refused_numeral_interns_nothing():
    tight = SetUniverse(node_limit=5)
    tight.mk_set([tight.mk_set([])])
    for refused in (lambda: set_of_ordinal(chain(7), tight), lambda: tight.von_neumann(7)):
        with pytest.raises(LimitExceededError):
            refused()
        assert len(tight) == 2
    assert set_of_ordinal(chain(4), tight) == tight.von_neumann(4) and len(tight) == 5


def test_rank_ordinal_at_the_numeral_bound(u):
    h = u.von_neumann(1024)
    alpha, seconds = _at_default_recursion_limit(lambda: rank_ordinal(h))
    assert alpha == chain(1024) and order_type(alpha) == u.rank_nat(h) == 1024
    assert seconds < 2.0


def test_elements_ordinal_at_the_numeral_bound(u, monkeypatch):
    # positions are read off id order: no membership test and no validation
    def refuse(*args):
        raise AssertionError("elements_ordinal must not call this")

    monkeypatch.setattr(SetUniverse, "mem", refuse)
    monkeypatch.setattr(hfkit.ordinals, "_checked_ord", refuse)
    h = u.von_neumann(1024)
    alpha, seconds = _at_default_recursion_limit(lambda: elements_ordinal(h))
    assert alpha == chain(1024)
    assert seconds < 2.0


def test_rank_ordinal_of_a_deep_chain_builds_one_chain(u):
    # a chain per hereditary member would hold 3000 * 2999 / 2 positions
    h = u.empty()
    for _ in range(3000):
        h = u.mk_set([h])
    tracemalloc.start()
    try:
        alpha = rank_ordinal(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert alpha == chain(3000)


def test_rank_ordinal_base(u):
    assert order_type(rank_ordinal(u.empty())) == 0


def test_rank_ordinal_unfolds(u):
    # {{0}} has one member of rank 1, so its rank is sup((1)+1) = 2
    h = u.mk_set([u.mk_set([u.empty()])])
    expected = sup([ord_sum(sup([ord_sum(chain(0), chain(1))]), chain(1))])
    assert same_order_type(rank_ordinal(h), expected)
    assert order_type(rank_ordinal(h)) == 2


def test_rank_ordinal_on_numerals(u):
    for n in range(10):
        assert order_type(rank_ordinal(u.von_neumann(n))) == n


def test_rank_ordinal_matches_rank_nat(u):
    def literal(h):  # the recursion on ordinals: sup over members of (member rank) + 1
        return sup([ord_sum(literal(m), chain(1)) for m in u.elements(h)])

    for h in gen_random_set(GenConfig(seed=2, max_width=4, max_depth=4, count=80), u):
        assert order_type(rank_ordinal(h)) == u.rank_nat(h)
        assert rank_ordinal(h) == literal(h)


def test_rank_ordinal_accepts_non_ordinals(u):
    h = u.mk_set([u.mk_set([u.empty()])])
    assert not u.is_st_ordinal(h)
    assert order_type(rank_ordinal(h)) == 2


def test_roundtrip_on_enumerated_ordinals(u):
    assert ordinal_roundtrips(u, [h for h in enumerate_v(4, u) if u.is_st_ordinal(h)], ()) == []


def test_roundtrip_on_ordinal_structures(u):
    assert ordinal_roundtrips(u, (), [chain(n) for n in range(9)]) == []


def test_order_transport_both_ways(u):
    assert order_transport(u, [chain(i) for i in range(5)]) == []


def test_rank_quotient_redundant_presentation(u):
    e = u.empty()
    se = u.mk_set([e])
    two = u.mk_set([e, se])
    q = rank_quotient(two, [e, se, e])
    assert q.classes == ((0, 2), (1,))
    assert q.ordinal == chain(2)


def test_rank_quotient_empty(u):
    q = rank_quotient(u.empty(), [])
    assert q.classes == ()
    assert order_type(q.ordinal) == 0


def test_rank_quotient_matches_recursive_rank(u):
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(0, 5)
        h = u.von_neumann(n)
        pres = u.elements(h)
        pres = pres + rng.choices(pres, k=rng.randint(0, 3)) if pres else []
        rng.shuffle(pres)
        q = rank_quotient(h, pres)
        assert same_order_type(q.ordinal, rank_ordinal(h))
        # classes partition the presentation indices by denotation
        flat = sorted(i for cls in q.classes for i in cls)
        assert flat == list(range(len(pres)))
        for cls in q.classes:
            assert len({pres[i].id for i in cls}) == 1


def test_rank_quotient_precondition_errors(u):
    e = u.empty()
    se = u.mk_set([e])
    with pytest.raises(NotAnOrdinalError):
        rank_quotient(u.mk_set([se]), [se])  # {{0}} is not hereditarily transitive
    with pytest.raises(NotAnOrdinalError):
        rank_quotient(u.mk_set([e, se]), [e])  # presentation misses a member


def test_rank_quotient_refusal_interns_nothing(u):
    e = u.empty()
    one = u.mk_set([e])
    two = u.mk_set([e, one])
    before = len(u)
    with pytest.raises(NotAnOrdinalError):
        rank_quotient(two, [one])  # the presentation denotes {{0}}, which is not interned
    with pytest.raises(NotAnOrdinalError):
        rank_quotient(two, [two, e])
    with pytest.raises(ForeignHandleError):
        rank_quotient(two, [e, SetUniverse().empty()])
    assert len(u) == before
    assert rank_quotient(two, [one, e, one]).classes == ((0, 2), (1,))


def test_slice_readers_refuse_a_non_handle():
    for call in (export_slice, mewo_of_set, mewo_of_set_literal):
        for h in ("x", 42, None, SetHandle("not a universe", 0)):
            with pytest.raises(ForeignHandleError, match="is not a handle of a set universe"):
                call(h)


def test_elements_ordinal(u):
    assert order_type(elements_ordinal(u.empty())) == 0
    assert elements_ordinal(u.von_neumann(3)) == chain(3)
    with pytest.raises(NotAnOrdinalError):
        elements_ordinal(u.mk_set([u.mk_set([u.empty()])]))


def test_elements_ordinal_isomorphic_to_rank(u):
    for h in enumerate_v(4, u):
        if u.is_st_ordinal(h):
            assert same_order_type(elements_ordinal(h), rank_ordinal(h))


def test_set_of_mewo_fixtures(fixtures_mewos, u):
    bullet, _, cb, emp = fixtures_mewos
    assert set_of_mewo(emp, u) == u.empty()
    assert set_of_mewo(cb, u) == u.mk_set([u.mk_set([u.empty()])])
    assert set_of_mewo(bullet, u) == u.mk_set([u.empty()])


def test_mewo_of_set_fixtures(fixtures_mewos, u):
    bullet, _, cb, emp = fixtures_mewos
    assert mewo_equal(mewo_of_set(u.empty()), emp, u)
    assert mewo_equal(mewo_of_set(u.mk_set([u.mk_set([u.empty()])])), cb, u)
    assert mewo_equal(mewo_of_set(u.von_neumann(2)), from_ordinal(chain(2)), u)


def test_mewo_of_set_literal_agrees(u):
    for h in gen_random_set(GenConfig(seed=13, max_width=4, max_depth=4, count=60), u):
        assert mewo_equal(mewo_of_set(h), mewo_of_set_literal(h), u)


def test_mewo_of_set_literal_below_the_recursion_limit(u, low_recursion_limit):
    # a 400-deep singleton chain with the limit at 150: the recursion runs bottom-up
    h = u.empty()
    for _ in range(400):
        h = u.mk_set([h])
    assert mewo_of_set_literal(h) == mewo_of_set(h)


def test_mewo_of_set_literal_equals_the_fast_path(u):
    # numerals list their classes in handle order on both paths, so they are equal
    for n in range(65):
        assert mewo_of_set_literal(u.von_neumann(n)) == mewo_of_set(u.von_neumann(n))
    # a union lists its classes in order of first appearance, which can differ
    # from handle order, so random sets agree as marked orders
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 12)
        succ = [[rng.randrange(v) for _ in range(rng.randint(0, min(v, 3)))] for v in range(n)]
        h = u.from_graph(PointedGraph.make(succ, root=n - 1))
        assert mewo_equal(mewo_of_set_literal(h), mewo_of_set(h), u)


def test_mewo_of_set_on_the_large_collapse_root():
    # the root of the acceptance-9 DAG has 32,673 hereditary members: an n x n
    # matrix would take about 1 GB, the predecessor tuples take a few MB
    rng = random.Random(99)
    succ = [()] + [
        tuple(rng.randrange(max(0, v - 50), v) for _ in range(rng.randint(0, 3)))
        for v in range(1, 100_000)
    ]
    u = SetUniverse()
    root = u.from_graph(PointedGraph(len(succ), tuple(succ), len(succ) - 1))
    t0 = time.perf_counter()
    X = mewo_of_set(root)
    assert time.perf_counter() - t0 < 5.0
    assert X.size == len(u.hereditary_members(root))
    assert set_of_mewo(X, u) == root


def test_mewo_of_set_agrees_with_the_validator(u):
    for h in gen_random_set(GenConfig(seed=15, max_width=4, max_depth=4, count=40), u):
        X = mewo_of_set(h)
        assert relabeled(X, range(X.size)) == X


def test_mewo_of_set_is_covered(u):
    from hfkit import is_covered

    for h in gen_random_set(GenConfig(seed=14, max_width=4, max_depth=4, count=40), u):
        assert is_covered(mewo_of_set(h))


def test_set_mewo_roundtrip_on_sets(u):
    for h in enumerate_v(4, u):
        assert set_of_mewo(mewo_of_set(h), u) == h


def test_set_mewo_roundtrip_on_covered(covered_pool, u):
    assert set_mewo_roundtrips(u, (), covered_pool) == []


def test_simulation_transport(covered_pool):
    assert mewo_transport(SetUniverse(), [X for X in covered_pool if X.size <= 3]) == []


def test_square_commutes(u):
    for n in range(7):
        left = mewo_of_set(set_of_ordinal(chain(n), u))
        assert mewo_equal(left, from_ordinal(chain(n)), u)


def _coded_in_a_dropped_universe():
    """A mewo whose codes are kept for a universe that has been collected."""
    X = from_ordinal(chain(2))
    set_of_mewo(X, SetUniverse())
    gc.collect()
    assert X._collapsed[0]() is None
    return X


@pytest.mark.parametrize("call", [
    lambda X, u: mewo_equal(X, X, u),
    lambda X, u: simulation_mewo(X, X, u),
    lambda X, u: bounded_sim_mewo(X, X, u),
    lambda X, u: partial_sim(X, X, u),
    lambda X, u: principality_check(X, X, u),
    lambda X, u: union([X], u),
    lambda X, u: codes(X, u),
    lambda X, u: set_of_mewo(X, u),
], ids=["mewo_equal", "simulation_mewo", "bounded_sim_mewo", "partial_sim", "principality_check", "union", "codes",
        "set_of_mewo"])
def test_no_mewo_operation_takes_none_for_a_universe(call):
    # neither a mewo without codes, nor one whose codes name a collected
    # universe, nor one holding a record for a live universe is answered
    # for None or another kind: the dead codes are never read, and the
    # identity test against the record's universe lets no other kind by
    live = SetUniverse()
    coded = from_ordinal(chain(2))
    codes(coded, live)
    for X in (from_ordinal(chain(2)), _coded_in_a_dropped_universe(), coded):
        for bad in (None, "u", 3, from_ordinal(chain(1))):
            with pytest.raises(ValidationError, match=f"^expected a SetUniverse, got {type(bad).__name__}$"):
                call(X, bad)
    assert coded._collapsed[0] is live._ref


# Ordinal-side values of the wrong kind or out of range. Each is refused, as
# an HfkitError or, for an element index, as the IndexError of an index out
# of range; none is accepted and none ends in an AttributeError, and no
# universe argument but a SetUniverse is taken.
@pytest.mark.parametrize("call, error", [
    pytest.param(lambda u: chain(-1), ValidationError, id="chain(-1)"),
    pytest.param(lambda u: chain(True), ValidationError, id="chain(True)"),
    pytest.param(lambda u: validate_ord(True, [[0]]), ValidationError, id="validate_ord(True)"),
    pytest.param(lambda u: validate_mewo(True, [[0]], [1]), ValidationError, id="validate_mewo(True)"),
    pytest.param(lambda u: down(chain(3), True), IndexError, id="down(True)"),
    pytest.param(lambda u: down_plus(from_ordinal(chain(3)), True), IndexError, id="down_plus(True)"),
    pytest.param(lambda u: set_of_ordinal("a", u), ValidationError, id="set_of_ordinal(str)"),
    pytest.param(lambda u: rank_ordinal(3), ForeignHandleError, id="rank_ordinal(int)"),
    pytest.param(lambda u: elements_ordinal(3), ForeignHandleError, id="elements_ordinal(int)"),
    pytest.param(lambda u: rank_quotient(3, []), ForeignHandleError, id="rank_quotient(int)"),
    pytest.param(lambda u: set_of_ordinal(chain(3), "u"), ValidationError, id="set_of_ordinal(u=str)"),
    pytest.param(lambda u: set_of_mewo(from_ordinal(chain(1)), "u"), ValidationError, id="set_of_mewo(u=str)"),
    pytest.param(lambda u: codes(from_ordinal(chain(1)), 3), ValidationError, id="codes(u=int)"),
    pytest.param(lambda u: simulation_mewo(from_ordinal(chain(1)), from_ordinal(chain(1)), "u"),
                 ValidationError, id="simulation_mewo(u=str)"),
    pytest.param(lambda u: union([], "u"), ValidationError, id="union(u=str)"),
    pytest.param(lambda u: union([], None), ValidationError, id="union(u=None)"),
    pytest.param(lambda u: set_of_mewo(_coded_in_a_dropped_universe(), None), ValidationError,
                 id="set_of_mewo(u=None) after its universe is gone"),
    pytest.param(lambda u: codes(_coded_in_a_dropped_universe(), None), ValidationError,
                 id="codes(u=None) after its universe is gone"),
    # each argument of each entry point that reads a FinOrd, a Mewo or a
    # PointedGraph; the first four were answered without complaint
    pytest.param(lambda u: sup([from_ordinal(chain(3))]), ValidationError, id="sup([Mewo])"),
    pytest.param(lambda u: same_order_type(chain(2), from_ordinal(chain(2))), ValidationError,
                 id="same_order_type(beta=Mewo)"),
    pytest.param(lambda u: order_type(from_ordinal(chain(2))), ValidationError, id="order_type(Mewo)"),
    pytest.param(lambda u: u.von_neumann(True), FormatError, id="von_neumann(True)"),
    pytest.param(lambda u: u.von_neumann(2.5), FormatError, id="von_neumann(float)"),
    pytest.param(lambda u: u.von_neumann("a"), FormatError, id="von_neumann(str)"),
    pytest.param(lambda u: same_order_type(None, chain(2)), ValidationError, id="same_order_type(None)"),
    pytest.param(lambda u: simulation("a", chain(2)), ValidationError, id="simulation(str)"),
    pytest.param(lambda u: simulation(chain(2), None), ValidationError, id="simulation(beta=None)"),
    pytest.param(lambda u: bounded_sim(from_ordinal(chain(1)), chain(2)), ValidationError, id="bounded_sim(Mewo)"),
    pytest.param(lambda u: bounded_sim(chain(2), "a"), ValidationError, id="bounded_sim(beta=str)"),
    pytest.param(lambda u: ord_sum(None, chain(1)), ValidationError, id="ord_sum(None)"),
    pytest.param(lambda u: ord_sum(chain(2), from_ordinal(chain(1))), ValidationError, id="ord_sum(beta=Mewo)"),
    pytest.param(lambda u: sup([chain(1), None]), ValidationError, id="sup([FinOrd, None])"),
    pytest.param(lambda u: sup_classes(["a"]), ValidationError, id="sup_classes([str])"),
    pytest.param(lambda u: down(from_ordinal(chain(3)), 0), ValidationError, id="down(Mewo)"),
    pytest.param(lambda u: hfkit.ordinals.down_carrier(None, 0), ValidationError, id="down_carrier(None)"),
    pytest.param(lambda u: ord_to_text(from_ordinal(chain(2))), ValidationError, id="ord_to_text(Mewo)"),
    pytest.param(lambda u: ord_to_json("a"), ValidationError, id="ord_to_json(str)"),
    pytest.param(lambda u: from_ordinal(None), ValidationError, id="from_ordinal(None)"),
    pytest.param(lambda u: mark_all(chain(2)), ValidationError, id="mark_all(FinOrd)"),
    pytest.param(lambda u: covered_mask("a"), ValidationError, id="covered_mask(str)"),
    pytest.param(lambda u: covered_part(None), ValidationError, id="covered_part(None)"),
    pytest.param(lambda u: down_plus(chain(3), 0), ValidationError, id="down_plus(FinOrd)"),
    pytest.param(lambda u: singleton(chain(2)), ValidationError, id="singleton(FinOrd)"),
    pytest.param(lambda u: mewo_to_text(None), ValidationError, id="mewo_to_text(None)"),
    pytest.param(lambda u: mewo_to_json(chain(2)), ValidationError, id="mewo_to_json(FinOrd)"),
    pytest.param(lambda u: mewo_to_dot("a"), ValidationError, id="mewo_to_dot(str)"),
    pytest.param(lambda u: u.from_graph(from_ordinal(chain(1))), ValidationError, id="from_graph(Mewo)"),
    pytest.param(lambda u: canon(None), ForeignHandleError, id="canon(None)"),
    pytest.param(lambda u: set_to_dot("a"), ForeignHandleError, id="set_to_dot(str)"),
    # the kinds that raised AttributeError or TypeError, or were taken as they came
    pytest.param(lambda u: import_slice({"nodes": [[]], "root": 0}, None), ValidationError,
                 id="import_slice(u=None)"),
    pytest.param(lambda u: ord_from_text(None), ValidationError, id="ord_from_text(None)"),
    pytest.param(lambda u: mewo_from_text(None), ValidationError, id="mewo_from_text(None)"),
    pytest.param(lambda u: parse(None), ValidationError, id="parse(None)"),
    pytest.param(lambda u: parse_program(b"let a = 1"), ValidationError, id="parse_program(bytes)"),
    pytest.param(lambda u: bisimilar(None, PointedGraph.make([[]])), ValidationError, id="bisimilar(None)"),
    pytest.param(lambda u: bisimilar(PointedGraph.make([[]]), "a"), ValidationError, id="bisimilar(g2=str)"),
    pytest.param(lambda u: mem_raw(None, PointedGraph.make([[]])), ValidationError,
                 id="mem_raw(None)"),
    pytest.param(lambda u: mem_raw(PointedGraph.make([[]]), "a"), ValidationError, id="mem_raw(y=str)"),
    pytest.param(lambda u: is_hereditarily_transitive(None), ValidationError, id="is_hereditarily_transitive(None)"),
    pytest.param(lambda u: enumerate_v("a", u), ValidationError, id="enumerate_v(str)"),
    pytest.param(lambda u: enumerate_mewos(None), ValidationError, id="enumerate_mewos(None)"),
    pytest.param(lambda u: enumerate_mewos(-1), SizeLimitError, id="enumerate_mewos(-1)"),
    pytest.param(lambda u: SetUniverse(node_limit="x"), ValidationError, id="SetUniverse(node_limit=str)"),
    pytest.param(lambda u: Session("x"), ValidationError, id="Session(universe=str)"),
    pytest.param(lambda u: GenConfig(seed=1, count=None), ValidationError, id="GenConfig(count=None)"),
    pytest.param(lambda u: GenConfig(seed=1, max_width=-1), ValidationError, id="GenConfig(max_width=-1)"),
    pytest.param(lambda u: SetUniverse(node_limit=-1), ValidationError, id="SetUniverse(node_limit=-1)"),
    pytest.param(lambda u: GenConfig(seed="a"), ValidationError, id="GenConfig(seed=str)"),
    # a generator refuses its arguments at the first draw; these raised AttributeError
    pytest.param(lambda u: next(gen_random_set("a", u)), (ValidationError, "^expected a GenConfig, got str$"),
                 id="gen_random_set(str)"),
    pytest.param(lambda u: next(gen_random_set(GenConfig(seed=1), None)),
                 (ValidationError, "^expected a SetUniverse, got NoneType$"), id="gen_random_set(u=None)"),
    pytest.param(lambda u: next(gen_random_mewo(None)), (ValidationError, "^expected a GenConfig, got NoneType$"),
                 id="gen_random_mewo(None)"),
    # a bool is no int
    pytest.param(lambda u: SetUniverse(node_limit=True), ValidationError, id="SetUniverse(node_limit=True)"),
    pytest.param(lambda u: enumerate_v(True, u), ValidationError, id="enumerate_v(True)"),
    pytest.param(lambda u: enumerate_mewos(True), ValidationError, id="enumerate_mewos(True)"),
    pytest.param(lambda u: GenConfig(seed=True), ValidationError, id="GenConfig(seed=True)"),
    pytest.param(lambda u: GenConfig(seed=1, max_depth=True), ValidationError, id="GenConfig(max_depth=True)"),
    # a family that is not iterable; these raised a bare TypeError
    pytest.param(lambda u: sup(None), ValidationError, id="sup(None)"),
    pytest.param(lambda u: sup_classes(None), ValidationError, id="sup_classes(None)"),
    pytest.param(lambda u: union(None, u), ValidationError, id="union(None)"),
    pytest.param(lambda u: u.mk_set(None), ValidationError, id="mk_set(None)"),
    pytest.param(lambda u: rank_quotient(u.empty(), None), ValidationError, id="rank_quotient(h, None)"),
    pytest.param(lambda u: PointedGraph.make(None), FormatError, id="PointedGraph.make(None)"),
    # one past the last index: a pair naming index `size`, a slice node that
    # names itself, element `size`
    pytest.param(lambda u: ord_from_json({"size": 2, "pairs": [[0, 2]]}), ValidationError,
                 id="ord_from_json(pair names size)"),
    pytest.param(lambda u: import_slice({"nodes": [[], [1]], "root": 1}, u), FormatError,
                 id="import_slice(node names itself)"),
    # the range check's own message, not the walk's bare IndexError
    pytest.param(lambda u: down_plus(from_ordinal(chain(3)), 3), (IndexError, "^element 3 out of range for size 3$"),
                 id="down_plus(size)"),
])
def test_ordinal_side_inputs_of_the_wrong_kind_are_refused(call, error, u):
    error, message = error if isinstance(error, tuple) else (error, None)
    with pytest.raises(error, match=message):
        call(u)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sup([from_ordinal(chain(3))]), "expected a FinOrd, got Mewo", id="sup"),
    pytest.param(lambda: simulation(chain(2), None), "expected a FinOrd, got NoneType", id="simulation"),
    pytest.param(lambda: singleton(chain(2)), "expected a Mewo, got FinOrd", id="singleton"),
    pytest.param(lambda: mewo_to_dot("a"), "expected a Mewo, got str", id="mewo_to_dot"),
    pytest.param(lambda: SetUniverse().from_graph(from_ordinal(chain(1))), "expected a PointedGraph, got Mewo",
                 id="from_graph"),
    pytest.param(lambda: import_slice({"nodes": [[]], "root": 0}, None), "expected a SetUniverse, got NoneType",
                 id="import_slice"),
    pytest.param(lambda: parse(None), "expected a str, got NoneType", id="parse"),
    pytest.param(lambda: mem_raw(PointedGraph.make([[]]), "a"), "expected a PointedGraph, got str", id="mem_raw"),
    pytest.param(lambda: SetUniverse(node_limit=True), "expected an int, got bool", id="SetUniverse"),
    pytest.param(lambda: sup(None), "expected an Iterable, got NoneType", id="sup(None)"),
])
def test_a_wrong_kind_is_named_with_the_kind_expected(call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()
