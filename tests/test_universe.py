from __future__ import annotations

import copy
import dataclasses
import json
import random
import threading
from functools import partial

import pytest

from hfkit import (
    CyclicError,
    ForeignHandleError,
    FormatError,
    GenConfig,
    HfkitError,
    LimitExceededError,
    PointedGraph,
    SetHandle,
    SetUniverse,
    WellfoundednessError,
    bisimilar,
    canon,
    enumerate_v,
    export_slice,
    gen_random_set,
    import_slice,
    is_hereditarily_transitive,
    mem_raw,
    mewo_of_set,
    validate_mewo,
)
from hfkit.suites import collapse_matches_bisimilar
from conftest import race


def test_mk_set_empty(u):
    assert repr(u) == "<SetUniverse with 0 sets>"
    e = u.mk_set([])
    assert u.elements(e) == []
    assert u.rank_nat(e) == 0


def test_mk_set_collapses_duplicates(u):
    e = u.empty()
    assert u.mk_set([e, e]) == u.mk_set([e])


def test_mk_set_permutation_invariant(u):
    e = u.empty()
    se = u.mk_set([e])
    assert u.mk_set([se, e]) == u.mk_set([e, se])


def test_mk_set_idempotent_reintern(u):
    e = u.empty()
    before = len(u)
    u.mk_set([e])
    mid = len(u)
    u.mk_set([e])
    assert len(u) == mid and mid == before + 1


def test_mk_set_laws_on_random_inputs(u):
    from hfkit import GenConfig, gen_random_set

    pool = list(gen_random_set(GenConfig(seed=41, max_width=4, max_depth=3, count=30), u))
    rng = random.Random(41)
    for _ in range(200):
        members = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
        h = u.mk_set(members)
        shuffled = members[:]
        rng.shuffle(shuffled)
        assert u.mk_set(shuffled) == h
        assert u.mk_set(members + [rng.choice(members)] if members else []) == h
        assert u.mk_set(u.elements(h)) == h
        assert {m.id for m in u.elements(h)} == {m.id for m in members}


def test_elements_sorted_and_exact(u):
    e = u.empty()
    se = u.mk_set([e])
    pair = u.mk_set([se, e])
    assert u.elements(pair) == [e, se]
    assert u.elements(u.mk_set([se])) == [se]


def test_mem(u):
    e = u.empty()
    se = u.mk_set([e])
    sse = u.mk_set([se])
    assert u.mem(e, se)
    assert not u.mem(e, sse)
    assert not u.mem(e, e)
    assert e in se and e not in sse and e not in e


def test_subset(u):
    e = u.empty()
    se = u.mk_set([e])
    sse = u.mk_set([se])
    two = u.mk_set([e, se])
    assert u.subset(e, sse)
    assert not u.subset(two, sse)
    assert u.subset(se, two)


def test_is_transitive_set(u):
    e = u.empty()
    se = u.mk_set([e])
    sse = u.mk_set([se])
    assert u.is_transitive_set(u.mk_set([e, se, sse]))
    assert not u.is_transitive_set(sse)
    assert u.is_transitive_set(e)


def test_is_st_ordinal(u):
    e = u.empty()
    se = u.mk_set([e])
    sse = u.mk_set([se])
    assert u.is_st_ordinal(u.mk_set([e, se]))
    assert not u.is_st_ordinal(u.mk_set([e, se, sse]))
    assert u.is_st_ordinal(e)


def _agreement_pool(u):
    """Sets on both sides of the ordinal line: all of V_4, two random
    streams, numerals, numerals with a member dropped, n plus {n - 1},
    and successors of a non-ordinal."""
    pool = enumerate_v(4, u)
    for seed in (21, 22):
        pool += gen_random_set(GenConfig(seed=seed, max_width=4, max_depth=5, count=150), u)
    for n in range(65):
        members = u.elements(u.von_neumann(n))
        pool.append(u.von_neumann(n))
        dropped = range(n) if n <= 16 else (0, n // 2, n - 2)
        pool += [u.mk_set(members[:k] + members[k + 1:]) for k in dropped]
        if n:
            pool.append(u.mk_set(members + [u.mk_set([members[-1]])]))
    h = u.mk_set([u.mk_set([u.empty()])])
    for _ in range(64):
        h = u.mk_set(u.elements(h) + [h])
        pool.append(h)
    return pool


def test_is_st_ordinal_agrees_with_the_definition():
    u = SetUniverse()
    pool = _agreement_pool(u)
    expected = [is_hereditarily_transitive(h) for h in pool]
    assert sum(expected) > 65  # the numerals up to 64, and some more
    for h in pool:
        members = set(h.elements())
        assert u.is_transitive_set(h) == all(set(m.elements()) <= members for m in members)
    # ask from both ends, on fresh universes: no answer may depend on the sets asked about before
    for order in (lambda p: p, reversed):
        v = SetUniverse()
        for h, want in order(list(zip(_agreement_pool(v), expected))):
            assert v.is_st_ordinal(h) == want, h


def test_von_neumann_small(u):
    e = u.empty()
    assert u.von_neumann(0) == e
    assert u.von_neumann(2) == u.mk_set([e, u.mk_set([e])])


def test_von_neumann_by_iteration(u):
    # independent construction: n+1 = n together with n's members
    cur = u.empty()
    for n in range(13):
        assert u.von_neumann(n) == cur
        assert u.is_st_ordinal(cur)
        cur = u.mk_set(u.elements(cur) + [cur])


def test_von_neumann_limit(u):
    with pytest.raises(LimitExceededError):
        u.von_neumann(1025)


def test_von_neumann_refuses_a_negative_numeral(u):
    # an HfkitError that callers catching ValueError still catch; nothing interned
    with pytest.raises(FormatError, match="numeral -1 is negative") as info:
        u.von_neumann(-1)
    assert isinstance(info.value, HfkitError) and isinstance(info.value, ValueError)
    assert len(u) == 0


def test_rank(u):
    e = u.empty()
    assert u.rank_nat(e) == 0
    assert u.rank_nat(u.mk_set([u.mk_set([e])])) == 2


def brute_rank(u, h):
    ms = u.elements(h)
    return 0 if not ms else 1 + max(brute_rank(u, m) for m in ms)


def test_rank_matches_brute_force(u):
    rng = random.Random(5)
    from hfkit import GenConfig, gen_random_set

    for h in gen_random_set(GenConfig(seed=3, max_width=4, max_depth=4, count=60), u):
        assert u.rank_nat(h) == brute_rank(u, h)


def test_rank_over_members_already_ranked(u):
    # the walk stops at ranked ids; the new set must still get the true rank
    nums = [u.von_neumann(n) for n in range(6)]
    for h in nums[::2]:
        u.rank_nat(h)
    odd = u.mk_set([nums[1], u.mk_set([nums[3]])])
    top = u.mk_set([nums[4], odd, u.mk_set([odd, nums[0]])])
    assert u.rank_nat(top) == brute_rank(u, top) == 7
    for i in range(len(u)):
        h = SetHandle(u, i)
        assert u.rank_nat(h) == brute_rank(u, h)


def test_rank_of_numerals(u):
    for n in range(13):
        assert u.rank_nat(u.von_neumann(n)) == n


def test_rank_decreases_into_members(u):
    from hfkit import GenConfig, gen_random_set

    for h in gen_random_set(GenConfig(seed=4, max_width=4, max_depth=4, count=40), u):
        for m in u.elements(h):
            assert u.rank_nat(h) > u.rank_nat(m)


def test_hereditariness_of_ordinals(u):
    pool = enumerate_v(4, u)
    for h in pool:
        if u.is_st_ordinal(h):
            for m in u.elements(h):
                assert u.is_st_ordinal(m)


def test_foreign_handles_rejected(u):
    other = SetUniverse()
    with pytest.raises(ForeignHandleError):
        u.mk_set([other.empty()])
    with pytest.raises(ForeignHandleError):
        u.mem(other.empty(), u.empty())


def test_handles_are_frozen_slotted_values(u):
    # the dataclass contract, though `__init__` writes the slots itself
    h = u.von_neumann(3)
    assert repr(h) == repr(SetHandle(universe=u, id=3)) == "SetHandle(3)"
    assert [f.name for f in dataclasses.fields(SetHandle)] == ["universe", "id"] == list(SetHandle.__slots__)
    assert h == SetHandle(u, 3) and hash(h) == hash(SetHandle(u, 3)) == hash((u, 3))
    assert h != SetHandle(u, 2) and h != SetHandle(SetUniverse(), 3) and h != (u, 3)
    assert not hasattr(h, "__dict__")
    for name in ("universe", "id", "other"):  # a stray name as well as a field
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(h, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(h, name)
    assert (h.universe, h.id) == (u, 3)
    c = copy.copy(h)
    assert c == h and hash(c) == hash(h) and (c.universe, c.id) == (u, 3)
    with pytest.raises(TypeError):
        SetHandle(u)


@pytest.mark.parametrize("call", [
    lambda u, h: u.elements(h),
    lambda u, h: u.mem(h, u.empty()),
    lambda u, h: u.mem(u.empty(), h),
    lambda u, h: u.rank_nat(h),
    lambda u, h: u.is_st_ordinal(h),
    lambda u, h: export_slice(h),
    lambda u, h: mewo_of_set(h),
    lambda u, h: canon(h),
], ids=["elements", "mem-member", "mem-set", "rank_nat", "is_st_ordinal", "export_slice", "mewo_of_set", "canon"])
def test_handles_naming_no_set_are_refused(u, call):
    u.von_neumann(2)
    for bad in (-1, len(u), True):
        with pytest.raises(ForeignHandleError, match="does not belong to this universe"):
            call(u, SetHandle(u, bad))


def test_node_limit():
    tight = SetUniverse(node_limit=3)
    e = tight.empty()
    a = tight.mk_set([e])
    tight.mk_set([a])
    with pytest.raises(LimitExceededError):
        tight.mk_set([a, e])


def test_node_limit_env_override(monkeypatch):
    monkeypatch.setenv("HFKIT_NODE_LIMIT", "2")
    tight = SetUniverse()
    assert tight.node_limit == 2
    tight.empty()
    tight.mk_set([tight.empty()])
    with pytest.raises(LimitExceededError):
        tight.mk_set([tight.mk_set([tight.empty()])])


@pytest.mark.parametrize("value", ["abc", "1e3", "-5", "", "2.0"])
def test_node_limit_env_must_be_a_non_negative_integer(monkeypatch, value):
    monkeypatch.setenv("HFKIT_NODE_LIMIT", value)
    with pytest.raises(HfkitError, match="HFKIT_NODE_LIMIT"):
        SetUniverse()
    assert SetUniverse(node_limit=5).node_limit == 5  # an explicit limit does not read it


@pytest.mark.parametrize("n, successors, root, where", [
    (0, (), 0, "at least its root"),
    (2, ((1,),), 0, "vertex count 2 does not match the 1 successor lists"),
    (2.0, ((1,), ()), 0, "vertex count 2.0"),
    (2, ((1,), ()), 2, "root 2"),
    (2, ((2,), ()), 0, "successor 2 of vertex 0"),
    (2, ((1,), ()), True, "root True"),
    (2, ((), (0.0,)), 1, "successor 0.0 of vertex 1"),
    (2, ((), (True,)), 1, "successor True of vertex 1"),
], ids=["no-vertex", "table-size", "float-count", "root-range", "successor-range",
        "bool-root", "float-successor", "bool-successor"])
def test_pointed_graph_refusals_are_format_errors(n, successors, root, where):
    with pytest.raises(FormatError, match=where) as exc:
        PointedGraph(n, successors, root)
    assert isinstance(exc.value, ValueError)


def test_extensionality_on_enumerated_pool(u):
    pool = enumerate_v(4, u)
    for i, x in enumerate(pool):
        for y in pool[i + 1 :]:
            xs = {m.id for m in u.elements(x)}
            ys = {m.id for m in u.elements(y)}
            assert xs != ys, "distinct sets must differ in some member"


def test_universe_acyclic_after_batches(u):
    assert u.check_acyclic()
    enumerate_v(4, u)
    assert u.check_acyclic()
    from hfkit import GenConfig, gen_random_set

    list(gen_random_set(GenConfig(seed=6, max_width=4, max_depth=4, count=50), u))
    assert u.check_acyclic()


def test_check_acyclic_sees_a_node_that_names_itself():
    # construction cannot make one, so the table is broken by hand
    scratch = SetUniverse()
    scratch.mk_set([scratch.empty()])
    scratch._children.append((len(scratch._children),))
    assert not scratch.check_acyclic()


def test_concurrent_interning_is_consistent():
    shared = SetUniverse()
    results = [None] * 8

    def worker(k):
        h = shared.empty()
        for _ in range(k % 4 + 1):
            h = shared.mk_set([h, shared.empty()])
        results[k] = h

    race(*(partial(worker, k) for k in range(8)))
    assert shared.check_acyclic()
    for k in range(8):
        expect = shared.empty()
        for _ in range(k % 4 + 1):
            expect = shared.mk_set([expect, shared.empty()])
        assert results[k] == expect


def _random_dag(seed: int, n: int) -> PointedGraph:
    """n vertices with up to 3 children among the 20 before, under a root over all."""
    rng = random.Random(seed)
    succ = [[]]
    for v in range(1, n):
        succ.append([rng.randrange(max(0, v - 20), v) for _ in range(rng.randint(0, 3))])
    succ.append(list(range(n)))
    return PointedGraph.make(succ, root=n)


def _collapse_slice_and_chain(u, g, doc, order):
    """Run from_graph, import_slice and a 30-step mk_set chain in the given order."""

    def chain():
        h = u.mk_set([])
        for _ in range(30):
            h = u.mk_set(u.elements(h) + [h])
        return h

    steps = {"graph": lambda: u.from_graph(g), "slice": lambda: import_slice(doc, u), "chain": chain}
    out = {name: steps[name]() for name in order}
    return out["graph"], out["slice"], out["chain"]


def test_concurrent_collapse_slice_and_mk_set():
    g = _random_dag(17, 1500)
    doc = export_slice(SetUniverse().from_graph(_random_dag(18, 1500)))
    single = SetUniverse()
    _collapse_slice_and_chain(single, g, doc, ("graph", "slice", "chain"))
    # two threads start on each path, so that they race for the same new sets
    orders = [("graph", "slice", "chain"), ("graph", "chain", "slice"),
              ("slice", "chain", "graph"), ("slice", "graph", "chain")]
    for _ in range(6):
        shared = SetUniverse()
        results = [None] * 4

        def worker(k):
            results[k] = _collapse_slice_and_chain(shared, g, doc, orders[k])

        race(*(partial(worker, k) for k in range(4)))
        assert all(r == results[0] for r in results)
        assert len(shared) == len(single)
        assert shared.check_acyclic()
        assert len(shared._intern) == len(shared)
        assert shared.rank_nat(results[0][2]) == 30


def _mk_set_returns_on_another_thread(u) -> bool:
    got = []
    t = threading.Thread(target=lambda: got.append(u.mk_set([])), daemon=True)
    t.start()
    t.join(timeout=10)
    return not t.is_alive() and got[0].id == 0


def test_lock_released_after_a_failed_collapse():
    u = SetUniverse()
    u.empty()
    with pytest.raises(CyclicError):
        u.from_graph(PointedGraph.make([[1], [2, 0], []]))
    assert _mk_set_returns_on_another_thread(u)

    three = PointedGraph.make([[], [0], [0, 1], [0, 1, 2]], root=3)
    tight = SetUniverse(node_limit=3)
    with pytest.raises(LimitExceededError):
        tight.from_graph(three)
    assert len(tight) == 0  # a rejected collapse interns nothing
    assert _mk_set_returns_on_another_thread(tight)

    tight = SetUniverse(node_limit=3)
    with pytest.raises(LimitExceededError):
        import_slice(export_slice(SetUniverse().von_neumann(3)), tight)
    assert len(tight) == 0
    assert _mk_set_returns_on_another_thread(tight)


def test_concurrent_numerals_are_correct():
    # threads extending the numeral cache at once must not publish wrong sets
    for _ in range(5):
        shared = SetUniverse()
        results = [None] * 4

        def worker(k):
            results[k] = shared.von_neumann(300)

        race(*(partial(worker, k) for k in range(4)))
        assert all(shared.rank_nat(h) == 300 for h in results)
        assert all(shared.rank_nat(shared.von_neumann(k)) == k for k in range(301))


def test_numeral_hits_during_a_refused_extension():
    # readers take cached numerals while another thread's extension of the
    # cache is refused at the node limit and rolled back: no reader gets a
    # numeral of the refused extension, and the cache is left as it was
    cached, limit, refusals = 40, 120, 50
    u = SetUniverse(node_limit=limit)
    u.mk_set([u.von_neumann(1)])  # from numeral 2 on, a numeral's id is not its index
    before = [u.von_neumann(m) for m in range(cached + 1)]
    size = len(u)
    taken, refused = [], []
    done = threading.Event()

    def reader(k):
        rng = random.Random(k)
        while not done.is_set():
            m = rng.randint(0, cached)
            taken.append((m, u.von_neumann(m)))

    def extender():
        try:
            for _ in range(refusals):
                try:
                    u.von_neumann(limit)
                except LimitExceededError:
                    refused.append(len(u))
        finally:
            done.set()

    race(*(partial(reader, k) for k in range(3)), extender)
    assert refused == [size] * refusals and len(u) == size
    assert taken and all(u.rank_nat(h) == m and h.id < len(u) for m, h in taken)
    assert [u.von_neumann(m) for m in range(cached + 1)] == before
    # nothing of a refused extension stayed cached: the next numeral is new
    assert u.rank_nat(u.von_neumann(cached + 1)) == cached + 1 and len(u) == size + 1


# -- raw graphs ----------------------------------------------------------------


def test_from_graph_single_vertex(u):
    assert u.from_graph(PointedGraph.make([[]])) == u.empty()


def test_from_graph_sinks_collapse(u):
    g = PointedGraph.make([[1, 2], [], []], root=0)
    assert u.from_graph(g) == u.mk_set([u.empty()])


def test_from_graph_self_loop(u):
    with pytest.raises(CyclicError) as exc:
        u.from_graph(PointedGraph.make([[0]]))
    assert exc.value.cycle == [0]


def test_from_graph_reports_cycle(u):
    g = PointedGraph.make([[1], [2], [1]], root=0)
    with pytest.raises(CyclicError) as exc:
        u.from_graph(g)
    assert sorted(exc.value.cycle) == [1, 2]
    # the oracle finds the same cycle, by its own walk
    with pytest.raises(CyclicError) as by_oracle:
        bisimilar(g, PointedGraph.make([[]]))
    assert by_oracle.value.cycle == exc.value.cycle


# the cycle from_graph reports from the root, and the one the order
# validators report walking from each element in turn, successors ascending
@pytest.mark.parametrize("succ, root, cycle, ordered", [
    ([[1], [2], [3], [1]], 0, [1, 2, 3], [1, 2, 3]),
    ([[1, 2], [], [3], [4], [2]], 0, [2, 3, 4], [2, 3, 4]),  # met after a finished branch
    ([[2, 1], [0], [1]], 0, [0, 2, 1], [0, 1]),  # successors in list order
    ([[1, 1, 2], [3], [0], [2]], 0, [0, 1, 3, 2], [0, 1, 3, 2]),
    ([[], [2, 0], [3], [1]], 1, [1, 2, 3], [1, 2, 3]),
])
def test_a_cycle_is_reported_along_the_walks_path(u, succ, root, cycle, ordered):
    u.von_neumann(2)
    with pytest.raises(CyclicError) as exc:
        u.from_graph(PointedGraph.make(succ, root))
    assert exc.value.cycle == cycle and len(u) == 3
    lt = [[j in s for j in range(len(succ))] for s in succ]
    with pytest.raises(WellfoundednessError) as exc:
        validate_mewo(len(succ), lt, [False] * len(succ))
    assert exc.value.cycle == ordered


def _hostile_graph(rng: random.Random, n: int, back_edge: bool) -> tuple[list[list[int]], int]:
    """Successor lists of n + 2 vertices and a root: a DAG on n vertices with
    duplicate edges, a root in its upper half, so the vertices above it are
    not reached, and an unreachable 2-cycle, all relabeled at random. With
    `back_edge`, a member of the root also names the root."""
    succ = [[rng.randrange(v) for _ in range(rng.randint(0, 4))] if v else [] for v in range(n)]
    for s in succ:
        s += rng.sample(s, len(s) // 2)
        rng.shuffle(s)
    root = rng.randrange(n // 2, n)
    if back_edge and succ[root]:
        succ[succ[root][0]].append(root)
    succ += [[n + 1], [n]]
    perm = list(range(n + 2))
    rng.shuffle(perm)
    relabeled: list[list[int]] = [[] for _ in perm]
    for v, s in enumerate(succ):
        relabeled[perm[v]] = [perm[w] for w in s]
    return relabeled, perm[root]


def _collapse_by_recursion(succ, root, children: list, index: dict):
    """The id of the set that `succ` presents at `root`, interning into
    `children` and `index` along a recursive post-order that takes
    successors in list order; a cycle is ("cycle", the path from the vertex
    met again)."""
    ids: dict[int, int] = {}
    path: list[int] = []

    def visit(v: int) -> int:
        if v not in ids:
            if v in path:
                raise CyclicError(path[path.index(v):])
            path.append(v)
            key = tuple(sorted({visit(w) for w in succ[v]}))
            path.pop()
            if key not in index:
                index[key] = len(children)
                children.append(key)
            ids[v] = index[key]
        return ids[v]

    try:
        return visit(root)
    except CyclicError as exc:
        return "cycle", exc.cycle


def test_from_graph_interns_along_a_recursive_postorder():
    rng = random.Random(34)
    u, children, index = SetUniverse(), [], {}
    outcomes = set()
    for trial in range(80):
        succ, root = _hostile_graph(rng, rng.randint(1, 60), back_edge=trial % 3 == 2)
        kept = list(children), dict(index)
        expected = _collapse_by_recursion(succ, root, children, index)
        try:
            got = u.from_graph(PointedGraph.make(succ, root)).id
        except CyclicError as exc:
            got = "cycle", exc.cycle
            children, index = kept
        outcomes.add(type(got))
        assert got == expected
        assert u._children == children
    assert outcomes == {int, tuple}


def test_from_graph_unreachable_cycle_ignored(u):
    g = PointedGraph.make([[], [2], [1]], root=0)
    assert u.from_graph(g) == u.empty()


def test_from_graph_deterministic_across_runs():
    g = PointedGraph.make([[1, 2], [3], [3], []], root=0)
    ids = []
    for _ in range(2):
        u2 = SetUniverse()
        u2.von_neumann(3)
        ids.append(u2.from_graph(g).id)
    assert ids[0] == ids[1]


def test_bisimilar_redundant_presentations():
    g1 = PointedGraph.make([[1], []], root=0)
    g2 = PointedGraph.make([[1, 2, 1], [], []], root=0)
    assert bisimilar(g1, g2)


def test_bisimilar_distinguishes():
    empty_g = PointedGraph.make([[]])
    single = PointedGraph.make([[1], []], root=0)
    assert not bisimilar(empty_g, single)


def test_bisimilar_many_children_same_members():
    # both roots reach exactly the two sets {} and {{}}
    g1 = PointedGraph.make([[1, 2], [2], []], root=0)
    g2 = PointedGraph.make([[1, 2, 3, 4, 5], [5], [5], [5], [], []], root=0)
    assert bisimilar(g1, g2)


def test_bisimilar_rejects_cycles():
    with pytest.raises(CyclicError):
        bisimilar(PointedGraph.make([[0]]), PointedGraph.make([[]]))


def rand_graph(rng, max_n, max_k):
    """A pointed DAG of 1 to max_n vertices rooted at the last one, each
    vertex v with up to min(v, max_k) edges to lower vertices, drawn from rng."""
    n = rng.randint(1, max_n)
    succ = [[rng.randrange(v) for _ in range(rng.randint(0, min(v, max_k)))] for v in range(n)]
    return PointedGraph.make(succ, root=n - 1)


def test_canonicity_matches_bisimilarity_random(u):
    rng = random.Random(17)
    assert collapse_matches_bisimilar(u, [(rand_graph(rng, 8, 3), rand_graph(rng, 8, 3)) for _ in range(400)]) == []


def test_mem_raw_matches_mem(u):
    rng = random.Random(23)
    for _ in range(200):
        g1, g2 = rand_graph(rng, 6, 2), rand_graph(rng, 6, 2)
        assert mem_raw(g1, g2) == u.mem(u.from_graph(g1), u.from_graph(g2))


# -- JSON slices ----------------------------------------------------------------


def test_export_slice_shape(u):
    doc = export_slice(u.von_neumann(2))
    assert doc == {"nodes": [[], [0], [0, 1]], "root": 2}


def test_json_roundtrip_bit_exact(u):
    from hfkit import GenConfig, gen_random_set

    for h in gen_random_set(GenConfig(seed=8, max_width=4, max_depth=4, count=40), u):
        doc = export_slice(h)
        blob = json.dumps(doc, sort_keys=True)
        fresh = SetUniverse()
        h2 = import_slice(doc, fresh)
        assert json.dumps(export_slice(h2), sort_keys=True) == blob


def test_import_slice_preserves_identity(u):
    h = u.von_neumann(3)
    doc = export_slice(h)
    assert import_slice(doc, u) == h


def test_import_slice_rejects_forward_reference(u):
    with pytest.raises(ValueError):
        import_slice({"nodes": [[1], []], "root": 0}, u)


def test_import_slice_rejects_root_out_of_range(u):
    for root in (-1, 2):
        with pytest.raises(ValueError, match="root"):
            import_slice({"nodes": [[], [0]], "root": root}, u)


def test_import_slice_rejects_positions_that_are_not_integers(u):
    bad = [
        ({"nodes": [["a"]], "root": 0}, "node 0 .* not an integer"),
        ({"nodes": [[], [0.0]], "root": 1}, "node 1 .* not an integer"),
        # True would pass as position 1
        ({"nodes": [[], [], [True]], "root": 2}, "node 2 .* not an integer"),
        ({"nodes": [[], 5], "root": 1}, "node 1 is not a list"),
    ]
    for doc, where in bad:
        with pytest.raises(ValueError, match=where):
            import_slice(doc, u)
    for root in (True, 1.0, "1", None):
        with pytest.raises(ValueError, match="root"):
            import_slice({"nodes": [[], [0]], "root": root}, u)
    for doc in ({"root": 0}, {"nodes": 5, "root": 0}, {"nodes": [[]]}, [[]]):
        with pytest.raises(ValueError, match="a slice is an object"):
            import_slice(doc, u)


def test_rejected_inputs_intern_nothing():
    # a slice that fails at its fifth node, and a root over a 4-chain plus a 2-cycle
    slice_doc = {"nodes": [[], [0], [0, 1], [0, 1, 2], ["x"]], "root": 0}
    chain_and_cycle = PointedGraph.make([[1, 5], [2], [3], [4], [], [6], [5]])
    u = SetUniverse()
    u.mk_set([u.empty()])
    before, keys = len(u), dict(u._intern)
    with pytest.raises(ValueError, match="node 4"):
        import_slice(slice_doc, u)
    assert (len(u), u._intern) == (before, keys)
    with pytest.raises(CyclicError):
        u.from_graph(chain_and_cycle)
    assert (len(u), u._intern) == (before, keys)
    h = u.mk_set([u.mk_set([u.mk_set([])])])
    assert h.id == before and u.rank_nat(h) == 2
    assert import_slice(export_slice(h), u) == h
    assert u.check_acyclic() and len(u._intern) == len(u)
