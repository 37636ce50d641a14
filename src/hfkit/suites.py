"""Named property suites behind the `check` command.

Each case records its input, the expected outcome, and the observed one;
a report is a plain dict ready for JSON emission. Suites are seeded and
size-bounded so runs are reproducible.
"""

from __future__ import annotations

import random

import numpy as np

from . import oracle
from .correspondence import (
    elements_ordinal,
    mewo_of_set,
    mewo_of_set_literal,
    rank_ordinal,
    rank_quotient,
    set_of_mewo,
    set_of_ordinal,
)
from .mewos import (
    bounded_sim_mewo,
    covered_part,
    down_plus,
    from_ordinal,
    is_covered,
    mark_all,
    mewo_equal,
    principality_check,
    simulation_mewo,
    singleton,
    union,
    validate_mewo,
)
from .ordinals import (
    bounded_sim,
    chain,
    down,
    ord_sum,
    order_type,
    same_order_type,
    simulation,
    sup,
    validate_ord,
)
from .errors import ExtensionalityError, WellfoundednessError
from .universe import PointedGraph, SetUniverse, bisimilar, export_slice, import_slice

SUITE_NAMES = ("ordinals", "sets", "mewos", "correspondence", "counterexamples", "all")


class _Collector:
    def __init__(self):
        self.cases = []

    def check(self, name: str, input_repr: str, expected, got) -> None:
        self.cases.append(
            {"name": name, "input": input_repr, "expected": expected, "got": got}
        )


# The fixture mewos shared by the suites and the tests: a marked point, an
# unmarked point, an unmarked point below a marked one, and the empty mewo.


def bullet():
    return validate_mewo(1, np.zeros((1, 1), dtype=bool), np.ones(1, dtype=bool))


def circ():
    return validate_mewo(1, np.zeros((1, 1), dtype=bool), np.zeros(1, dtype=bool))


def circ_bullet():
    lt = np.zeros((2, 2), dtype=bool)
    lt[0, 1] = True
    return validate_mewo(2, lt, np.array([False, True]))


def empty_mewo():
    return validate_mewo(0, np.zeros((0, 0), dtype=bool), np.zeros(0, dtype=bool))


def _suite_sets(c: _Collector, seed: int, max_size: int, max_depth: int) -> None:
    u = SetUniverse()
    e = u.empty()
    c.check("mk_set.duplicates", "{{},{}} vs {{}}", True, u.mk_set([e, e]) == u.mk_set([e]))
    s1 = u.mk_set([u.mk_set([e]), e])
    s2 = u.mk_set([e, u.mk_set([e])])
    c.check("mk_set.permutation", "{{{}},{}} vs {{},{{}}}", True, s1 == s2)
    c.check("mem.empty", "{} in {{{}}}", False, u.mem(e, u.mk_set([u.mk_set([e])])))
    c.check("rank.numeral", f"rank of numeral {max_depth}", max_depth, u.rank_nat(u.von_neumann(max_depth)))
    pool = oracle.enumerate_v(min(4, max(2, max_size)), u)
    ext_ok = all(
        set(m.id for m in u.elements(x)) != set(m.id for m in u.elements(y))
        for i, x in enumerate(pool)
        for y in pool[i + 1 :]
    )
    c.check("extensionality.pool", f"all pairs in stage {min(4, max(2, max_size))}", True, ext_ok)
    c.check("universe.acyclic", "topological id order", True, u.check_acyclic())
    agree = True
    gs = []
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, max(2, max_size + 2))
        succ = [
            tuple(sorted(rng.sample(range(j), min(j, rng.randint(0, 2)))))
            for j in range(n)
        ]
        gs.append(PointedGraph.make([list(s) for s in succ], root=n - 1))
    for i in range(0, len(gs) - 1, 2):
        g1, g2 = gs[i], gs[i + 1]
        if (u.from_graph(g1) == u.from_graph(g2)) != bisimilar(g1, g2):
            agree = False
    c.check("from_graph.vs.bisimilar", "20 seeded graph pairs", True, agree)
    roundtrip = True
    set_cfg = oracle.GenConfig(seed=seed, max_width=3, max_depth=max_depth, count=20)
    for h in oracle.gen_random_set(set_cfg, u):
        doc = export_slice(h)
        u2 = SetUniverse()
        h2 = import_slice(doc, u2)
        if export_slice(h2) != doc:
            roundtrip = False
    c.check("json.roundtrip", "20 seeded sets", True, roundtrip)


def _suite_ordinals(c: _Collector, seed: int, max_size: int, max_depth: int) -> None:
    n = max(2, min(max_size, 6))
    c.check("validate.chain", f"{n}-chain", True, validate_ord(n, chain(n).lt) == chain(n))
    try:
        validate_ord(2, np.zeros((2, 2), dtype=bool))
        got = "accepted"
    except ExtensionalityError:
        got = "extensionality"
    c.check("validate.antichain", "2 points, no order", "extensionality", got)
    try:
        validate_ord(2, np.array([[False, True], [True, False]]))
        got = "accepted"
    except WellfoundednessError:
        got = "wellfoundedness"
    c.check("validate.cycle", "2-cycle", "wellfoundedness", got)
    ok = True
    for size in range(n + 1):
        alpha = chain(size)
        for a in range(size):
            for b in range(a):
                seg = down(alpha, a)
                if down(seg, b) != down(alpha, b):
                    ok = False
    c.check("segments.iterate", f"chains up to {n}", True, ok)
    ok = True
    for i in range(n):
        for j in range(n):
            s = ord_sum(chain(i), chain(j))
            for a in range(i):
                if not same_order_type(down(s, a), down(chain(i), a)):
                    ok = False
            t = ord_sum(chain(i), chain(1))
            if not same_order_type(down(t, i), chain(i)):
                ok = False
    c.check("segments.of.sums", f"sums up to {n}+{n}", True, ok)
    ok = True
    for sizes in [(0,), (1, 2), (2, 3, 1), (3, 3), tuple(range(min(4, n)))]:
        fam = [chain(s) for s in sizes]
        if order_type(sup(fam)) != (max(sizes) if sizes else 0):
            ok = False
    c.check("sup.order.type", "small families", True, ok)
    agree = True
    bound = min(max_size, 5)
    for i in range(bound + 1):
        for j in range(bound + 1):
            a, b = chain(i), chain(j)
            maps = oracle.enum_simulations(a, b)
            w = simulation(a, b)
            ref = oracle.simulation_by_predecessors(a, b)
            if (w is None) != (len(maps) == 0) or (ref is None) != (w is None):
                agree = False
            if w is not None and (list(maps) != [w.mapping] or ref != w.mapping):
                agree = False
    c.check("simulation.vs.oracle", f"chain pairs up to {bound}", True, agree)


def _suite_mewos(c: _Collector, seed: int, max_size: int, max_depth: int) -> None:
    point, open_point, cb = bullet(), circ(), circ_bullet()
    c.check("covered.single.unmarked", "one unmarked point", False, is_covered(open_point))
    c.check("covered.two.chain", "unmarked below marked", True, is_covered(cb))
    seg = down_plus(cb, 1)
    c.check("down_plus.two.chain", "top segment of two-chain", True, mewo_equal(seg, point))
    ok = True
    for X in oracle.enumerate_mewos(min(3, max_size)):
        for x in range(X.size):
            if not is_covered(down_plus(X, x)):
                ok = False
    c.check("down_plus.covered", "all segments at small size", True, ok)
    try:
        singleton(open_point)
        got = "accepted"
    except ExtensionalityError:
        got = "extensionality"
    c.check("singleton.uncovered", "one unmarked point", "extensionality", got)
    c.check("singleton.bullet", "marked point", True, mewo_equal(singleton(point), cb))
    two_marked = from_ordinal(chain(2))
    c.check(
        "union.marking.exists",
        "fully marked 2-chain with partially marked one",
        True,
        mewo_equal(union([two_marked, cb]), two_marked),
    )
    got = principality_check(open_point, covered_part(open_point))
    c.check("principality.uncovered", "unmarked point vs its covered part", False, got)
    agree = True
    small = [m for s in range(min(3, max_size) + 1) for m in oracle.enumerate_mewos(s)]
    u = SetUniverse()
    for X in small:
        for Y in small:
            maps = oracle.enum_simulations(X, Y)
            w = simulation_mewo(X, Y, u)
            if (w is None) != (len(maps) == 0) or len(maps) > 1:
                agree = False
            if w is not None and maps and maps[0] != w.mapping:
                agree = False
    c.check("simulation.vs.oracle", "all pairs at small size", True, agree)


def _suite_correspondence(c: _Collector, seed: int, max_size: int, max_depth: int) -> None:
    u = SetUniverse()
    ok = True
    for k in range(min(max_size, 8) + 1):
        h = u.von_neumann(k)
        if set_of_ordinal(rank_ordinal(h), u) != h:
            ok = False
        if not same_order_type(rank_ordinal(set_of_ordinal(chain(k), u)), chain(k)):
            ok = False
    c.check("ordinal.roundtrips", f"numerals up to {min(max_size, 8)}", True, ok)
    ok = True
    bound = min(max_size, 5)
    for i in range(bound + 1):
        for j in range(bound + 1):
            a, b = chain(i), chain(j)
            ha, hb = set_of_ordinal(a, u), set_of_ordinal(b, u)
            if (same_order_type(a, b)) != (ha == hb):
                ok = False
            if (bounded_sim(a, b) is not None) != u.mem(ha, hb):
                ok = False
            if (simulation(a, b) is not None) != u.subset(ha, hb):
                ok = False
    c.check("order.transport", f"chain pairs up to {bound}", True, ok)
    rng = random.Random(seed)
    ok = True
    for _ in range(30):
        k = rng.randint(0, min(max_depth, 5))
        h = u.von_neumann(k)
        members = u.elements(h)
        pres = members + [rng.choice(members)] if members else []
        rng.shuffle(pres)
        q = rank_quotient(h, pres)
        if not (
            same_order_type(q.ordinal, rank_ordinal(h))
            and same_order_type(elements_ordinal(h), rank_ordinal(h))
        ):
            ok = False
    c.check("rank.quotient", "30 seeded redundant presentations", True, ok)
    cfg = oracle.GenConfig(seed=seed, max_width=3, max_depth=min(max_depth, 4), count=25)
    ok = True
    for h in oracle.gen_random_set(cfg, u):
        X = mewo_of_set(h)
        if set_of_mewo(X, u) != h:
            ok = False
        if not mewo_equal(X, mewo_of_set_literal(h)):
            ok = False
    c.check("set.mewo.roundtrips", "25 seeded sets", True, ok)
    ok = True
    for k in range(min(max_size, 6) + 1):
        if not mewo_equal(mewo_of_set(set_of_ordinal(chain(k), u)), from_ordinal(chain(k))):
            ok = False
    c.check("square.commutes", f"chains up to {min(max_size, 6)}", True, ok)


def _suite_counterexamples(c: _Collector, seed: int, max_size: int, max_depth: int) -> None:
    point, cb, emp = bullet(), circ_bullet(), empty_mewo()
    c.check(
        "bounded.sim.exists",
        "marked point into two-chain",
        True,
        bounded_sim_mewo(point, cb) is not None,
    )
    c.check(
        "simulation.missing",
        "marked point into two-chain",
        True,
        simulation_mewo(point, cb) is None,
    )
    c.check(
        "empty.below.point",
        "empty into marked point",
        True,
        bounded_sim_mewo(emp, point) is not None,
    )
    c.check(
        "not.transitive",
        "empty into two-chain despite the chain of bounded sims",
        True,
        bounded_sim_mewo(emp, cb) is None,
    )
    c.check(
        "strict.not.weak",
        "bounded sim without full simulation",
        True,
        bounded_sim_mewo(point, cb) is not None and simulation_mewo(point, cb) is None,
    )
    c.check(
        "marked.into.markall",
        "simulation appears after trivializing the marking",
        True,
        simulation_mewo(point, mark_all(cb)) is not None,
    )


_SUITES = {
    "sets": _suite_sets,
    "ordinals": _suite_ordinals,
    "mewos": _suite_mewos,
    "correspondence": _suite_correspondence,
    "counterexamples": _suite_counterexamples,
}


def run_suite(name: str, seed: int = 42, max_size: int = 4, max_depth: int = 4) -> dict:
    """Run one suite (or all) and return the machine-readable report."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    collector = _Collector()
    picked = _SUITES.values() if name == "all" else [_SUITES[name]]
    for fn in picked:
        fn(collector, seed, max_size, max_depth)
    failures = [
        {k: case[k] for k in ("name", "input", "expected", "got")}
        for case in collector.cases
        if case["expected"] != case["got"]
    ]
    return {
        "suite": name,
        "seed": seed,
        "cases": len(collector.cases),
        "failures": failures,
    }
