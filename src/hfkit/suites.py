"""Named property suites behind the `check` command, and the laws they
share with the acceptance tests.

A law is a public function that takes the pools it is given and returns a
list of failures; its docstring states what it checks, and no test restates
its loop. The suites run every law on small seeded pools (the mewo laws on
the mewos of size at most 2 or 3), the acceptance tests on large ones. A report
is a plain dict ready for JSON emission; suites are seeded and
size-bounded so runs are reproducible.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from itertools import combinations, compress, product

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
    down_plus_carrier,
    from_ordinal,
    is_covered,
    mark_all,
    mewo_equal,
    partial_sim,
    principality_check,
    simulation_mewo,
    singleton,
    union,
    validate_mewo,
)
from .ordinals import (
    FinOrd,
    bounded_sim,
    chain,
    down,
    down_carrier,
    ord_sum,
    order_type,
    same_order_type,
    simulation,
    sup,
    validate_ord,
)
from .errors import ExtensionalityError, FormatError, WellfoundednessError
from .universe import PointedGraph, SetUniverse, export_slice, import_slice

SUITE_NAMES = ("ordinals", "sets", "mewos", "correspondence", "counterexamples", "all")


# The fixture mewos shared by the suites and the tests: a marked point, an
# unmarked point, an unmarked point below a marked one, and the empty mewo.


def bullet():
    return validate_mewo(1, [[False]], [True])


def circ():
    return validate_mewo(1, [[False]], [False])


def circ_bullet():
    return validate_mewo(2, [[False, True], [False, False]], [False, True])


def empty_mewo():
    return validate_mewo(0, [], [])


def ordinal_roundtrips(u: SetUniverse, sets, ordinals) -> list:
    """phi(psi(h)) = h for hereditarily transitive sets, psi(phi(a)) ~ a for ordinals."""
    failures = [("phi(psi(h)) != h", h.id) for h in sets if set_of_ordinal(rank_ordinal(h), u) != h]
    for alpha in ordinals:
        if not same_order_type(rank_ordinal(set_of_ordinal(alpha, u)), alpha):
            failures.append(("psi(phi(a)) !~ a", order_type(alpha)))
    return failures


def _transport(u: SetUniverse, pool, image, equal, strict, weak, label) -> list:
    """The pairs of the pool on which `equal`, `strict` and `weak` disagree
    with =, membership and inclusion of their images."""
    pairs = list(zip(pool, map(image, pool)))
    return [(tag, label(a), label(b)) for a, ha in pairs for b, hb in pairs for tag, decided, holds in (
        ("equality", equal(a, b), ha == hb),
        ("strict", strict(a, b) is not None, u.mem(ha, hb)),
        ("weak", weak(a, b) is not None, u.subset(ha, hb)),
    ) if decided != holds]


def order_transport(u: SetUniverse, ordinals) -> list:
    """On every pair of ordinals, phi sends =, < and <= to =, membership and inclusion."""
    return _transport(u, ordinals, partial(set_of_ordinal, u=u), same_order_type, bounded_sim, simulation, order_type)


def mewo_transport(u: SetUniverse, covered) -> list:
    """On every pair of covered mewos, the sets they present turn equality,
    bounded simulation and simulation into =, membership and inclusion."""
    equal, strict, weak = (partial(decide, u=u) for decide in (mewo_equal, bounded_sim_mewo, simulation_mewo))
    return _transport(u, covered, partial(set_of_mewo, u=u), equal, strict, weak, lambda X: X.size)


def rank_descriptions(presented) -> list:
    """Per (set, presentation) pair, the quotient and the element order have the set's rank."""
    failures = []
    for trial, (h, pres) in enumerate(presented):
        r = rank_ordinal(h)
        if not (same_order_type(rank_quotient(h, pres).ordinal, r) and same_order_type(elements_ordinal(h), r)):
            failures.append(("trial", trial, order_type(r)))
    return failures


def set_mewo_roundtrips(u: SetUniverse, sets, covered) -> list:
    """Sets survive set -> mewo -> set, the direct presentation of each set
    equals the literal one, and covered mewos survive mewo -> set -> mewo."""
    failures = []
    for h in sets:
        X = mewo_of_set(h)
        if set_of_mewo(X, u) != h:
            failures.append(("phi(psi(h)) != h", h.id))
        if not mewo_equal(X, mewo_of_set_literal(h), u):
            failures.append(("psi(h) != literal psi(h)", h.id))
    for X in covered:
        if not mewo_equal(X, mewo_of_set(set_of_mewo(X, u)), u):
            failures.append(("psi(phi(X)) !~ X", X.size))
    return failures


def _match_oracle(pairs, checks) -> list:
    """The pairs on which a check's fast decision and its oracle, called on the pair, answer differently."""
    return [(tag, X.size, Y.size) for X, Y in pairs for tag, fast, slow in checks if fast(X, Y) != slow(X, Y)]


def _decisions_match_oracle(pairs, simulate, bounded, equal) -> list:
    """Simulation, bounded simulation and equality against their oracles, a witness listed as its oracle lists it."""
    return _match_oracle(pairs, (
        ("simulation", lambda X, Y: [w.mapping for w in [simulate(X, Y)] if w is not None], oracle.enum_simulations),
        ("bounded", lambda X, Y: [w for w in [bounded(X, Y)] if w is not None], oracle.enum_bounded_sims),
        ("equality", equal, oracle.equal_by_permutation)))


def ordinal_decisions_match_oracle(pairs) -> list:
    """On every pair of ordinals, simulation, bounded_sim and same_order_type agree with
    oracle.enum_simulations, oracle.enum_bounded_sims and oracle.equal_by_permutation."""
    return _decisions_match_oracle(pairs, simulation, bounded_sim, same_order_type)


def mewo_decisions_match_oracle(u: SetUniverse, pairs) -> list:
    """On every pair of mewos, simulation_mewo, bounded_sim_mewo and mewo_equal agree with the same three oracles."""
    simulate, bounded, equal = (partial(decide, u=u) for decide in (simulation_mewo, bounded_sim_mewo, mewo_equal))
    return _decisions_match_oracle(pairs, simulate, bounded, equal)


def partial_sims_match_oracle(u: SetUniverse, pairs) -> list:
    """On every pair of mewos, partial_sim agrees with oracle.partial_sim_by_segments, and principality_check
    holds exactly when oracle.enum_simulations finds a map just when a partial simulation exists."""
    segments = lru_cache(maxsize=1)(oracle.partial_sim_by_segments)
    principal = lambda X, Y: bool(oracle.enum_simulations(X, Y)) == (segments(X, Y) is not None)
    return _match_oracle(pairs, (("partial", partial(partial_sim, u=u), segments),
                                 ("principality", partial(principality_check, u=u), principal)))


def collapse_matches_bisimilar(u: SetUniverse, pairs) -> list:
    """Two pointed graphs collapse to one set exactly when they are bisimilar."""
    return [
        ("collapse", g1.n, g2.n)
        for g1, g2 in pairs
        if (u.from_graph(g1) == u.from_graph(g2)) != oracle.bisimilar(g1, g2)
    ]


def nested_segments(ordinals) -> list:
    """A segment has one element per element of its carrier, and a segment of
    a segment is the segment of the whole below the same element."""
    failures = []
    for alpha in ordinals:
        for a in range(alpha.size):
            seg, carrier = down(alpha, a), down_carrier(alpha, a)
            if seg.size != len(carrier):
                failures.append(("down.carrier", order_type(alpha), a))
                continue
            for pos, b in enumerate(carrier):
                if down(seg, pos) != down(alpha, b):
                    failures.append(("down.down", order_type(alpha), a))
    return failures


def segments_of_sums(sizes) -> list:
    """Below chain(i), chain(i) + chain(j) has the segments of chain(i), and
    chain(i) + 1 has chain(i) below its top."""
    failures = []
    for i in sizes:
        for j in sizes:
            s = ord_sum(chain(i), chain(j))
            failures += [("sum.left", i, j) for a in range(i) if down(s, a) != down(chain(i), a)]
        if down(ord_sum(chain(i), chain(1)), i) != chain(i):
            failures.append(("sum.top", i))
    return failures


def segments_covered(mewos) -> list:
    """Every initial segment down_plus(X, x) is covered and marks exactly the
    direct predecessors X.preds[x], read through down_plus_carrier."""
    return [(tag, X.size, x) for X in mewos for x in range(X.size) for seg in [down_plus(X, x)] for tag, holds in (
        ("segment.covered", is_covered(seg)),
        ("segment.marks", tuple(compress(down_plus_carrier(X, x), seg.marks)) == X.preds[x]),
    ) if not holds]


def sup_segments(families) -> list:
    """A supremum is an upper bound of its family, and each of its initial
    segments is an initial segment of one of the family's ordinals."""
    failures = []
    for fam in families:
        s, sizes = sup(fam), tuple(f.size for f in fam)
        failures += [("sup.segment", sizes) for y in range(s.size)
                     if not any(same_order_type(down(s, y), down(f, x)) for f in fam for x in range(f.size))]
        failures += [("sup.upper", sizes) for f in fam if simulation(f, s) is None]
    return failures


def segments_injective(u: SetUniverse, mewos) -> list:
    """Distinct elements of a mewo have distinct initial segments down_plus."""
    return [("segment.injective", X.size) for X in mewos
            for S, T in combinations([down_plus(X, x) for x in range(X.size)], 2) if mewo_equal(S, T, u)]


def covering_is_principality(u: SetUniverse, mewos, targets) -> list:
    """A mewo is covered exactly when it is principal: a covered one passes
    principality_check against every target, an uncovered one fails it
    against its covered part."""
    failures = []
    for X in mewos:
        if is_covered(X):
            failures += [("covered not principal", X.size, Y.size) for Y in targets if not principality_check(X, Y, u)]
        elif principality_check(X, covered_part(X), u):
            failures.append(("uncovered looked principal", X.size))
    return failures


def _related(u: SetUniverse, mewos, decide) -> set:
    """The index pairs (i, j) of the pool on which `decide` finds a witness."""
    return {(i, j) for i, X in enumerate(mewos) for j, Y in enumerate(mewos) if decide(X, Y, u) is not None}


def strict_into_markall(u: SetUniverse, mewos) -> list:
    """Bounded simulations land in the fully marked codomain: X < Y gives a
    simulation of X into mark_all(Y), and X < Y < Z gives X < mark_all(Z)."""
    failures, strict, marked = [], _related(u, mewos, bounded_sim_mewo), [mark_all(Y) for Y in mewos]
    for i, j in sorted(strict):
        if simulation_mewo(mewos[i], marked[j], u) is None:
            failures.append(("markall.weak", i, j))
        failures += [("markall.strict", i, j, k) for k in range(len(mewos))
                     if (j, k) in strict and bounded_sim_mewo(mewos[i], marked[k], u) is None]
    return failures


def strict_then_weak_is_strict(u: SetUniverse, mewos) -> list:
    """Bounded simulation composes with simulation: X < Y and Y <= Z give X < Z."""
    strict, weak = _related(u, mewos, bounded_sim_mewo), _related(u, mewos, simulation_mewo)
    return [("strict.weak.compose", i, j, k) for i, j in sorted(strict) for k in range(len(mewos))
            if (j, k) in weak and (i, k) not in strict]


def unions_are_covered(u: SetUniverse, members) -> list:
    """The union of two covered mewos is covered."""
    return [("union.covered",) for fam in product(members, repeat=2) if not is_covered(union(list(fam), u))]


def unions_are_least_upper_bounds(u: SetUniverse, members, bounds) -> list:
    """The union of two mewos is a least upper bound under simulation: both
    simulate into it, and it simulates into every bound that both do."""
    failures = []
    for fam in product(members, repeat=2):
        big = union(list(fam), u)
        if any(simulation_mewo(X, big, u) is None for X in fam):
            failures.append(("union.upper",))
        failures += [("union.least",) for Y in bounds
                     if all(simulation_mewo(X, Y, u) is not None for X in fam) and simulation_mewo(big, Y, u) is None]
    return failures


# -- suites -------------------------------------------------------------------
# Each suite yields its cases as (name, input, expected, got).


def _outcome(fn, *args) -> str:
    """What fn(*args) does: "accepted", or the axiom whose check fails."""
    try:
        fn(*args)
    except ExtensionalityError:
        return "extensionality"
    except WellfoundednessError:
        return "wellfoundedness"
    return "accepted"


def _suite_sets(seed: int, max_size: int, max_depth: int):
    u = SetUniverse()
    e = u.empty()
    yield "mk_set.duplicates", "{{},{}} vs {{}}", True, u.mk_set([e, e]) == u.mk_set([e])
    s1 = u.mk_set([u.mk_set([e]), e])
    s2 = u.mk_set([e, u.mk_set([e])])
    yield "mk_set.permutation", "{{{}},{}} vs {{},{{}}}", True, s1 == s2
    yield "mem.empty", "{} in {{{}}}", False, u.mem(e, u.mk_set([u.mk_set([e])]))
    yield "rank.numeral", f"rank of numeral {max_depth}", max_depth, u.rank_nat(u.von_neumann(max_depth))
    pool = oracle.enumerate_v(min(4, max(2, max_size)), u)
    ext_ok = all(
        set(m.id for m in u.elements(x)) != set(m.id for m in u.elements(y))
        for i, x in enumerate(pool)
        for y in pool[i + 1 :]
    )
    yield "extensionality.pool", f"all pairs in stage {min(4, max(2, max_size))}", True, ext_ok
    yield "universe.acyclic", "topological id order", True, u.check_acyclic()
    gs = []
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, max(2, min(max_size, 8) + 2))
        gs.append(PointedGraph.make([sorted(rng.sample(range(j), min(j, rng.randint(0, 2)))) for j in range(n)], n - 1))
    agree = not collapse_matches_bisimilar(u, zip(gs[::2], gs[1::2]))
    yield "from_graph.vs.bisimilar", "20 seeded graph pairs", True, agree
    roundtrip = True
    set_cfg = oracle.GenConfig(seed=seed, max_width=3, max_depth=max_depth, count=20)
    for h in oracle.gen_random_set(set_cfg, u):
        doc = export_slice(h)
        u2 = SetUniverse()
        h2 = import_slice(doc, u2)
        if export_slice(h2) != doc:
            roundtrip = False
    yield "json.roundtrip", "20 seeded sets", True, roundtrip


def _relabeled(n: int) -> FinOrd:
    """chain(n) on a fixed non-canonical carrier: element 0 on top, n - 1 at the bottom."""
    return FinOrd(reversed(range(n)))


def _suite_ordinals(seed: int, max_size: int, max_depth: int):
    n = max(2, min(max_size, 6))
    yield "validate.chain", f"{n}-chain", True, validate_ord(n, oracle._lists(_relabeled(n))[0]) == _relabeled(n)
    got = _outcome(validate_ord, 2, [[False, False], [False, False]])
    yield "validate.antichain", "2 points, no order", "extensionality", got
    got = _outcome(validate_ord, 2, [[False, True], [True, False]])
    yield "validate.cycle", "2-cycle", "wellfoundedness", got
    ok = not nested_segments([_relabeled(size) for size in range(n + 1)])
    yield "segments.iterate", f"chains up to {n}", True, ok
    yield "segments.of.sums", f"sums up to {n}+{n}", True, not segments_of_sums(range(n))
    families = [(0,), (1, 2), (2, 3, 1), (3, 3), tuple(range(min(4, n)))]
    ok = all(order_type(sup([_relabeled(s) for s in sizes])) == max(sizes, default=0) for sizes in families)
    yield "sup.order.type", "small families", True, ok
    yield "sup.segments", "small families", True, not sup_segments([list(map(_relabeled, f)) for f in families])
    bound = min(max_size, 5)
    agree = not ordinal_decisions_match_oracle(product(map(_relabeled, range(bound + 1)), repeat=2))
    yield "simulation.vs.oracle", f"chain pairs up to {bound}", True, agree


def _suite_mewos(seed: int, max_size: int, max_depth: int):
    point, open_point, cb, u = bullet(), circ(), circ_bullet(), SetUniverse()
    yield "covered.single.unmarked", "one unmarked point", False, is_covered(open_point)
    yield "covered.two.chain", "unmarked below marked", True, is_covered(cb)
    yield "down_plus.two.chain", "top segment of two-chain", True, mewo_equal(down_plus(cb, 1), point, u)
    small = [m for s in range(min(3, max_size) + 1) for m in oracle.enumerate_mewos(s)]
    yield "down_plus.covered", "all segments at small size", True, not segments_covered(small)
    yield "singleton.uncovered", "one unmarked point", "extensionality", _outcome(singleton, open_point)
    yield "singleton.bullet", "marked point", True, mewo_equal(singleton(point), cb, u)
    two_marked = from_ordinal(chain(2))
    yield (
        "union.marking.exists",
        "fully marked 2-chain with partially marked one",
        True,
        mewo_equal(union([two_marked, cb], u), two_marked, u),
    )
    got = principality_check(open_point, covered_part(open_point), u)
    yield "principality.uncovered", "unmarked point vs its covered part", False, got
    agree = not mewo_decisions_match_oracle(u, product(small, repeat=2))
    yield "simulation.vs.oracle", "all pairs at small size", True, agree
    tiny, described = [X for X in small if X.size <= 2], f"mewos up to size {min(2, max_size)}"
    covered, pairs = [X for X in tiny if is_covered(X)], f"pairs of covered {described}"
    yield "partial.vs.oracle", f"pairs of {described}", True, not partial_sims_match_oracle(u, product(tiny, repeat=2))
    yield "covered.iff.principal", described, True, not covering_is_principality(u, tiny, tiny)
    yield "segments.injective", described, True, not segments_injective(u, tiny)
    yield "strict.into.markall", described, True, not strict_into_markall(u, tiny)
    yield "strict.weak.compose", described, True, not strict_then_weak_is_strict(u, tiny)
    yield "union.covered", pairs, True, not unions_are_covered(u, covered)
    yield "union.least.upper", pairs, True, not unions_are_least_upper_bounds(u, covered, tiny)


def _suite_correspondence(seed: int, max_size: int, max_depth: int):
    u = SetUniverse()
    k = min(max_size, 8)
    ok = not ordinal_roundtrips(u, [u.von_neumann(i) for i in range(k + 1)], [_relabeled(i) for i in range(k + 1)])
    yield "ordinal.roundtrips", f"numerals up to {k}", True, ok
    bound = min(max_size, 5)
    ok = not order_transport(u, [_relabeled(i) for i in range(bound + 1)])
    yield "order.transport", f"chain pairs up to {bound}", True, ok
    covered = [X for s in range(min(2, max_size) + 1) for X in oracle.enumerate_mewos(s) if is_covered(X)]
    ok = not mewo_transport(u, covered)
    yield "mewo.transport", f"covered mewo pairs up to size {min(2, max_size)}", True, ok
    rng = random.Random(seed)
    presented = []
    for _ in range(30):
        h = u.von_neumann(rng.randint(0, min(max_depth, 5)))
        members = u.elements(h)
        pres = members + [rng.choice(members)] if members else []
        rng.shuffle(pres)
        presented.append((h, pres))
    yield "rank.quotient", "30 seeded redundant presentations", True, not rank_descriptions(presented)
    cfg = oracle.GenConfig(seed=seed, max_width=3, max_depth=min(max_depth, 4), count=25)
    ok = not set_mewo_roundtrips(u, oracle.gen_random_set(cfg, u), ())
    yield "set.mewo.roundtrips", "25 seeded sets", True, ok
    ok = all(mewo_equal(mewo_of_set(set_of_ordinal(alpha, u)), from_ordinal(alpha), u)
             and set_of_mewo(from_ordinal(alpha), u) == set_of_ordinal(alpha, u)
             for alpha in map(_relabeled, range(min(max_size, 6) + 1)))
    yield "square.commutes", f"chains up to {min(max_size, 6)}", True, ok


def _suite_counterexamples(seed: int, max_size: int, max_depth: int):
    point, cb, emp, u = bullet(), circ_bullet(), empty_mewo(), SetUniverse()
    strict, weak = bounded_sim_mewo(point, cb, u) is not None, simulation_mewo(point, cb, u) is not None
    yield "bounded.sim.exists", "marked point into two-chain", True, strict
    yield "simulation.missing", "marked point into two-chain", True, not weak
    yield "empty.below.point", "empty into marked point", True, bounded_sim_mewo(emp, point, u) is not None
    got = bounded_sim_mewo(emp, cb, u) is None
    yield "not.transitive", "empty into two-chain despite the chain of bounded sims", True, got
    yield "strict.not.weak", "bounded sim without full simulation", True, strict and not weak
    got = simulation_mewo(point, mark_all(cb), u) is not None
    yield "marked.into.markall", "simulation appears after trivializing the marking", True, got


_SUITES = {
    "sets": _suite_sets,
    "ordinals": _suite_ordinals,
    "mewos": _suite_mewos,
    "correspondence": _suite_correspondence,
    "counterexamples": _suite_counterexamples,
}


def _cases(suite: str, *args):
    """The cases of one suite; an exception raised inside it ends the suite
    as one failing case that names it."""
    try:
        yield from _SUITES[suite](*args)
    except Exception as exc:
        yield f"{suite}.raised", "the rest of the suite", "no exception", f"{type(exc).__name__}: {exc}"


def run_suite(name: str, seed: int = 42, max_size: int = 4, max_depth: int = 4) -> dict:
    """Run one suite (or all) and return the machine-readable report."""
    if name not in SUITE_NAMES:
        raise FormatError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    picked = _SUITES if name == "all" else [name]
    cases = [
        dict(zip(("name", "input", "expected", "got"), case))
        for suite in picked
        for case in _cases(suite, seed, max_size, max_depth)
    ]
    return {
        "suite": name,
        "seed": seed,
        "cases": len(cases),
        "failures": [case for case in cases if case["expected"] != case["got"]],
    }
