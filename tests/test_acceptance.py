"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The laws that `hfkit check` also checks come from hfkit.suites; the
criteria call them on larger pools.
"""

from __future__ import annotations

import itertools
import random
import time

from hfkit import (
    PointedGraph,
    SetUniverse,
    bisimilar,
    bounded_sim,
    bounded_sim_mewo,
    chain,
    covered_part,
    down,
    down_plus,
    enumerate_v,
    equal_by_permutation,
    gen_random_mewo,
    gen_random_set,
    GenConfig,
    is_covered,
    mark_all,
    mewo_equal,
    principality_check,
    run_suite,
    same_order_type,
    simulation,
    simulation_mewo,
    sup,
    union,
)
from hfkit.suites import (
    bounded_sims_match_oracle,
    collapse_matches_bisimilar,
    nested_segments,
    order_transport,
    ordinal_roundtrips,
    rank_descriptions,
    segments_covered,
    segments_of_sums,
    set_mewo_roundtrips,
    simulations_match_oracle,
)
from test_ordinals import labeled_ordinals


def report(criterion: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {description}")
    assert not failures, f"criterion {criterion}: {failures[:5]}"


def all_pointed_dags(max_n):
    """Every pointed DAG up to relabeling: edges run from higher to lower index."""
    for n in range(1, max_n + 1):
        per_vertex = []
        for v in range(n):
            per_vertex.append(
                [tuple(i for i in range(v) if mask >> i & 1) for mask in range(1 << v)]
            )
        for choice in itertools.product(*per_vertex):
            yield PointedGraph(n, choice, n - 1)


def test_criterion_1_theorem_33_roundtrips():
    u = SetUniverse()
    st_ordinals = [h for h in enumerate_v(4, u) if u.is_st_ordinal(h)]
    failures = [] if len(st_ordinals) == 4 else [("stage-4 ordinal count", len(st_ordinals))]
    sets = st_ordinals + [u.von_neumann(n) for n in range(13)]
    failures += ordinal_roundtrips(u, sets, labeled_ordinals(8, all_perms_upto=4, samples=4))
    report(1, "set/ordinal translations invert exactly", failures)


def test_criterion_2_order_transport_trichotomy():
    failures = order_transport(SetUniverse(), labeled_ordinals(6, all_perms_upto=4, samples=3, seed=2))
    report(2, "=, <, <= transport to =, membership, inclusion", failures)


def test_criterion_3_rank_descriptions_agree():
    u = SetUniverse()
    rng = random.Random(45)
    presented = []
    for _ in range(500):
        h = u.von_neumann(rng.randint(0, 5))
        members = u.elements(h)
        pres = list(members)
        while members and len(pres) < 6 and rng.random() < 0.7:
            pres.append(rng.choice(members))
        rng.shuffle(pres)
        presented.append((h, pres))
    report(3, "quotient and element descriptions match the recursive rank", rank_descriptions(presented))


def test_criterion_4_theorem_76_roundtrips(covered_pool):
    u = SetUniverse()
    sets = enumerate_v(4, u) + list(
        gen_random_set(GenConfig(seed=46, max_width=5, max_depth=5, count=1000), u)
    )
    covered = covered_pool + list(
        gen_random_mewo(GenConfig(seed=47, max_width=7, max_depth=4, count=500), covered_only=True)
    )
    report(4, "set/covered-mewo translations invert", set_mewo_roundtrips(u, sets, covered))


def test_criterion_5_counterexample_fixtures():
    failures = run_suite("counterexamples")["failures"]
    report(5, "strict order is neither weak-implying nor transitive", failures)


def test_criterion_6_covering_is_principality(mewo_pool, covered_pool, small_mewo_pool):
    failures = []
    u = SetUniverse()
    for X in covered_pool:
        for Y in small_mewo_pool:
            if not principality_check(X, Y, u):
                failures.append(("covered not principal", X.size, Y.size))
    for X in mewo_pool:
        if not is_covered(X):
            if principality_check(X, covered_part(X), u):
                failures.append(("uncovered looked principal", X.size))
    report(6, "covering and principality coincide on the corpus", failures)


def test_criterion_7a_mewo_decisions_match_oracle(mewo_pool):
    u = SetUniverse()
    failures = simulations_match_oracle(mewo_pool, lambda X, Y: simulation_mewo(X, Y, u))
    failures += bounded_sims_match_oracle(mewo_pool, lambda X, Y: bounded_sim_mewo(X, Y, u))
    for X in mewo_pool:
        for Y in mewo_pool:
            if mewo_equal(X, Y, u) != equal_by_permutation(X, Y):
                failures.append(("equality", X.size, Y.size))
    report(7, "mewo decisions agree with brute force on every small pair", failures)


def test_criterion_7b_ordinal_decisions_match_oracle():
    pool = labeled_ordinals(5, all_perms_upto=4, samples=3, seed=7)
    failures = simulations_match_oracle(pool, simulation) + bounded_sims_match_oracle(pool, bounded_sim)
    report(7, "ordinal decisions agree with brute force on every small pair", failures)


def test_criterion_7c_collapse_agrees_with_bisimulation():
    failures = []
    u = SetUniverse()
    graphs = list(all_pointed_dags(5))
    buckets: dict = {}
    for g in graphs:
        buckets.setdefault(u.from_graph(g), []).append(g)
    reps = [(h, gs[0]) for h, gs in buckets.items()]
    for h, gs in buckets.items():
        rep = gs[0]
        for g in gs:
            if not bisimilar(g, rep):
                failures.append(("same handle, not bisimilar", g.n))
    for (h1, g1), (h2, g2) in itertools.combinations(reps, 2):
        if bisimilar(g1, g2):
            failures.append(("distinct handles, bisimilar", g1.n, g2.n))
    small = [g for g in graphs if g.n <= 4]
    failures += collapse_matches_bisimilar(u, itertools.product(small, repeat=2))
    rng = random.Random(48)

    def rand_graph():
        n = rng.randint(1, 8)
        succ = []
        for v in range(n):
            k = rng.randint(0, min(v, 3))
            succ.append(tuple(rng.randrange(v) for _ in range(k)) if v else ())
        return PointedGraph(n, tuple(succ), n - 1)

    failures += collapse_matches_bisimilar(u, [(rand_graph(), rand_graph()) for _ in range(10_000)])
    report(7, "collapse equality is exactly bisimilarity", failures)


def test_criterion_8_algebraic_laws(mewo_pool, covered_pool, small_mewo_pool):
    u = SetUniverse()
    failures = nested_segments(labeled_ordinals(7, all_perms_upto=3, samples=2, seed=8))
    failures += segments_of_sums(range(5))

    # segments of suprema come from components
    for k in (1, 2, 3):
        for sizes in itertools.product(range(5), repeat=k):
            fam = [chain(s) for s in sizes]
            s = sup(fam)
            for y in range(s.size):
                if not any(
                    same_order_type(down(s, y), down(f, x))
                    for f in fam
                    for x in range(f.size)
                ):
                    failures.append(("sup.segment", sizes))

    # every mewo initial segment is covered
    failures += segments_covered(mewo_pool)

    # strict drops into the fully marked codomain, and composes through it
    pool3 = small_mewo_pool
    strict = {}
    weak = {}
    for i, X in enumerate(pool3):
        for j, Y in enumerate(pool3):
            strict[i, j] = bounded_sim_mewo(X, Y, u) is not None
            weak[i, j] = simulation_mewo(X, Y, u) is not None
    for i, X in enumerate(pool3):
        for j, Y in enumerate(pool3):
            if strict[i, j] and simulation_mewo(X, mark_all(Y), u) is None:
                failures.append(("markall.weak", i, j))
            for k, Z in enumerate(pool3):
                if strict[i, j] and strict[j, k]:
                    if bounded_sim_mewo(X, mark_all(Z), u) is None:
                        failures.append(("markall.strict", i, j, k))
                if strict[i, j] and weak[j, k] and not strict[i, k]:
                    failures.append(("strict.weak.compose", i, j, k))

    # segments are injective
    for X in mewo_pool:
        for x1 in range(X.size):
            for x2 in range(x1 + 1, X.size):
                if mewo_equal(down_plus(X, x1), down_plus(X, x2), u):
                    failures.append(("segment.injective", X.size))

    # unions are least upper bounds and preserve covering
    members = [X for X in covered_pool if X.size <= 2]
    bounds = [Y for Y in small_mewo_pool]
    for fam in itertools.product(members, repeat=2):
        fam = list(fam)
        big = union(fam, u)
        if not is_covered(big):
            failures.append(("union.covered",))
        if any(simulation_mewo(X, big, u) is None for X in fam):
            failures.append(("union.upper",))
        for Y in bounds:
            if all(simulation_mewo(X, Y, u) is not None for X in fam):
                if simulation_mewo(big, Y, u) is None:
                    failures.append(("union.least",))

    report(8, "segment, sum, supremum, marking, and union laws hold", failures)


def test_criterion_9_large_collapse_smoke():
    failures = []
    rng = random.Random(99)
    n_big = 100_000
    succ = [()]
    for v in range(1, n_big):
        k = rng.randint(0, 3)
        lo = max(0, v - 50)
        succ.append(tuple(rng.randrange(lo, v) for _ in range(k)))
    big = PointedGraph(n_big, tuple(succ), n_big - 1)
    u = SetUniverse()
    t0 = time.time()
    u.from_graph(big)
    elapsed = time.time() - t0
    if elapsed > 5.0:
        failures.append(("collapse too slow", elapsed))

    # subsample: vertices with small hereditary closure, compared pairwise
    # through the naive bisimulation oracle on their extracted subgraphs
    cap = 25

    def extract(v):
        seen = [v]
        mark = {v}
        i = 0
        while i < len(seen):
            for w in succ[seen[i]]:
                if w not in mark:
                    if len(seen) > cap:
                        return None
                    mark.add(w)
                    seen.append(w)
            i += 1
        order = sorted(mark)
        index = {x: i for i, x in enumerate(order)}
        rows = tuple(tuple(index[w] for w in succ[x]) for x in order)
        return PointedGraph(len(order), rows, index[v])

    sample = []
    v = 0
    while len(sample) < 1000 and v < n_big:
        g = extract(v)
        if g is not None:
            sample.append((v, g))
        v += 1
    if len(sample) < 1000:
        failures.append(("subsample too small", len(sample)))
    handles = [u.from_graph(g) for _, g in sample]
    for i in range(len(sample) - 1):
        if (handles[i] == handles[i + 1]) != bisimilar(sample[i][1], sample[i + 1][1]):
            failures.append(("oracle disagreement", i))
    # extraction preserves the collapse: rerooting the full graph agrees
    for idx in (0, 250, 500, 999):
        vertex, _ = sample[idx]
        if u.from_graph(big.reroot(vertex)) != handles[idx]:
            failures.append(("extraction changed the set", vertex))
    report(9, "bulk collapse finishes in budget and matches the oracle", failures)
