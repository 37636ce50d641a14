"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every law of hfkit.suites, which `hfkit check` runs on small pools, is
called here on the criteria's larger pools; what a criterion states
inline, such as the counts of criterion 1 or the budget of criterion 9, no
suite checks. Criterion 7a puts every mewo decision beside its oracle
(the partial simulations on the pairs of size at most 3), and 7b every
ordinal decision.
"""

from __future__ import annotations

import itertools
import random
import time

from hfkit import (
    PointedGraph,
    SetUniverse,
    bisimilar,
    chain,
    enumerate_v,
    gen_random_mewo,
    gen_random_set,
    GenConfig,
    run_suite,
)
from hfkit.suites import (
    collapse_matches_bisimilar,
    covering_is_principality,
    mewo_decisions_match_oracle,
    mewo_transport,
    nested_segments,
    order_transport,
    ordinal_decisions_match_oracle,
    ordinal_roundtrips,
    partial_sims_match_oracle,
    rank_descriptions,
    segments_covered,
    segments_injective,
    segments_of_sums,
    set_mewo_roundtrips,
    strict_into_markall,
    strict_then_weak_is_strict,
    sup_segments,
    unions_are_covered,
    unions_are_least_upper_bounds,
)
from conftest import labeled_ordinals
from test_universe import rand_graph


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


def test_criterion_2_order_transport_trichotomy(covered_pool):
    u = SetUniverse()
    failures = order_transport(u, labeled_ordinals(6, all_perms_upto=4, samples=3, seed=2))
    failures += mewo_transport(u, [X for X in covered_pool if X.size <= 3])
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
        gen_random_mewo(GenConfig(seed=47, max_width=7, count=500), covered_only=True)
    )
    report(4, "set/covered-mewo translations invert", set_mewo_roundtrips(u, sets, covered))


def test_criterion_5_counterexample_fixtures():
    failures = run_suite("counterexamples")["failures"]
    report(5, "strict order is neither weak-implying nor transitive", failures)


def test_criterion_6_covering_is_principality(mewo_pool, small_mewo_pool):
    failures = covering_is_principality(SetUniverse(), mewo_pool, small_mewo_pool)
    report(6, "covering and principality coincide on the corpus", failures)


def test_criterion_7a_mewo_decisions_match_oracle(mewo_pool, small_mewo_pool):
    u = SetUniverse()
    failures = mewo_decisions_match_oracle(u, itertools.product(mewo_pool, repeat=2))
    failures += partial_sims_match_oracle(u, itertools.product(small_mewo_pool, repeat=2))
    report(7, "mewo decisions agree with brute force on every small pair", failures)


def test_criterion_7b_ordinal_decisions_match_oracle():
    pool = labeled_ordinals(5, all_perms_upto=4, samples=3, seed=7)
    report(7, "ordinal decisions agree with brute force on every small pair",
           ordinal_decisions_match_oracle(itertools.product(pool, repeat=2)))


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
    pairs = [(rand_graph(rng, 8, 3), rand_graph(rng, 8, 3)) for _ in range(10_000)]
    failures += collapse_matches_bisimilar(u, pairs)
    report(7, "collapse equality is exactly bisimilarity", failures)


def test_criterion_8_algebraic_laws(mewo_pool, covered_pool, small_mewo_pool):
    u = SetUniverse()
    failures = nested_segments(labeled_ordinals(7, all_perms_upto=3, samples=2, seed=8))
    failures += segments_of_sums(range(5))
    families = [list(map(chain, sizes)) for k in (1, 2, 3) for sizes in itertools.product(range(5), repeat=k)]
    failures += sup_segments(families)
    failures += segments_covered(mewo_pool)
    failures += strict_into_markall(u, small_mewo_pool)
    failures += strict_then_weak_is_strict(u, small_mewo_pool)
    failures += segments_injective(u, mewo_pool)
    members = [X for X in covered_pool if X.size <= 2]
    failures += unions_are_covered(u, members) + unions_are_least_upper_bounds(u, members, small_mewo_pool)
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
