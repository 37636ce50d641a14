"""Workload `decide`: the mewo decisions over every pair of the size <= 4 pool.

Set-up enumerates the pool: every mewo on at most 4 elements up to
relabeling (167 of them). A pass sends every ordered pair through
`simulation_mewo`, `bounded_sim_mewo`, `mewo_equal` and
`principality_check` in one shared universe, whose codes cache stays warm
from the second pass on. It also runs `singleton` and `union` on covered
members of the pool, and the brute-force `enum_simulations`,
`enum_bounded_sims` and `equal_by_permutation` on a seeded sample of pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from model import SetTable, expect

POOL_SIZE = 4
SMALL_POOL_SIZE = 3
ORACLE_SAMPLE = 150
CONSTRUCTIONS = 40


@dataclass
class Context:
    pool: list  # hfkit Mewo objects
    universe: object


@dataclass
class Shape:
    """The benchmark's own view of one mewo."""

    size: int
    lt: list[list[bool]]
    marked: list[bool]
    code: list[int]  # model set id of each element's initial segment
    below: list[set[int]]  # elements transitively below each element
    covered: bool
    presents: int  # model id of the set of the marked elements' codes


@dataclass
class Inputs:
    table: SetTable
    shapes: list[Shape]
    expected: list[list[tuple]]  # [i][j] -> (sim, bounded bound or None, equal, principal)
    oracle_pairs: list[tuple[int, int]]
    singletons: list[int]
    unions: list[tuple[int, int]]


def setup(hf) -> Context:
    pool = [X for size in range(POOL_SIZE + 1) for X in hf.enumerate_mewos(size)]
    return Context(pool, hf.SetUniverse())


def shape_of(table: SetTable, X) -> Shape:
    n = X.size
    lt = X.lt.tolist()
    marked = X.marked.tolist()
    below: list[set[int]] = [set() for _ in range(n)]
    code: list[int | None] = [None] * n
    while None in code:
        for x in range(n):
            preds = [p for p in range(n) if lt[p][x]]
            if code[x] is None and all(code[p] is not None for p in preds):
                code[x] = table.add(code[p] for p in preds)
                for p in preds:
                    below[x] |= below[p] | {p}
    covered = all(marked[x] or any(marked[z] and x in below[z] for z in range(n)) for x in range(n))
    return Shape(n, lt, marked, code, below, covered, table.add(code[x] for x in range(n) if marked[x]))


def expected_pair(X: Shape, Y: Shape, same: bool) -> tuple:
    """What the fast paths must answer for (X, Y), derived from Mostowski codes."""
    index_y = {c: y for y, c in enumerate(Y.code)}
    sim = all(c in index_y and (not X.marked[x] or Y.marked[index_y[c]])
              for x, c in enumerate(X.code))
    bound = index_y.get(X.presents) if X.covered else None
    if bound is not None and not Y.marked[bound]:
        bound = None
    marked_codes = {Y.code[y] for y in range(Y.size) if Y.marked[y]}
    partial = all(X.code[x] in marked_codes for x in range(X.size) if X.marked[x])
    return sim, bound, same, sim == partial


def build(hf, ctx: Context, seed: int, small: bool, workdir) -> Inputs:
    if small:
        ctx.pool = [X for X in ctx.pool if X.size <= SMALL_POOL_SIZE]
    table = SetTable()
    shapes = [shape_of(table, X) for X in ctx.pool]
    keys = {(s.size, frozenset(zip(s.code, s.marked))) for s in shapes}
    expect(len(keys) == len(shapes), "the mewo pool repeats a mewo up to relabeling")
    expected = [[expected_pair(X, Y, i == j) for j, Y in enumerate(shapes)]
                for i, X in enumerate(shapes)]

    rng = random.Random(seed)
    pairs = [(i, j) for i in range(len(shapes)) for j in range(len(shapes))]
    with_sim = [p for p in pairs if expected[p[0]][p[1]][0]]
    without = [p for p in pairs if not expected[p[0]][p[1]][0]]
    half = ORACLE_SAMPLE // 2
    oracle_pairs = rng.sample(with_sim, min(half, len(with_sim)))
    oracle_pairs += rng.sample(without, min(half, len(without)))
    covered = [i for i, s in enumerate(shapes) if s.covered]
    singletons = [rng.choice(covered) for _ in range(CONSTRUCTIONS)]
    unions = [(rng.choice(covered), rng.choice(covered)) for _ in range(CONSTRUCTIONS)]
    return Inputs(table, shapes, expected, oracle_pairs, singletons, unions)


def decide_pair(hf, X, Y, u) -> tuple:
    return (hf.simulation_mewo(X, Y, u), hf.bounded_sim_mewo(X, Y, u),
            hf.mewo_equal(X, Y, u), hf.principality_check(X, Y, u))


def run_pass(hf, ctx: Context, inp: Inputs, op) -> None:
    pool, u, shapes = ctx.pool, ctx.universe, inp.shapes
    oracle_pairs = set(inp.oracle_pairs)
    fast: dict[tuple[int, int], tuple] = {}
    for i, X in enumerate(pool):
        for j, Y in enumerate(pool):
            got = op("decide_pair", decide_pair, hf, X, Y, u)
            check_pair(shapes[i], shapes[j], inp.expected[i][j], got)
            if (i, j) in oracle_pairs:
                fast[i, j] = got

    for i in inp.singletons:
        Z = op("singleton", hf.singleton, pool[i])
        check_presents(inp.table, Z, inp.table.add([shapes[i].presents]), "singleton")
    for i, j in inp.unions:
        Z = op("union", hf.union, [pool[i], pool[j]], u)
        members = inp.table.members[shapes[i].presents] | inp.table.members[shapes[j].presents]
        check_presents(inp.table, Z, inp.table.add(members), "union")

    for i, j in inp.oracle_pairs:
        X, Y = pool[i], pool[j]
        sim, bounded, equal, _ = fast[i, j]
        maps = op("enum_simulations", hf.enum_simulations, X, Y)
        expect(maps == ([sim.mapping] if sim else []), f"pair {i},{j}: oracle simulations differ")
        bounds = op("enum_bounded_sims", hf.enum_bounded_sims, X, Y)
        expect(bounds == ([bounded] if bounded else []), f"pair {i},{j}: oracle bounded sims differ")
        same = op("equal_by_permutation", hf.equal_by_permutation, X, Y)
        expect(same == equal, f"pair {i},{j}: oracle equality differs")


def check_pair(X: Shape, Y: Shape, expected: tuple, got: tuple) -> None:
    sim, bounded, equal, principal = got
    want_sim, want_bound, want_equal, want_principal = expected
    expect((sim is not None) == want_sim, "simulation_mewo disagrees on existence")
    if sim is not None:
        check_simulation(X, Y, sim.mapping)
    expect((bounded is not None) == (want_bound is not None),
           "bounded_sim_mewo disagrees on existence")
    if bounded is not None:
        expect(bounded[0] == want_bound, "bounded_sim_mewo returned another bound")
        check_bounded(X, Y, *bounded)
    expect(equal == want_equal, "mewo_equal does not hold exactly on the diagonal")
    expect(principal == want_principal, "principality_check disagrees")


def check_simulation(X: Shape, Y: Shape, f: tuple) -> None:
    """The three simulation clauses, one by one."""
    expect(len(f) == X.size and all(0 <= y < Y.size for y in f), "witness is not a map X -> Y")
    for x in range(X.size):
        expect(not X.marked[x] or Y.marked[f[x]], f"witness sends marked {x} to unmarked {f[x]}")
    for a in range(X.size):
        for b in range(X.size):
            expect(not X.lt[a][b] or Y.lt[f[a]][f[b]], f"witness breaks {a}<{b}")
    for b in range(X.size):
        for y in range(Y.size):
            if Y.lt[y][f[b]]:
                expect(any(X.lt[a][b] and f[a] == y for a in range(X.size)),
                       f"{y} below the image of {b} has no preimage below {b}")


def check_bounded(X: Shape, Y: Shape, bound: int, iso: tuple) -> None:
    """iso is an isomorphism of X onto the marked segment below a marked bound."""
    expect(0 <= bound < Y.size and Y.marked[bound], "bound is not a marked element")
    expect(len(iso) == X.size and set(iso) == Y.below[bound], "iso is not onto the segment")
    for a in range(X.size):
        expect(X.marked[a] == Y.lt[iso[a]][bound], f"marking of {a} differs from the segment's")
        for b in range(X.size):
            expect(X.lt[a][b] == Y.lt[iso[a]][iso[b]], f"iso does not carry the order at {a},{b}")


def check_presents(table: SetTable, Z, expected: int, what: str) -> None:
    got = table.read_mewo(Z.size, Z.lt.tolist(), Z.marked.tolist())
    expect(got == expected, f"{what} presents another set")
