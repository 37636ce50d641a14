"""Brute-force reference decisions and structure generators.

Everything here is deliberately naive: simulations are found by trying
every map, each clause filtering all the maps still standing; isomorphisms by
trying every permutation the same way, partial simulations by matching
initial segments up to isomorphism, stages of the set hierarchy by
taking powersets, ordinals among sets by their definition, and the sets
that pointed graphs present by bisimulation (`bisimilar`, `mem_raw`), the
reference for SetUniverse.from_graph. The simulation clauses are stated
once; `is_simulation` applies them to one map, and witnesses are checked by it.
None of it shares code with the optimized decision procedures it
cross-checks: it reads an ordinal's order off its definition (x < y when
pos[x] < pos[y]) and a mewo's off `preds` and `marks`, never codes, and
turns them into nested lists once per call, an ordinal as the mewo with
every element marked; it walks pointed graphs and relations with one walk
of its own, `_reach`. The mewo generators build their mewos and call no
validator. `enumerate_mewos` walks only the strictly
upper-triangular relations, 2^(n(n-1)/2) of them: every acyclic relation
relabels to one along a topological order, so no class is missed. Each
class is represented by the relabeling that a walk over all 2^(n(n-1))
relations would meet first, so the output is that walk's. Nothing here
reads a numpy view, so no oracle and no generator imports numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .errors import CyclicError, FormatError, SizeLimitError, ValidationError, _checked
from .mewos import Mewo
from .ordinals import FinOrd
from .universe import PointedGraph, SetHandle, SetUniverse

ENUM_SIM_LIMIT = 6
ENUM_V_LIMIT = 5
ENUM_MEWO_LIMIT = 5


@dataclass(frozen=True)
class GenConfig:
    """Reproducible generator settings; equal configs give equal streams.
    Every field is an int, and all but the seed are non-negative."""

    seed: int
    max_width: int = 4
    max_depth: int = 4
    count: int = 100

    def __post_init__(self):
        _checked(int, self.seed)
        if min(_checked(int, self.max_width), _checked(int, self.max_depth), _checked(int, self.count)) < 0:
            raise ValidationError(f"{self} has a negative width, depth or count")


def _pair_lists(X, Y, bounded: str = "") -> tuple:
    """`_lists` of X, then of Y: two FinOrds or two Mewos, each with a hash. Past
    ENUM_SIM_LIMIT a `bounded` caller (its name) is refused, and any other's lists are not kept."""
    if not (type(X) is type(Y) and isinstance(X, (FinOrd, Mewo))):
        raise ValidationError("expected two FinOrds or two Mewos")
    if bounded and max(X.size, Y.size) > ENUM_SIM_LIMIT:
        raise SizeLimitError(f"{bounded} is bounded at size {ENUM_SIM_LIMIT}")
    for Z in (X, Y):
        try:
            hash(Z)  # `_kept_lists` caches by hash: a Mewo built with list rows has none
        except TypeError:
            raise ValidationError(f"{Z!r} has unhashable rows; build it with validate_mewo") from None
    read = _kept_lists if max(X.size, Y.size) <= ENUM_SIM_LIMIT else _lists
    return (*read(X), *read(Y))


def _lists(X) -> tuple[list[list[bool]], list[bool]]:
    """The order of X as nested lists and its marking as a list: a mewo's
    read off `preds` and `marks`, an ordinal's off its definition, x < y
    when pos[x] < pos[y], with every element marked."""
    if isinstance(X, FinOrd):
        return [[p < q for q in X.pos] for p in X.pos], [True] * X.size
    lt = [[False] * X.size for _ in X.preds]
    for x, ps in enumerate(X.preds):
        for p in ps:
            lt[p][x] = True
    return lt, list(X.marks)


_kept_lists = lru_cache(maxsize=1024)(_lists)  # one list form per structure within ENUM_SIM_LIMIT, shared: never written to


def _simulations(lt_x, marked_x, lt_y, marked_y, maps) -> list[tuple[int, ...]]:
    """The maps that meet every clause, each clause filtering the maps still standing."""
    n, m = len(lt_x), len(lt_y)
    maps = list(maps)
    for x in range(n):
        if marked_x[x]:
            maps = [f for f in maps if marked_y[f[x]]]
    for x1 in range(n):
        for x2 in range(n):
            if lt_x[x1][x2]:
                maps = [f for f in maps if lt_y[f[x1]][f[x2]]]
    for x2 in range(n):
        below = [x1 for x1 in range(n) if lt_x[x1][x2]]
        for y in range(m):
            maps = [f for f in maps if not lt_y[y][f[x2]] or any(f[x1] == y for x1 in below)]
    return maps


def is_simulation(X, Y, f) -> bool:
    """Is the element map f: X -> Y a simulation, by its clauses read off
    the nested lists of `_pair_lists`: marked elements go to marked
    elements, x1 < x2 gives f(x1) < f(x2), and everything
    below f(x2) is the image of something below x2. The one literal
    reference for the simulation witnesses of hfkit.ordinals and
    hfkit.mewos. f must list X.size ints, each an element of Y; otherwise
    FormatError says it has no length or names its first bad position."""
    lists = _pair_lists(X, Y)
    try:
        len(f)
    except TypeError:
        raise FormatError(f"not a map from {X.size} to {Y.size} elements: {f!r} has no length") from None
    for i in range(max(len(f), X.size)):
        if i >= min(len(f), X.size) or type(f[i]) is not int or not 0 <= f[i] < Y.size:
            raise FormatError(f"not a map from {X.size} to {Y.size} elements: position {i} of {tuple(f)!r}")
    return bool(_simulations(*lists, [f]))


def enum_simulations(X, Y) -> list[tuple[int, ...]]:
    """All maps X -> Y that is_simulation accepts: every map is tried, clause by clause."""
    lists = _pair_lists(X, Y, "enum_simulations")
    return _simulations(*lists, product(range(Y.size), repeat=X.size))


def _iso_maps(lt_x, marked_x, lt_y, marked_y) -> list[tuple[int, ...]]:
    """The permutations that carry each element's marking, then each (a, b) cell, across."""
    n = len(lt_x)
    if n != len(lt_y):
        return []
    maps = list(permutations(range(n)))
    for x in range(n):
        maps = [p for p in maps if marked_y[p[x]] == marked_x[x]]
    for a in range(n):
        for b in range(n):
            maps = [p for p in maps if lt_y[p[a]][p[b]] == lt_x[a][b]]
    return maps


def equal_by_permutation(X, Y) -> bool:
    """Isomorphism by exhaustive permutation search (order and marking)."""
    return bool(_iso_maps(*_pair_lists(X, Y, "equal_by_permutation")))


def enum_bounded_sims(X, Y) -> list[tuple[int, tuple[int, ...]]]:
    """All (bound, iso) pairs with X isomorphic to the segment below the bound.

    The bound must be marked and the segment carries the inherited order
    with the direct predecessors of the bound marked; in an ordinal every
    element is marked and is a direct predecessor of everything above it.
    """
    lt_x, marked_x, lt_y, marked_y = _pair_lists(X, Y, "enum_bounded_sims")
    found = []
    for b, marked in enumerate(marked_y):
        if marked:
            reach, seg, seg_marked = _segment(lt_y, b)
            for p in _iso_maps(lt_x, marked_x, seg, seg_marked):
                found.append((b, tuple(reach[i] for i in p)))
    return found


def partial_sim_by_segments(X: Mewo, Y: Mewo) -> dict[int, int] | None:
    """The partial simulation of two mewos, by isomorphism of segments: each
    marked x goes to the marked y whose segment is isomorphic to the segment
    below x, each segment carrying the inherited order with the direct
    predecessors of its bound marked; None when some marked x has no such y."""
    if not isinstance(X, Mewo):
        raise ValidationError("expected two Mewos")
    lt_x, marked_x, lt_y, marked_y = _pair_lists(X, Y, "partial_sim_by_segments")
    f = {}
    for x in range(X.size):
        if marked_x[x]:
            seg_x = _segment(lt_x, x)[1:]
            ys = [y for y in range(Y.size) if marked_y[y] and _iso_maps(*seg_x, *_segment(lt_y, y)[1:])]
            if not ys:
                return None
            f[x] = ys[0]
    return f


def _segment(lt, b: int) -> tuple[list[int], list[list[bool]], list[bool]]:
    """The elements transitively below b, then the inherited order on them
    and their marking by the direct predecessors of b."""
    reach = _below_transitively(lt, b)
    return reach, [[lt[i][j] for j in reach] for i in reach], [lt[i][b] for i in reach]


def _below_transitively(lt, b: int) -> list[int]:
    """The elements transitively below b, ascending."""

    def below(v: int) -> list[int]:
        return [w for w, row in enumerate(lt) if row[v]]

    return _reach(below, below(b))


def _reach(step, starts) -> list[int]:
    """The vertices reachable from `starts` along `step`, the starts
    included, ascending: the one walk of the oracle."""
    todo = list(starts)
    seen = set(todo)
    while todo:
        for w in step(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return sorted(seen)


def is_hereditarily_transitive(h: SetHandle) -> bool:
    """The definition of a set-theoretic ordinal, literally: h is transitive
    and so is every member of h, where a set is transitive when the members
    of each member are members. Members are read off `elements`, once per
    set, as a Python set of ids. The reference for SetUniverse.is_st_ordinal."""
    table: dict[int, tuple[list[SetHandle], set[int]]] = {}

    def members(s: SetHandle) -> tuple[list[SetHandle], set[int]]:
        if s.id not in table:
            elems = s.elements()
            table[s.id] = (elems, {m.id for m in elems})
        return table[s.id]

    def transitive(s: SetHandle) -> bool:
        elems, ids = members(s)
        return all(members(m)[1] <= ids for m in elems)

    return transitive(_checked(SetHandle, h)) and all(transitive(m) for m in members(h)[0])


# -- bisimulation oracle on raw graphs ---------------------------------------
#
# Deliberately shares no code with from_graph: reachability and acyclicity
# are read off `_reach`, and the relation is the greatest fixpoint computed
# by naive iteration.


def _require_acyclic(g: PointedGraph, verts: list[int]) -> None:
    """Raise CyclicError if some vertex of `verts` reaches itself. Each such
    vertex has a successor that does too (the next one on its cycle), so
    following first such successors from the least one must close a cycle."""

    def step(v: int) -> list[int]:
        return g.successors[v]

    looping = {v for v in verts if v in _reach(step, step(v))}
    if not looping:
        return
    path = [min(looping)]
    while True:
        v = next(w for w in step(path[-1]) if w in looping)
        if v in path:
            raise CyclicError(path[path.index(v):])
        path.append(v)


def bisimilar(g1: PointedGraph, g2: PointedGraph) -> bool:
    """Greatest-fixpoint bisimulation between the roots, by naive iteration."""
    r1 = _reach(lambda v: g1.successors[v], [_checked(PointedGraph, g1).root])
    r2 = _reach(lambda v: g2.successors[v], [_checked(PointedGraph, g2).root])
    _require_acyclic(g1, r1)
    _require_acyclic(g2, r2)
    rel = {(u, v): True for u in r1 for v in r2}
    changed = True
    while changed:
        changed = False
        for (u, v), ok in rel.items():
            if not ok:
                continue
            fwd = all(any(rel[(a, b)] for b in g2.successors[v]) for a in g1.successors[u])
            bwd = fwd and all(
                any(rel[(a, b)] for a in g1.successors[u]) for b in g2.successors[v]
            )
            if not bwd:
                rel[(u, v)] = False
                changed = True
    return rel[(g1.root, g2.root)]


def mem_raw(x: PointedGraph, y: PointedGraph) -> bool:
    """Raw membership: some direct successor of y's root is bisimilar to x."""
    _checked(PointedGraph, x)
    return any(bisimilar(x, y.reroot(c)) for c in set(_checked(PointedGraph, y).successors[y.root]))


def enumerate_v(level: int, u: SetUniverse) -> list[SetHandle]:
    """All sets of rank below `level`; sizes 0, 1, 2, 4, 16, 65536."""
    if not 0 <= _checked(int, level) <= ENUM_V_LIMIT:
        raise SizeLimitError(f"enumerate_v is bounded at levels 0 to {ENUM_V_LIMIT}, not {level}")
    stage: list[SetHandle] = []
    for _ in range(level):
        stage = [
            u.mk_set([stage[i] for i in range(len(stage)) if mask >> i & 1])
            for mask in range(1 << len(stage))
        ]
    return stage


def enumerate_mewos(size: int) -> list[Mewo]:
    """All mewos on a carrier of exactly `size` elements, up to relabeling.

    Only the strictly upper-triangular relations (i < j) are walked, none
    of them cyclic: every acyclic relation relabels to one along a
    topological order, so every class is met. Each is filtered for
    extensionality, which relabeling keeps. A class met for the first time
    (its least relabeled matrix not seen yet) is represented by the
    relabeling a walk over all off-diagonal slots would meet first, the one
    with the least slot bits, the last slot weighing most. That
    representative is crossed with every marking; candidates are
    deduplicated by the least (matrix, marking) under all carrier
    permutations, the markings relabeled only by the permutations that give
    the least matrix. So each class keeps the candidate that walk would keep.
    """
    if not 0 <= _checked(int, size) <= ENUM_MEWO_LIMIT:
        raise SizeLimitError(f"enumerate_mewos is bounded at sizes 0 to {ENUM_MEWO_LIMIT}, not {size}")
    slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    upper = [(i, j) for i, j in slots if i < j]
    perms = list(permutations(range(size)))
    out: dict[tuple, Mewo] = {}
    classes = set()
    for bits in range(1 << len(upper)):
        lt = [[False] * size for _ in range(size)]
        for k, (i, j) in enumerate(upper):
            if bits >> k & 1:
                lt[i][j] = True
        if not _is_extensional(lt):
            continue
        least = min(tuple(lt[a][b] for a in p for b in p) for p in perms)
        if least in classes:
            continue
        classes.add(least)
        lt = min(([[lt[a][b] for b in p] for a in p] for p in perms),
                 key=lambda m: [m[i][j] for i, j in reversed(slots)])
        best = [p for p in perms if tuple(lt[a][b] for a in p for b in p) == least]
        preds = tuple(tuple(i for i in range(size) if lt[i][x]) for x in range(size))
        for mbits in range(1 << size):
            marked = [mbits >> i & 1 == 1 for i in range(size)]
            key = (least, min(tuple(marked[a] for a in p) for p in best))
            if key not in out:
                out[key] = Mewo(preds, marked)
    return [out[k] for k in sorted(out)]


def _is_extensional(lt) -> bool:
    return len({tuple(row[x] for row in lt) for x in range(len(lt))}) == len(lt)


def gen_random_set(cfg: GenConfig, u: SetUniverse):
    """Reproducible stream of sets with rank at most max_depth."""
    rng = random.Random(_checked(GenConfig, cfg).seed)
    _checked(SetUniverse, u)

    def build(depth: int) -> SetHandle:
        if depth == 0:
            return u.mk_set(())
        width = rng.randint(0, cfg.max_width)
        return u.mk_set([build(rng.randint(0, depth - 1)) for _ in range(width)])

    for _ in range(cfg.count):
        yield build(cfg.max_depth)


def gen_random_mewo(cfg: GenConfig, covered_only: bool = False):
    """Reproducible stream of valid mewos, each drawn as a transitive family:
    each of a random number of attempts keeps every earlier element below a
    new one with probability 0.45, and adds it unless its predecessor tuple
    was drawn already, so the order is wellfounded and extensional as drawn.
    Elements are marked with probability 0.6. With covered_only, mewos that
    `_reach` from the marked elements does not cover are skipped, after the
    same draws. Only cfg.seed, cfg.max_width and cfg.count are read."""
    rng = random.Random(_checked(GenConfig, cfg).seed)
    produced = 0
    while produced < cfg.count:
        preds: list[tuple[int, ...]] = []
        for _ in range(rng.randint(0, max(1, cfg.max_width))):
            ps = tuple(p for p in range(len(preds)) if rng.random() < 0.45)
            if ps not in preds:
                preds.append(ps)
        marks = [rng.random() < 0.6 for _ in preds]
        tops = [x for x, m in enumerate(marks) if m]
        if covered_only and len(_reach(lambda v: preds[v], tops)) < len(preds):
            continue
        produced += 1
        yield Mewo(tuple(preds), marks)
