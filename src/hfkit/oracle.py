"""Brute-force reference decisions and structure generators.

Everything here is deliberately naive: simulations are found by trying
every map or, for ordinals, by matching predecessor sets on the raw
matrices, isomorphisms by trying every permutation, stages of the set
hierarchy by taking powersets. `is_simulation` is the one literal
statement of the simulation clauses; witnesses are checked against it.
None of it shares code with the optimized decision procedures it
cross-checks: it reads `lt` and `marked`, never codes or positions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .errors import SizeLimitError
from .mewos import Mewo, is_covered, validate_mewo
from .ordinals import FinOrd, validate_ord
from .universe import SetHandle, SetUniverse

ENUM_SIM_LIMIT = 6
ENUM_V_LIMIT = 5
ENUM_MEWO_LIMIT = 4


@dataclass(frozen=True)
class GenConfig:
    """Reproducible generator settings; equal configs give equal streams."""

    seed: int
    max_width: int = 4
    max_depth: int = 4
    count: int = 100


def _is_mewo_pair(X, Y) -> bool:
    if isinstance(X, Mewo) and isinstance(Y, Mewo):
        return True
    if isinstance(X, FinOrd) and isinstance(Y, FinOrd):
        return False
    raise TypeError("expected two FinOrds or two Mewos")


def _enumerable_pair(X, Y, name: str) -> bool:
    with_marking = _is_mewo_pair(X, Y)
    if X.size > ENUM_SIM_LIMIT or Y.size > ENUM_SIM_LIMIT:
        raise SizeLimitError(f"{name} is bounded at size {ENUM_SIM_LIMIT}")
    return with_marking


def _clauses_hold(X, Y, f, with_marking: bool) -> bool:
    n = X.size
    lt_x, lt_y = X.lt, Y.lt
    if with_marking and any(X.marked[x] and not Y.marked[f[x]] for x in range(n)):
        return False
    if any(lt_x[x1, x2] and not lt_y[f[x1], f[x2]] for x1 in range(n) for x2 in range(n)):
        return False
    return all(
        any(lt_x[x1, x2] and f[x1] == y for x1 in range(n))
        for x2 in range(n)
        for y in range(Y.size)
        if lt_y[y, f[x2]]
    )


def is_simulation(X, Y, f) -> bool:
    """Is the element map f: X -> Y a simulation, by its clauses read off
    `lt` and `marked`: marked elements go to marked elements (mewos only),
    x1 < x2 gives f(x1) < f(x2), and everything below f(x2) is the image of
    something below x2. The one literal reference for the simulation
    witnesses of hfkit.ordinals and hfkit.mewos."""
    return _clauses_hold(X, Y, f, _is_mewo_pair(X, Y))


def enum_simulations(X, Y) -> list[tuple[int, ...]]:
    """All maps X -> Y that is_simulation accepts, found by trying every one."""
    with_marking = _enumerable_pair(X, Y, "enum_simulations")
    return [f for f in product(range(Y.size), repeat=X.size) if _clauses_hold(X, Y, f, with_marking)]


def simulation_by_predecessors(alpha: FinOrd, beta: FinOrd) -> tuple[int, ...] | None:
    """The simulation alpha -> beta by generic initial-segment matching.

    Each x, taken in order of its number of predecessors, goes to the unique
    y whose predecessor set is the image of x's predecessor set; None when
    some x has no such y. Reads only the `lt` matrices, never the positions
    the fast path in hfkit.ordinals uses.
    """
    pred_sets_y = {
        frozenset(int(i) for i in np.flatnonzero(beta.lt[:, y])): y for y in range(beta.size)
    }
    f: dict[int, int] = {}
    for x in sorted(range(alpha.size), key=lambda x: int(alpha.lt[:, x].sum())):
        y = pred_sets_y.get(frozenset(f[int(p)] for p in np.flatnonzero(alpha.lt[:, x])))
        if y is None:
            return None
        f[x] = y
    return tuple(f[x] for x in range(alpha.size))


def _iso_maps(X, Y, with_marking: bool) -> list[tuple[int, ...]]:
    if X.size != Y.size:
        return []
    out = []
    for p in permutations(range(Y.size)):
        if with_marking and any(
            bool(X.marked[x]) != bool(Y.marked[p[x]]) for x in range(X.size)
        ):
            continue
        if all(
            bool(X.lt[a, b]) == bool(Y.lt[p[a], p[b]])
            for a in range(X.size)
            for b in range(X.size)
        ):
            out.append(p)
    return out


def equal_by_permutation(X, Y) -> bool:
    """Isomorphism by exhaustive permutation search (order and marking)."""
    with_marking = _enumerable_pair(X, Y, "equal_by_permutation")
    return bool(_iso_maps(X, Y, with_marking))


def enum_bounded_sims(X, Y) -> list[tuple[int, tuple[int, ...]]]:
    """All (bound, iso) pairs with X isomorphic to the segment below the bound.

    For mewos the bound must be marked and the segment carries the
    inherited order with direct predecessors marked; for ordinals any
    bound qualifies.
    """
    with_marking = _enumerable_pair(X, Y, "enum_bounded_sims")
    found = []
    for b in range(Y.size):
        if with_marking and not Y.marked[b]:
            continue
        reach = _below_transitively(Y.lt, b)
        lt = Y.lt[np.ix_(reach, reach)]
        if with_marking:
            seg = validate_mewo(len(reach), lt, Y.lt[reach, b])
        else:
            seg = validate_ord(len(reach), lt)
        for p in _iso_maps(X, seg, with_marking):
            found.append((b, tuple(reach[i] for i in p)))
    return found


def _below_transitively(lt: np.ndarray, b: int) -> list[int]:
    todo = [int(i) for i in np.flatnonzero(lt[:, b])]
    seen = set(todo)
    while todo:
        v = todo.pop()
        for w in np.flatnonzero(lt[:, v]):
            if int(w) not in seen:
                seen.add(int(w))
                todo.append(int(w))
    return sorted(seen)


def enumerate_v(level: int, u: SetUniverse) -> list[SetHandle]:
    """All sets of rank below `level`; sizes 0, 1, 2, 4, 16, 65536."""
    if level > ENUM_V_LIMIT:
        raise SizeLimitError(f"enumerate_v is bounded at level {ENUM_V_LIMIT}")
    stage: list[SetHandle] = []
    for _ in range(level):
        stage = [
            u.mk_set([stage[i] for i in range(len(stage)) if mask >> i & 1])
            for mask in range(1 << len(stage))
        ]
    return stage


def enumerate_mewos(size: int) -> list[Mewo]:
    """All mewos on a carrier of exactly `size` elements, up to relabeling.

    Every acyclic relation is filtered for extensionality and crossed with
    every marking; candidates are deduplicated by the least matrix under
    all carrier permutations.
    """
    if size > ENUM_MEWO_LIMIT:
        raise SizeLimitError(f"enumerate_mewos is bounded at size {ENUM_MEWO_LIMIT}")
    slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    out: dict[tuple, Mewo] = {}
    for bits in range(1 << len(slots)):
        lt = np.zeros((size, size), dtype=bool)
        for k, (i, j) in enumerate(slots):
            if bits >> k & 1:
                lt[i, j] = True
        if _has_cycle(lt) or not _is_extensional(lt):
            continue
        for mbits in range(1 << size):
            marked = np.array([mbits >> i & 1 == 1 for i in range(size)], dtype=bool)
            key = _canonical_key(lt, marked)
            if key not in out:
                out[key] = validate_mewo(size, lt, marked)
    return [out[k] for k in sorted(out)]


def _has_cycle(lt: np.ndarray) -> bool:
    n = lt.shape[0]
    reach = lt.copy()
    for _ in range(n):
        reach = reach | ((reach.astype(np.uint8) @ lt.astype(np.uint8)) > 0)
    return bool(reach.diagonal().any())


def _is_extensional(lt: np.ndarray) -> bool:
    cols = {lt[:, x].tobytes() for x in range(lt.shape[0])}
    return len(cols) == lt.shape[0]


def _canonical_key(lt: np.ndarray, marked: np.ndarray) -> tuple:
    n = lt.shape[0]
    best = None
    for p in permutations(range(n)):
        perm = list(p)
        relab = lt[np.ix_(perm, perm)]
        key = (relab.tobytes(), marked[perm].tobytes())
        if best is None or key < best:
            best = key
    return best


def gen_random_set(cfg: GenConfig, u: SetUniverse):
    """Reproducible stream of sets with rank at most max_depth."""
    rng = random.Random(cfg.seed)

    def build(depth: int) -> SetHandle:
        if depth == 0:
            return u.mk_set(())
        width = rng.randint(0, cfg.max_width)
        return u.mk_set([build(rng.randint(0, depth - 1)) for _ in range(width)])

    for _ in range(cfg.count):
        yield build(cfg.max_depth)


def gen_random_mewo(cfg: GenConfig, covered_only: bool = False):
    """Reproducible stream of valid mewos.

    Draws a random acyclic relation, then repairs extensionality by
    merging equal-predecessor elements until none remain, and finally
    assigns a random marking. With covered_only, structures whose marking
    does not cover are skipped.
    """
    rng = random.Random(cfg.seed)
    produced = 0
    while produced < cfg.count:
        n = rng.randint(0, max(1, cfg.max_width))
        lt = np.zeros((n, n), dtype=bool)
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.45:
                    lt[i, j] = True
        lt = _collapse_to_extensional(lt)
        m = lt.shape[0]
        marked = np.array([rng.random() < 0.6 for _ in range(m)], dtype=bool)
        X = validate_mewo(m, lt, marked)
        if covered_only and not is_covered(X):
            continue
        produced += 1
        yield X


def _collapse_to_extensional(lt: np.ndarray) -> np.ndarray:
    while True:
        n = lt.shape[0]
        seen: dict[bytes, int] = {}
        dup = None
        for x in range(n):
            key = lt[:, x].tobytes()
            if key in seen:
                dup = (seen[key], x)
                break
            seen[key] = x
        if dup is None:
            return lt
        keep, drop = dup
        # successors of the dropped element fold into the kept one
        lt[keep] = lt[keep] | lt[drop]
        live = [i for i in range(n) if i != drop]
        lt = lt[np.ix_(live, live)]
