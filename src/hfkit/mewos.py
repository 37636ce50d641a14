"""Marked extensional wellfounded orders (mewos).

A mewo is a carrier 0..n-1 with an acyclic, extensional strict-order matrix
(transitivity is NOT required) plus a marking bitset. Marked elements play
the role of the top-level members of the set the structure presents; the
other elements present members of members.

Equality and simulation decisions route through Mostowski codes: each
element is collapsed bottom-up to the canonical set of its direct
predecessors' codes. Extensionality plus wellfoundedness make this coding
injective on the carrier, so matching codes decides structure equality.
The brute-force permutation and map searches in hfkit.oracle stay the
authoritative cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtensionalityError, ValidationError, WellfoundednessError
from .ordinals import FinOrd, _find_cycle, _freeze
from .universe import SetHandle, SetUniverse


class Mewo:
    """A validated marked order. Construct via validate_mewo or the builders."""

    __slots__ = ("size", "lt", "marked")

    def __init__(self, size: int, lt: np.ndarray, marked: np.ndarray):
        self.size = size
        self.lt = _freeze(np.array(lt, dtype=bool).reshape(size, size))
        self.marked = _freeze(np.array(marked, dtype=bool).reshape(size))

    def __eq__(self, other):
        return (
            isinstance(other, Mewo)
            and self.size == other.size
            and bool(np.array_equal(self.lt, other.lt))
            and bool(np.array_equal(self.marked, other.marked))
        )

    def __hash__(self):
        return hash((self.size, self.lt.tobytes(), self.marked.tobytes()))

    def __repr__(self):
        pairs = [(int(i), int(j)) for i, j in np.argwhere(self.lt)]
        marks = [int(i) for i in np.flatnonzero(self.marked)]
        return f"Mewo(size={self.size}, lt={pairs}, marked={marks})"

    def preds(self, x: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.lt[:, x])]

    def marked_elements(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.marked)]


@dataclass(frozen=True)
class MewoCode:
    """Per-element Mostowski codes of a mewo, inside one universe."""

    handles: tuple[SetHandle, ...]

    def __getitem__(self, i: int) -> SetHandle:
        return self.handles[i]

    def __len__(self) -> int:
        return len(self.handles)


@dataclass(frozen=True)
class MewoSimWitness:
    """Element map certifying a simulation between two mewos."""

    mapping: tuple[int, ...]

    def clause_report(self, X: Mewo, Y: Mewo) -> dict[str, bool]:
        """Re-check the three simulation clauses literally on the raw data."""
        f = self.mapping
        preserves_marking = all(
            Y.marked[f[x]] for x in range(X.size) if X.marked[x]
        )
        monotone = all(
            Y.lt[f[x1], f[x2]]
            for x1 in range(X.size)
            for x2 in range(X.size)
            if X.lt[x1, x2]
        )
        initial_segment = all(
            any(X.lt[x1, x2] and f[x1] == y for x1 in range(X.size))
            for x2 in range(X.size)
            for y in range(Y.size)
            if Y.lt[y, f[x2]]
        )
        return {
            "preserves_marking": preserves_marking,
            "monotone": monotone,
            "initial_segment": initial_segment,
        }

    def check(self, X: Mewo, Y: Mewo) -> bool:
        return all(self.clause_report(X, Y).values())


def validate_mewo(size: int, lt, marked) -> Mewo:
    """Validate a marked strict order: wellfounded and extensional, any marking."""
    m = np.array(lt, dtype=bool)
    mk = np.array(marked, dtype=bool)
    if m.shape != (size, size):
        raise ValidationError(f"matrix shape {m.shape} does not match size {size}")
    if mk.shape != (size,):
        raise ValidationError(f"marking shape {mk.shape} does not match size {size}")
    cycle = _find_cycle(m)
    if cycle is not None:
        raise WellfoundednessError(cycle)
    seen: dict[bytes, int] = {}
    for x in range(size):
        key = m[:, x].tobytes()
        if key in seen:
            raise ExtensionalityError(seen[key], x)
        seen[key] = x
    return Mewo(size, m, mk)


def closure(X: Mewo) -> tuple[np.ndarray, np.ndarray]:
    """Transitive closure of lt and its reflexive variant, as fresh matrices."""
    plus = X.lt.copy()
    while True:
        step = plus | ((plus.astype(np.uint8) @ plus.astype(np.uint8)) > 0)
        if np.array_equal(step, plus):
            break
        plus = step
    star = plus | np.eye(X.size, dtype=bool)
    return _freeze(plus), _freeze(star)


def is_covered(X: Mewo) -> bool:
    """Every element sits reflexive-transitively below some marked element."""
    _, star = closure(X)
    return bool((star & X.marked[None, :]).any(axis=1).all())


def covered_mask(X: Mewo) -> np.ndarray:
    _, star = closure(X)
    return (star & X.marked[None, :]).any(axis=1)


def down_plus(X: Mewo, x: int) -> Mewo:
    """Initial segment: all elements transitively below x.

    The order is inherited from X; the marking singles out the direct
    predecessors of x. The result is always covered.
    """
    if not (0 <= x < X.size):
        raise IndexError(f"element {x} out of range for size {X.size}")
    plus, _ = closure(X)
    idxs = np.flatnonzero(plus[:, x])
    return validate_mewo(len(idxs), X.lt[np.ix_(idxs, idxs)], X.lt[idxs, x])


def down_plus_carrier(X: Mewo, x: int) -> list[int]:
    """Original indices carried by down_plus(X, x), in carrier order."""
    plus, _ = closure(X)
    return [int(i) for i in np.flatnonzero(plus[:, x])]


def mark_all(X: Mewo) -> Mewo:
    return Mewo(X.size, X.lt, np.ones(X.size, dtype=bool))


def covered_part(X: Mewo) -> Mewo:
    """Restriction to the covered elements; always covered itself."""
    idxs = np.flatnonzero(covered_mask(X))
    return validate_mewo(len(idxs), X.lt[np.ix_(idxs, idxs)], X.marked[idxs])


def from_ordinal(alpha: FinOrd) -> Mewo:
    """View an ordinal as a mewo: same order, everything marked."""
    return validate_mewo(alpha.size, alpha.lt, np.ones(alpha.size, dtype=bool))


def _topo_order(X: Mewo) -> list[int]:
    # Kahn over the (acyclic) direct relation; stable in index order
    indeg = X.lt.sum(axis=0).astype(int)
    ready = sorted(int(i) for i in np.flatnonzero(indeg == 0))
    out: list[int] = []
    indeg = list(indeg)
    while ready:
        v = ready.pop(0)
        out.append(v)
        for w in np.flatnonzero(X.lt[v]):
            indeg[int(w)] -= 1
            if indeg[int(w)] == 0:
                ready.append(int(w))
        ready.sort()
    return out


def codes(X: Mewo, u: SetUniverse) -> MewoCode:
    """Mostowski codes: code(x) interns the set of its predecessors' codes."""
    # codes are deterministic per (universe, structure); the cache lives on
    # the universe, whose handles it holds, so the two are freed together
    per_universe = u._mewo_codes
    got = per_universe.get(X)
    if got is not None:
        return got
    result: list[SetHandle | None] = [None] * X.size
    for x in _topo_order(X):
        result[x] = u.mk_set([result[p] for p in X.preds(x)])
    got = MewoCode(tuple(result))
    per_universe[X] = got
    return got


def _code_index(X: Mewo, u: SetUniverse) -> tuple[MewoCode, dict[SetHandle, int]]:
    cs = codes(X, u)
    index = {cs[i]: i for i in range(X.size)}
    assert len(index) == X.size, "codes must be injective on the carrier"
    return cs, index


def mewo_equal(X: Mewo, Y: Mewo, u: SetUniverse | None = None) -> bool:
    """Equality as marked orders: code bijection that matches markings."""
    if X.size != Y.size:
        return False
    u = u if u is not None else SetUniverse()
    cx, _ = _code_index(X, u)
    cy, index_y = _code_index(Y, u)
    for x in range(X.size):
        y = index_y.get(cx[x])
        if y is None or bool(X.marked[x]) != bool(Y.marked[y]):
            return False
    return True


def simulation_mewo(X: Mewo, Y: Mewo, u: SetUniverse | None = None) -> MewoSimWitness | None:
    """The unique marking-preserving simulation X -> Y, or None.

    An element map is a simulation exactly when it matches initial
    segments pointwise, i.e. preserves Mostowski codes, and sends marked
    elements to marked elements.
    """
    u = u if u is not None else SetUniverse()
    cx, _ = _code_index(X, u)
    _, index_y = _code_index(Y, u)
    f: list[int] = []
    for x in range(X.size):
        y = index_y.get(cx[x])
        if y is None:
            return None
        if X.marked[x] and not Y.marked[y]:
            return None
        f.append(y)
    return MewoSimWitness(tuple(f))


def bounded_sim_mewo(
    X: Mewo, Y: Mewo, u: SetUniverse | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """The unique marked bound y with X equal to down_plus(Y, y), plus the
    equivalence as a map from X onto original Y indices."""
    u = u if u is not None else SetUniverse()
    cx, _ = _code_index(X, u)
    for y in Y.marked_elements():
        seg = down_plus(Y, y)
        if mewo_equal(X, seg, u):
            carrier = down_plus_carrier(Y, y)
            _, seg_index = _code_index(seg, u)
            iso = tuple(carrier[seg_index[cx[x]]] for x in range(X.size))
            return y, iso
    return None


def partial_sim(X: Mewo, Y: Mewo, u: SetUniverse | None = None) -> dict[int, int] | None:
    """Map each marked x to the unique marked y with the same initial segment."""
    u = u if u is not None else SetUniverse()
    cx, _ = _code_index(X, u)
    cy, _ = _code_index(Y, u)
    marked_codes = {cy[y]: y for y in Y.marked_elements()}
    f: dict[int, int] = {}
    for x in X.marked_elements():
        y = marked_codes.get(cx[x])
        if y is None:
            return None
        f[x] = y
    return f


def principality_check(X: Mewo, Y: Mewo, u: SetUniverse | None = None) -> bool:
    """Does a partial simulation into Y determine a full one and vice versa?

    Both sides are unique when they exist, so the restriction map is an
    equivalence for this Y exactly when existence coincides.
    """
    u = u if u is not None else SetUniverse()
    return (simulation_mewo(X, Y, u) is not None) == (partial_sim(X, Y, u) is not None)


def singleton(X: Mewo) -> Mewo:
    """Adjoin one marked top whose predecessors are the marked elements of X.

    For a non-covered X the result can fail extensionality (an uncovered
    element and the new top may share predecessor sets); the failure is
    reported rather than repaired.
    """
    n = X.size
    lt = np.zeros((n + 1, n + 1), dtype=bool)
    lt[:n, :n] = X.lt
    lt[:n, n] = X.marked
    marked = np.zeros(n + 1, dtype=bool)
    marked[n] = True
    return validate_mewo(n + 1, lt, marked)


def union(F: list[Mewo], u: SetUniverse | None = None) -> Mewo:
    """Union of a family: one element per distinct initial segment.

    Segments are compared through their codes; the order is code
    membership, and an element is marked when some representative is
    marked in its member. Class representatives are the lexicographically
    least (member index, element index) pairs, and the carrier lists
    classes in that order.
    """
    u = u if u is not None else SetUniverse()
    order: list[SetHandle] = []
    reps: dict[SetHandle, int] = {}
    marked: list[bool] = []
    for a, X in enumerate(F):
        cs = codes(X, u)
        for x in range(X.size):
            c = cs[x]
            pos = reps.get(c)
            if pos is None:
                reps[c] = len(order)
                order.append(c)
                marked.append(bool(X.marked[x]))
            elif X.marked[x]:
                marked[pos] = True
    n = len(order)
    lt = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            lt[i, j] = u.mem(order[i], order[j])
    return validate_mewo(n, lt, np.array(marked, dtype=bool))


# -- serialization ------------------------------------------------------------


def _names(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"v{i}" for i in range(n)]


def _clause(key: str, body: str) -> str:
    return f"{key}: {body}" if body else f"{key}:"


def mewo_to_text(X: Mewo) -> str:
    names = _names(X.size)
    elems = " ".join(names)
    edges = ", ".join(
        f"{names[i]}<{names[j]}"
        for i, j in sorted((int(i), int(j)) for i, j in np.argwhere(X.lt))
    )
    marks = " ".join(names[i] for i in X.marked_elements())
    return (
        "mewo { "
        + "; ".join((_clause("elems", elems), _clause("lt", edges), _clause("marked", marks)))
        + " }"
    )


def mewo_from_text(text: str) -> Mewo:
    body = text.strip()
    if not (body.startswith("mewo") and body.endswith("}")):
        raise ValueError("expected 'mewo { elems: ...; lt: ...; marked: ... }'")
    inner = body[body.index("{") + 1 : -1]
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    marks: list[str] = []
    for clause in inner.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        key, _, val = clause.partition(":")
        key = key.strip()
        if key == "elems":
            names = val.split()
        elif key == "lt":
            for item in val.split(","):
                item = item.strip()
                if item:
                    i, _, j = item.partition("<")
                    edges.append((i.strip(), j.strip()))
        elif key == "marked":
            marks = val.split()
        else:
            raise ValueError(f"unknown clause {key!r}")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate element name")
    n = len(names)
    lt = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if i not in index or j not in index:
            raise ValueError(f"edge {i}<{j} uses an undeclared element")
        lt[index[i], index[j]] = True
    marked = np.zeros(n, dtype=bool)
    for name in marks:
        if name not in index:
            raise ValueError(f"marked element {name} is not declared")
        marked[index[name]] = True
    return validate_mewo(n, lt, marked)


def mewo_to_json(X: Mewo) -> dict:
    names = _names(X.size)
    return {
        "elems": names,
        "lt": [
            [names[int(i)], names[int(j)]]
            for i, j in sorted((int(i), int(j)) for i, j in np.argwhere(X.lt))
        ],
        "marked": [names[i] for i in X.marked_elements()],
    }


def mewo_from_json(doc: dict) -> Mewo:
    names = list(doc["elems"])
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    lt = np.zeros((n, n), dtype=bool)
    for i, j in doc["lt"]:
        if i not in index or j not in index:
            raise ValueError(f"edge {i}<{j} uses an undeclared element")
        lt[index[i], index[j]] = True
    marked = np.zeros(n, dtype=bool)
    for name in doc["marked"]:
        if name not in index:
            raise ValueError(f"marked element {name} is not declared")
        marked[index[name]] = True
    return validate_mewo(n, lt, marked)


def mewo_to_dot(X: Mewo, name: str = "mewo") -> str:
    names = _names(X.size)
    lines = [f"digraph {name} {{"]
    for i, label in enumerate(names):
        style = ' style=filled fillcolor=black fontcolor=white' if X.marked[i] else ""
        lines.append(f'  {label} [label="{label}"{style}];')
    for i, j in sorted((int(i), int(j)) for i, j in np.argwhere(X.lt)):
        lines.append(f"  {names[i]} -> {names[j]};")
    lines.append("}")
    return "\n".join(lines)
