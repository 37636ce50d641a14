"""Marked extensional wellfounded orders (mewos).

A mewo is a carrier 0..n-1 with an acyclic, extensional strict-order matrix
(transitivity is NOT required) plus a marking bitset. Marked elements play
the role of the top-level members of the set the structure presents; the
other elements present members of members.

Equality, simulation and bounded simulation are decided through Mostowski
codes alone: each element is collapsed bottom-up to the canonical set of
its direct predecessors' codes. Extensionality plus wellfoundedness make
this coding injective on the carrier, so matching codes decides structure
equality. X < Y (X is the segment below a marked element of Y) holds
exactly when X is covered and the set of the codes of X's marked elements
is the code of a marked element of Y. The brute-force permutation and map
searches in hfkit.oracle stay the authoritative cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, WellfoundednessError
from .ordinals import (
    FinOrd,
    _check_extensional,
    _clause,
    _find_cycle,
    _freeze,
    _lt_items,
    _read_clauses,
    lt_pairs,
)
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
        return f"Mewo(size={self.size}, lt={lt_pairs(self.lt)}, marked={self.marked_elements()})"

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
    _check_extensional(m)
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
    return bool(covered_mask(X).all())


def covered_mask(X: Mewo) -> np.ndarray:
    _, star = closure(X)
    return (star & X.marked[None, :]).any(axis=1)


def down_plus(X: Mewo, x: int) -> Mewo:
    """Initial segment: all elements transitively below x.

    The order is inherited from X; the marking singles out the direct
    predecessors of x. The result is always covered.
    """
    idxs = down_plus_carrier(X, x)
    return validate_mewo(len(idxs), X.lt[np.ix_(idxs, idxs)], X.lt[idxs, x])


def down_plus_carrier(X: Mewo, x: int) -> list[int]:
    """Original indices carried by down_plus(X, x), in carrier order."""
    if not (0 <= x < X.size):
        raise IndexError(f"element {x} out of range for size {X.size}")
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


def _membership_matrix(u: SetUniverse, sets: list[SetHandle]) -> np.ndarray:
    """The membership order of sets of u: m[a, b] means sets[a] is in sets[b]."""
    n = len(sets)
    m = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            m[a, b] = u.mem(sets[a], sets[b])
    return m


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
    equivalence as a map from X onto original Y indices.

    Decided on codes: the segment below y presents code(y), so the bound
    exists exactly when X is covered and the set of the codes of X's marked
    elements is the code of a marked y. X is covered exactly when that set
    has X.size hereditary members, the codes of the covered elements. The
    equivalence sends each x to the element of Y with the same code.
    """
    u = u if u is not None else SetUniverse()
    cx, _ = _code_index(X, u)
    target = u.mk_set([cx[x] for x in X.marked_elements()])
    if len(u.hereditary_members(target)) != X.size:
        return None
    _, index_y = _code_index(Y, u)
    y = index_y.get(target)
    if y is None or not Y.marked[y]:
        return None
    return y, tuple(index_y[cx[x]] for x in range(X.size))


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
    return validate_mewo(len(order), _membership_matrix(u, order), marked)


# -- serialization ------------------------------------------------------------


def _names(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"v{i}" for i in range(n)]


def mewo_to_text(X: Mewo) -> str:
    names = _names(X.size)
    elems = " ".join(names)
    edges = ", ".join(f"{names[i]}<{names[j]}" for i, j in lt_pairs(X.lt))
    marks = " ".join(names[i] for i in X.marked_elements())
    return (
        "mewo { "
        + "; ".join((_clause("elems", elems), _clause("lt", edges), _clause("marked", marks)))
        + " }"
    )


def _mewo_of_names(names: list, edges: list, marks: list) -> Mewo:
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


def mewo_from_text(text: str) -> Mewo:
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    marks: list[str] = []
    usage = "mewo { elems: ...; lt: ...; marked: ... }"
    for key, val in _read_clauses(text, "mewo", usage, ("elems", "lt", "marked")):
        if key == "elems":
            names = val.split()
        elif key == "lt":
            edges += _lt_items(val, str.strip)
        else:
            marks = val.split()
    return _mewo_of_names(names, edges, marks)


def mewo_to_json(X: Mewo) -> dict:
    names = _names(X.size)
    return {
        "elems": names,
        "lt": [[names[i], names[j]] for i, j in lt_pairs(X.lt)],
        "marked": [names[i] for i in X.marked_elements()],
    }


def mewo_from_json(doc: dict) -> Mewo:
    """Read the JSON mirror of the text form: an object whose `elems` and
    `marked` are lists of names and whose `lt` is a list of name pairs."""
    def are_names(v) -> bool:
        return isinstance(v, list) and all(isinstance(name, str) for name in v)

    if not isinstance(doc, dict):
        raise ValueError("a JSON mewo is an object with keys 'elems', 'lt' and 'marked'")
    for key in ("elems", "marked"):
        if not are_names(doc.get(key)):
            raise ValueError(f"key {key!r} must be a list of element names")
    lt = doc.get("lt")
    if not (isinstance(lt, list) and all(are_names(p) and len(p) == 2 for p in lt)):
        raise ValueError("key 'lt' must be a list of [name, name] pairs")
    return _mewo_of_names(doc["elems"], lt, doc["marked"])


def mewo_to_dot(X: Mewo, name: str = "mewo") -> str:
    names = _names(X.size)
    lines = [f"digraph {name} {{"]
    for i, label in enumerate(names):
        style = ' style=filled fillcolor=black fontcolor=white' if X.marked[i] else ""
        lines.append(f'  {label} [label="{label}"{style}];')
    for i, j in lt_pairs(X.lt):
        lines.append(f"  {names[i]} -> {names[j]};")
    lines.append("}")
    return "\n".join(lines)
