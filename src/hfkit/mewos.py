"""Marked extensional wellfounded orders (mewos).

A mewo is a carrier 0..n-1 with an acyclic, extensional direct relation
(transitivity is NOT required), stored as `preds`, the ascending tuple of
each element's direct predecessors, plus `marks`, one bool per element.
hfkit installs nothing else: the read-only numpy views `lt` and `marked`
are built on each read and need numpy installed, and validate_mewo still
accepts numpy arrays beside nested lists and tuples. Marked elements play the
role of the top-level members of the set the structure presents; the
other elements present members of members.

All four decisions (equality, simulation, bounded simulation and
principality) are read off Mostowski codes alone: each element is
collapsed bottom-up to the canonical set of its direct predecessors'
codes, by one walk of the universe's collapse that also gives the set the
mewo presents, the set of its marked elements' codes. Extensionality plus
wellfoundedness make this coding injective on the carrier, so X is fixed
by T_X, the codes of its elements, and M_X, those of its marked elements
(the members of the set X presents), and each decision is an inclusion:
- X equals Y exactly when T_X = T_Y (a code-preserving bijection is an
  isomorphism) and both present the same set;
- a simulation X -> Y, sending each x to the element of Y with its code,
  exists exactly when T_X <= T_Y and M_X <= M_Y; a partial one, exactly
  when M_X <= M_Y;
- X < Y (X is the segment below a marked element of Y) holds exactly when
  X is covered (a property of X alone, kept on X) and the set X presents
  is in M_Y;
- principality holds exactly when T_X <= T_Y or not M_X <= M_Y.
X's one code record, kept for the last universe, holds T_X as the keys of
its index and M_X as a frozenset. Each decision tests its operands'
records inline, one identity test each: on cached codes it calls nothing,
compares key views and frozensets and builds only its witness. A miss or
a wrong kind goes to `_collapse`. `union` maps its members' records to its
own by a record step; `singleton` reads only `preds` and marks, and its
record step serves the literal recursion alone. Every decision and `union`
take the caller's universe, and no operation reaches another one;
hfkit.oracle's brute-force searches stay the authoritative cross-check. A
mewo or a universe of another kind is a ValidationError naming that kind.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import compress

from .errors import ExtensionalityError, FormatError, _checked
from .ordinals import (
    BoundedSimWitness,
    FinOrd,
    SimWitness,
    _checked_preds,
    _clause,
    _entries,
    _lt_items,
    _read_clauses,
    _successors,
    _transpose,
)
from .universe import SetHandle, SetUniverse, _below


class Mewo:
    """A validated marked order. Construct via validate_mewo or the builders;
    the constructor trusts `preds` to be wellfounded and extensional and
    `marks` to hold one bool per element. Equality and hash compare `preds` and `marks`."""

    __slots__ = ("size", "preds", "marks", "_covered", "_collapsed")

    def __init__(self, preds: tuple[tuple[int, ...], ...], marks):
        self.size = len(preds)
        self.preds = preds
        self.marks = tuple(marks)
        self._covered = None  # computed on first use; see is_covered
        self._collapsed = None  # the code record (u._ref, index, root, M_X) for the last universe u: see _collapse

    @property
    def lt(self):
        """The direct relation as a read-only numpy matrix, built on every read; lt[i, j] means i < j.
        Reading it needs numpy installed, which hfkit does not install."""
        import numpy as np

        m = np.zeros((self.size, self.size), dtype=bool)
        m[[p for ps in self.preds for p in ps],
          [x for x, ps in enumerate(self.preds) for _ in ps]] = True
        m.setflags(write=False)
        return m

    @property
    def marked(self):
        """The marking as a read-only numpy vector of bools, built on every read.
        Reading it needs numpy installed, which hfkit does not install."""
        import numpy as np

        m = np.array(self.marks, dtype=bool)
        m.setflags(write=False)
        return m

    def __eq__(self, other):
        return isinstance(other, Mewo) and (self.preds, self.marks) == (other.preds, other.marks)

    def __hash__(self):
        return hash((self.preds, self.marks))

    def __reduce__(self):  # without the code record: a cache, and it names its universe by a weakref
        return Mewo, (self.preds, self.marks)

    def __repr__(self):
        return f"Mewo(size={self.size}, lt={_pairs(self)}, marked={self.marked_elements()})"

    def marked_elements(self) -> list[int]:
        return list(compress(range(self.size), self.marks))


def validate_mewo(size: int, lt, marked) -> Mewo:
    """Validate a marked strict order, given as a 0/1 matrix and a 0/1
    marking (nested lists, tuples or numpy arrays): wellfounded and
    extensional, any marking."""
    succ = _successors(size, lt)
    return Mewo(_checked_preds(succ), map(bool, _entries(marked, size, "the marking")))


def _restrict(X: Mewo, idxs: list[int], marked) -> Mewo:
    """X on an ascending, downward closed list of its elements."""
    pos = {i: k for k, i in enumerate(idxs)}
    return Mewo(tuple(tuple(pos[p] for p in X.preds[i]) for i in idxs), marked)


def is_covered(X: Mewo) -> bool:
    """Every element sits reflexive-transitively below some marked element; kept on X."""
    try:
        covered = X._covered
    except AttributeError:
        _checked(Mewo, X)
        raise
    if covered is None:
        covered = X._covered = all(covered_mask(X))
    return covered


def covered_mask(X: Mewo) -> list[bool]:
    tops = _checked(Mewo, X).marked_elements()
    covered = _below(X.preds, tops).union(tops)
    return [x in covered for x in range(X.size)]


def down_plus(X: Mewo, x: int) -> Mewo:
    """Initial segment: all elements transitively below x.

    The order is inherited from X; the marking singles out the direct
    predecessors of x. The result is always covered.
    """
    idxs = down_plus_carrier(X, x)
    direct = set(X.preds[x])
    return _restrict(X, idxs, [i in direct for i in idxs])


def down_plus_carrier(X: Mewo, x: int) -> list[int]:
    """Original indices carried by down_plus(X, x), in carrier order."""
    preds = _checked(Mewo, X).preds
    if type(x) is not int or not 0 <= x < len(preds):
        raise IndexError(f"element {x!r} out of range for size {len(preds)}")
    return sorted(_below(preds, [x]))


def mark_all(X: Mewo) -> Mewo:
    return Mewo(_checked(Mewo, X).preds, (True,) * X.size)


def covered_part(X: Mewo) -> Mewo:
    """Restriction to the covered elements; always covered itself."""
    idxs = [x for x, c in enumerate(covered_mask(X)) if c]
    return _restrict(X, idxs, [X.marks[i] for i in idxs])


def from_ordinal(alpha: FinOrd) -> Mewo:
    """View an ordinal as a mewo: same order, everything marked."""
    order = _checked(FinOrd, alpha).in_order()
    preds = tuple(tuple(sorted(order[:p])) for p in alpha.pos)
    return Mewo(preds, (True,) * alpha.size)


def codes(X: Mewo, u: SetUniverse) -> tuple[SetHandle, ...]:
    """Mostowski codes: code(x) interns the set of its predecessors' codes."""
    return tuple(SetHandle(u, i) for i in _collapse(X, u)[1])


def _collapse(X: Mewo, u: SetUniverse) -> tuple[Callable[[], SetUniverse | None], dict[int, int], int, frozenset[int]]:
    """X's code record in u, the flat tuple `(u._ref, index, root, M_X)`,
    from the collapse in u of `preds` plus a root over the marked elements.
    `index` maps each element's code id to the element, in element order,
    so its keys are T_X; `root` is the id of the set X presents; M_X is the
    frozenset of the marked elements' code ids. `u._ref`, u's weakref to
    itself, names the record's universe (u keeps no per-mewo state): the
    record is kept on X, as `union` keeps its own, and returned when its
    first field is `u._ref`, an identity test no new universe passes.
    The four decisions make that test inline; this is their miss path, and
    the one place that collapses a mewo into a record or refuses one: a
    universe or mewo of another kind is a ValidationError, coinciding codes
    (only an unvalidated `Mewo(...)` has them) an ExtensionalityError naming
    the pair; a refusal stores and interns nothing."""
    try:
        if (got := X._collapsed) is not None and got[0] is u._ref:
            return got
    except AttributeError:
        _checked(Mewo, X)
        _checked(SetUniverse, u)
        raise
    with _checked(SetUniverse, u)._collapse_ids(X.preds + (tuple(X.marked_elements()),), range(X.size + 1)) as ids:
        index = dict(zip(ids, range(X.size)))
        if len(index) < X.size:  # the least shared code c: below it no code is shared, so c's elements have equal preds
            c = min(c for x, c in enumerate(ids[:-1]) if index[c] != x)
            raise ExtensionalityError(ids.index(c), index[c])  # inside the walk's block, so it interns nothing
    got = X._collapsed = (u._ref, index, ids[-1], frozenset(compress(ids, X.marks)))
    return got


def mewo_equal(X: Mewo, Y: Mewo, u: SetUniverse) -> bool:
    """Equality as marked orders, read off the codes: X equals Y exactly when
    both carry the same codes (a code-preserving bijection is an isomorphism)
    and present the same set (the same marked codes)."""
    try:
        ref, rx, ry = u._ref, X._collapsed, Y._collapsed
    except AttributeError:  # a wrong kind, which _collapse refuses
        rx = ry = None
    _, index_x, root_x, _ = rx if rx and rx[0] is ref else _collapse(X, u)
    _, index_y, root_y, _ = ry if ry and ry[0] is ref else _collapse(Y, u)
    return root_x == root_y and index_x.keys() == index_y.keys()


def simulation_mewo(X: Mewo, Y: Mewo, u: SetUniverse) -> SimWitness | None:
    """The unique marking-preserving simulation X -> Y, or None.

    An element map is a simulation exactly when it matches initial
    segments pointwise, i.e. preserves Mostowski codes, and sends marked
    elements to marked elements: it exists exactly when T_X <= T_Y and
    M_X <= M_Y, and only then is the map built.
    """
    try:
        ref, rx, ry = u._ref, X._collapsed, Y._collapsed
    except AttributeError:
        rx = ry = None
    _, index_x, _, marked_x = rx if rx and rx[0] is ref else _collapse(X, u)
    _, index_y, _, marked_y = ry if ry and ry[0] is ref else _collapse(Y, u)
    if not (marked_x <= marked_y and index_x.keys() <= index_y.keys()):  # a key view's inclusion is the dearer test
        return None
    return SimWitness(tuple(map(index_y.__getitem__, index_x)))


def bounded_sim_mewo(X: Mewo, Y: Mewo, u: SetUniverse) -> BoundedSimWitness | None:
    """The unique marked bound y with X equal to down_plus(Y, y), plus the
    equivalence as a map from X onto original Y indices.

    Decided on codes: the segment below y presents code(y), so the bound
    exists exactly when X is covered and the set X presents is in M_Y, the
    codes of Y's marked elements. Cover is the flag `is_covered` keeps on
    X, so no call walks X or the universe. The equivalence sends each x to
    the element of Y with the same code.
    """
    try:
        ref, rx, ry = u._ref, X._collapsed, Y._collapsed
        covered = X._covered
    except AttributeError:
        rx = ry = covered = None
    _, index_y, _, marked_y = ry if ry and ry[0] is ref else _collapse(Y, u)
    if not (is_covered(X) if covered is None else covered):
        return None
    _, index_x, root_x, _ = rx if rx and rx[0] is ref else _collapse(X, u)
    if root_x not in marked_y:
        return None
    return BoundedSimWitness(index_y[root_x], tuple(map(index_y.__getitem__, index_x)))


def partial_sim(X: Mewo, Y: Mewo, u: SetUniverse) -> dict[int, int] | None:
    """Map each marked x to the unique marked y with the same initial segment:
    it exists exactly when M_X <= M_Y."""
    _, index_x, _, marked_x = _collapse(X, u)
    _, index_y, _, marked_y = _collapse(Y, u)
    if not marked_x <= marked_y:
        return None
    return {x: index_y[c] for c, x in index_x.items() if c in marked_x}


def principality_check(X: Mewo, Y: Mewo, u: SetUniverse) -> bool:
    """Does a partial simulation into Y determine a full one and vice versa?

    Both sides are unique when they exist, and a simulation restricts to a
    partial one, so the check fails exactly when M_X <= M_Y but not T_X <= T_Y.
    """
    try:
        ref, rx, ry = u._ref, X._collapsed, Y._collapsed
    except AttributeError:
        rx = ry = None
    _, index_x, _, marked_x = rx if rx and rx[0] is ref else _collapse(X, u)
    _, index_y, _, marked_y = ry if ry and ry[0] is ref else _collapse(Y, u)
    return not marked_x <= marked_y or index_x.keys() <= index_y.keys()  # the dearer test last, as in simulation_mewo


def singleton(X: Mewo) -> Mewo:
    """Adjoin one marked top whose predecessors are the marked elements of X.

    For a non-covered X the result can fail extensionality (an uncovered
    element and the new top may share predecessor sets); the failure is
    reported rather than repaired. The result depends on `preds` and marks
    alone: it carries no code record and touches no universe."""
    top = tuple(_checked(Mewo, X).marked_elements())
    if top in X.preds:
        raise ExtensionalityError(X.preds.index(top), X.size)
    return Mewo(X.preds + (top,), (False,) * X.size + (True,))


def _singleton_record(record, u: SetUniverse):
    """The code record of X's singleton from X's, the literal's step; the caller knows that the top's code is new."""
    _, index, c, _ = record  # c: the set X presents, the code of the top
    return u._ref, {**index, c: len(index)}, u._intern_locked((c,)), frozenset((c,))


def union(F: list[Mewo], u: SetUniverse) -> Mewo:
    """Union of a family: one element per distinct initial segment.

    Segments are compared through their codes; the order is code
    membership, and an element is marked when some representative is
    marked in its member. Class representatives are the lexicographically
    least (member index, element index) pairs, and the carrier lists
    classes in that order. Distinct codes have distinct members and code
    membership is wellfounded, so the result needs no validation. Its
    record comes from the members' by the union record step (one intern,
    the set it presents), and `preds` and marks are read off it once.
    """
    return _mewo_of_record(_union_record([_collapse(X, u) for X in _checked(Iterable, F)], _checked(SetUniverse, u)), u)


def _union_record(records: list, u: SetUniverse):
    """The union's code record from its members': each `index` in element order, the M joined."""
    index: dict[int, int] = {}  # code id -> class
    marked: set[int] = set()
    for _, member, _, member_marked in records:
        for c in member:
            if c not in index:
                index[c] = len(index)
        marked |= member_marked
    return u._ref, index, u._intern_locked(tuple(sorted(marked))), frozenset(marked)


def _mewo_of_record(record, u: SetUniverse) -> Mewo:
    """The mewo that `record` codes in u, keeping it: `preds` are the classes of its codes' members."""
    _, index, _, M = record
    X = Mewo(tuple([tuple(sorted(map(index.__getitem__, u._children[c]))) for c in index]), [c in M for c in index])
    X._collapsed = record
    return X


# -- serialization ------------------------------------------------------------


def _pairs(X: Mewo) -> list[tuple[int, int]]:
    """The pairs i < j of X, ordered by i and then by j."""
    return [(p, x) for p, xs in enumerate(_transpose(X.preds)) for x in xs]


def _names(n: int) -> list[str]:
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"v{i}" for i in range(n)]


def mewo_to_text(X: Mewo) -> str:
    names = _names(_checked(Mewo, X).size)
    elems = " ".join(names)
    edges = ", ".join(f"{names[i]}<{names[j]}" for i, j in _pairs(X))
    marks = " ".join(names[i] for i in X.marked_elements())
    return (
        "mewo { "
        + "; ".join((_clause("elems", elems), _clause("lt", edges), _clause("marked", marks)))
        + " }"
    )


def _mewo_of_names(names: list, edges: list, marks: list) -> Mewo:
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise FormatError("duplicate element name")
    n = len(names)
    above: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        if i not in index or j not in index:
            raise FormatError(f"edge {i}<{j} uses an undeclared element")
        above[index[i]].add(index[j])
    marked = [False] * n
    for name in marks:
        if name not in index:
            raise FormatError(f"marked element {name} is not declared")
        marked[index[name]] = True
    return Mewo(_checked_preds([sorted(s) for s in above]), marked)


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
    names = _names(_checked(Mewo, X).size)
    return {
        "elems": names,
        "lt": [[names[i], names[j]] for i, j in _pairs(X)],
        "marked": [names[i] for i in X.marked_elements()],
    }


def mewo_from_json(doc: dict) -> Mewo:
    """Read the JSON mirror of the text form: an object whose `elems` and
    `marked` are lists of names and whose `lt` is a list of name pairs."""
    def are_names(v) -> bool:
        return isinstance(v, list) and all(isinstance(name, str) for name in v)

    if not isinstance(doc, dict):
        raise FormatError("a JSON mewo is an object with keys 'elems', 'lt' and 'marked'")
    for key in ("elems", "marked"):
        if not are_names(doc.get(key)):
            raise FormatError(f"key {key!r} must be a list of element names")
    lt = doc.get("lt")
    if not (isinstance(lt, list) and all(are_names(p) and len(p) == 2 for p in lt)):
        raise FormatError("key 'lt' must be a list of [name, name] pairs")
    return _mewo_of_names(doc["elems"], lt, doc["marked"])


def mewo_to_dot(X: Mewo) -> str:
    names = _names(_checked(Mewo, X).size)
    lines = ["digraph mewo {"]
    for i, label in enumerate(names):
        style = ' style=filled fillcolor=black fontcolor=white' if X.marks[i] else ""
        lines.append(f'  {label} [label="{label}"{style}];')
    for i, j in _pairs(X):
        lines.append(f"  {names[i]} -> {names[j]};")
    lines.append("}")
    return "\n".join(lines)
