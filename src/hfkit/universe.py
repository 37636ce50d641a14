"""Hash-consed universe of hereditarily finite sets.

Sets are interned into an append-only arena: each distinct set is stored
once as the sorted tuple of its children's node ids, so handle equality is
set equality. Every child id is strictly smaller than its parent's id,
which makes the membership digraph acyclic by construction. A query
takes a handle only from its own universe and with the id of a set in it.

Only fast paths live here, with one cycle finder: the depth-first walk
`_postorder`, which the collapse and the order validators share. The
brute-force reference for the collapse, bisimulation of pointed graphs
(`bisimilar`, `mem_raw`), is in hfkit.oracle.
"""

from __future__ import annotations

import os
import threading
import weakref
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .errors import CyclicError, ForeignHandleError, FormatError, HfkitError, LimitExceededError, ValidationError, _checked

DEFAULT_NODE_LIMIT = 1 << 20
DEFAULT_NUMERAL_LIMIT = 1024


@dataclass(frozen=True, slots=True)
class SetHandle:
    """Canonical reference to one set in a universe.

    Two handles from the same universe denote the same set iff they are
    equal. Handles have no order of their own; their ids, in creation
    order, give the key order used for children lists.
    """

    universe: "SetUniverse"
    id: int

    def elements(self) -> list["SetHandle"]:
        return self.universe.elements(self)

    def __contains__(self, other: "SetHandle") -> bool:
        return self.universe.mem(other, self)

    def __repr__(self) -> str:
        return f"SetHandle({self.id})"


@dataclass(frozen=True)
class PointedGraph:
    """Raw, possibly redundant presentation of a set.

    Vertices are the plain integers 0..n-1, `successors[v]` lists the
    direct members of v (duplicates allowed), and `root` is the presented
    set; anything else is a FormatError. Nothing about acyclicity is
    promised; collapse and bisimulation check it themselves.
    """

    n: int
    successors: tuple[tuple[int, ...], ...]
    root: int

    def __post_init__(self):
        n = self.n
        if n == 0:
            raise FormatError("a pointed graph needs at least its root vertex")
        if type(n) is not int or len(self.successors) != n:
            raise FormatError(f"vertex count {n!r} does not match the {len(self.successors)} successor lists")
        if type(self.root) is not int or not 0 <= self.root < n:
            raise FormatError(f"root {self.root!r} is not a vertex")
        for v, succs in enumerate(self.successors):
            for w in succs:
                if type(w) is not int or not 0 <= w < n:
                    raise FormatError(f"successor {w!r} of vertex {v} is not a vertex")

    @classmethod
    def make(cls, successors: Sequence[Sequence[int]], root: int = 0) -> "PointedGraph":
        try:
            succ = tuple(map(tuple, successors))
        except TypeError:
            raise FormatError("the successors of a pointed graph are a list of vertex lists") from None
        return cls(len(succ), succ, root)

    def reroot(self, v: int) -> "PointedGraph":
        return PointedGraph(self.n, self.successors, v)


def _below(adj: Sequence[Sequence[int]], tops: Iterable[int], known=()) -> set[int]:
    """The vertices one or more steps from `tops` along the lists `adj`,
    not walking into or past vertices in `known`."""
    seen: set[int] = set()
    stack = list(tops)
    while stack:
        for c in adj[stack.pop()]:
            if c not in seen and c not in known:
                seen.add(c)
                stack.append(c)
    return seen


def _postorder(succ: Sequence[Sequence[int]], starts: Iterable[int]) -> Iterator[int]:
    """The vertices reached from each of `starts` in turn along the lists
    `succ`, each yielded after every vertex it reaches: a depth-first walk
    taking successors in list order. A back edge raises CyclicError with
    the walk's path from the vertex it reaches back to."""
    state = [0] * len(succ)  # 0 fresh, 1 on the walk's path, 2 yielded
    stack = [(-1, iter(starts))]  # a virtual vertex -1 whose successors are the starts
    while stack:
        v, todo = stack[-1]
        for w in todo:
            s = state[w]
            if s == 0:
                state[w] = 1
                stack.append((w, iter(succ[w])))
                break
            if s == 1:
                path = [x for x, _ in stack]
                raise CyclicError(path[path.index(w):])
        else:
            stack.pop()
            if v >= 0:
                state[v] = 2
                yield v


class _Interning:
    """`with _Interning(u) as intern:` holds `u._lock` for a block that
    interns through the step `intern`; if the block raises, every set it
    interned is forgotten, and so are the numerals it cached (their ids
    ascend). A block that interns nothing costs one lock step."""

    __slots__ = ("u", "mark")

    def __init__(self, u: SetUniverse):
        self.u = u

    def __enter__(self):
        self.u._lock.acquire()
        self.mark = len(self.u._children)
        return self.u._intern_ids

    def __exit__(self, kind, exc, tb) -> None:
        u, mark = self.u, self.mark
        try:
            if kind is not None:
                for key in u._children[mark:]:
                    del u._intern[key]
                del u._children[mark:]
                del u._numerals[bisect_left(u._numerals, mark):]
        finally:
            u._lock.release()


class SetUniverse:
    """Append-only interning arena; the cumulative hierarchy at desk scale.

    Interning is idempotent and the only mutation; it is serialized by an
    internal lock, so handles can be shared freely across threads. A
    collapse (`from_graph`) or a slice import takes that lock once for the
    whole call, so a concurrent `mk_set` waits until it has finished.
    """

    def __init__(self, node_limit: int | None = None):
        if node_limit is None:
            raw = os.environ.get("HFKIT_NODE_LIMIT", str(DEFAULT_NODE_LIMIT))
            if not raw.strip().isdecimal():
                raise HfkitError(f"HFKIT_NODE_LIMIT={raw!r} is not a non-negative integer")
            node_limit = int(raw)
        self.node_limit = _checked(int, node_limit)
        if node_limit < 0:
            raise ValidationError(f"node limit {node_limit} is negative")
        self._children: list[tuple[int, ...]] = []
        self._intern: dict[tuple[int, ...], int] = {}
        self._lock = threading.Lock()
        self._rank: dict[int, int] = {}
        self._numerals: list[int] = []
        self._ref = weakref.ref(self)  # the one weak reference mewo code records name this universe by

    def __len__(self) -> int:
        return len(self._children)

    def __repr__(self) -> str:
        return f"<SetUniverse with {len(self)} sets>"

    # -- interning ---------------------------------------------------------

    def _own(self, h: SetHandle) -> int:
        """The id of h, which must be a handle of this universe naming one of its sets."""
        if not (isinstance(h, SetHandle) and h.universe is self
                and type(h.id) is int and 0 <= h.id < len(self._children)):
            raise ForeignHandleError(f"{h!r} does not belong to this universe")
        return h.id

    def mk_set(self, children: Iterable[SetHandle]) -> SetHandle:
        """Intern the set whose members are `children` (order and duplicates ignored)."""
        try:
            ids = {self._own(ch) for ch in children}
        except TypeError:
            _checked(Iterable, children)
            raise
        return SetHandle(self, self._intern_locked(tuple(sorted(ids))))

    def _intern_locked(self, key: tuple[int, ...]) -> int:
        """`_intern_ids` as one step under `_lock`, for a caller that holds no lock."""
        with self._lock:
            return self._intern_ids(key)

    def _intern_ids(self, key: tuple[int, ...]) -> int:
        """Id of the set whose sorted child ids are `key`; the caller holds `_lock`."""
        idx = self._intern.get(key)
        if idx is None:
            if len(self._children) >= self.node_limit:
                raise LimitExceededError(f"universe node limit {self.node_limit} reached")
            idx = len(self._children)
            self._children.append(key)
            self._intern[key] = idx
        return idx

    def empty(self) -> SetHandle:
        return self.mk_set(())

    # -- membership-level queries ------------------------------------------

    def elements(self, h: SetHandle) -> list[SetHandle]:
        """Members of h, duplicate-free and sorted by handle key order."""
        return [SetHandle(self, c) for c in self._children[self._own(h)]]

    def mem(self, x: SetHandle, y: SetHandle) -> bool:
        xi = self._own(x)
        row = self._children[self._own(y)]
        pos = bisect_left(row, xi)
        return pos < len(row) and row[pos] == xi

    def subset(self, x: SetHandle, y: SetHandle) -> bool:
        return set(self._children[self._own(x)]) <= set(self._children[self._own(y)])

    def is_transitive_set(self, h: SetHandle) -> bool:
        """Every member of a member of h is a member of h."""
        children = self._children
        cs = children[self._own(h)]
        members = set(cs)
        return all(members.issuperset(children[c]) for c in cs)

    def is_st_ordinal(self, h: SetHandle) -> bool:
        """h is transitive and so is every member of h: a von Neumann numeral.

        A finite ordinal is empty or m ∪ {m}, where m is its largest member.
        Members have smaller ids, so m is the last child id, and h is an
        ordinal exactly when its children are m's children followed by m and
        m is an ordinal. The check walks down that chain of largest members,
        one comparison per step (linear in the membership edges below h), and
        stops at the first failing step or at the empty set.
        """
        children = self._children
        cs = children[self._own(h)]
        while cs and children[cs[-1]] == cs[:-1]:
            cs = children[cs[-1]]
        return not cs

    def von_neumann(self, n: int) -> SetHandle:
        """The n-th von Neumann numeral, built by n+1 := n and its members.
        A call that raises interns nothing."""
        if type(n) is not int:
            raise FormatError(f"numeral {n!r} is not an integer")
        if n < 0:
            raise FormatError(f"numeral {n} is negative; numerals are non-negative")
        if n > DEFAULT_NUMERAL_LIMIT:
            raise LimitExceededError(f"numeral {n} exceeds the numeral bound {DEFAULT_NUMERAL_LIMIT}")
        with _Interning(self) as intern:
            numerals = self._numerals
            if not numerals:
                numerals.append(intern(()))
            while len(numerals) <= n:
                prev = numerals[-1]
                # already sorted: prev's id is larger than the ids of its members
                numerals.append(intern(self._children[prev] + (prev,)))
            return SetHandle(self, numerals[n])

    def rank_nat(self, h: SetHandle) -> int:
        """0 for the empty set, else one more than the largest member rank."""
        i = self._own(h)
        cache = self._rank
        if i not in cache:
            children = self._children
            # ascending ids are a topological order: members come first
            for j in self._below_ids(i, cache) + [i]:
                cs = children[j]
                cache[j] = 1 + max([cache[c] for c in cs]) if cs else 0
        return cache[i]

    def hereditary_members(self, h: SetHandle) -> list[SetHandle]:
        """All sets strictly below h in the membership order, sorted by key."""
        return [SetHandle(self, i) for i in self._below_ids(self._own(h))]

    def _below_ids(self, i: int, known=()) -> list[int]:
        """Sorted ids strictly below id i, not walking into or past ids in `known`."""
        return sorted(_below(self._children, [i], known))

    def check_acyclic(self) -> bool:
        """Re-verify that ids form a topological order of the membership digraph."""
        return all(
            all(c < i for c in cs) for i, cs in enumerate(self._children)
        )

    # -- collapse of raw presentations --------------------------------------

    def from_graph(self, g: PointedGraph) -> SetHandle:
        """Collapse the part of g reachable from its root into a canonical set.

        Children are interned bottom-up along a post-order of a
        deterministic depth-first walk, so identical call sequences yield
        identical handles. Rejects any cycle reachable from the root. The
        whole collapse runs under the universe lock, taken once per call.
        """
        return SetHandle(self, self._collapse_ids(_checked(PointedGraph, g).successors, [g.root])[g.root])

    def _collapse_ids(self, succ: Sequence[Sequence[int]], starts: Iterable[int]) -> list[int]:
        """The walk of `from_graph` on the presentation `succ`, from each of
        `starts` in turn: the set id of every vertex reached, -1 elsewhere.
        A walk that raises interns nothing."""
        result = [-1] * len(succ)
        with _Interning(self) as intern:
            for v in _postorder(succ, starts):
                result[v] = intern(tuple(sorted({result[w] for w in succ[v]})))
        return result


def _universe_of(h: SetHandle) -> SetUniverse:
    """The universe of the handle h; ForeignHandleError for anything else."""
    if not (isinstance(h, SetHandle) and isinstance(h.universe, SetUniverse)):
        raise ForeignHandleError(f"{h!r} is not a handle of a set universe")
    return h.universe


# -- JSON slices --------------------------------------------------------------


def export_slice(h: SetHandle) -> dict:
    """Portable form of the sets reachable from h.

    Nodes are topologically sorted (children strictly earlier) and each
    node is the sorted array of its children's positions.
    """
    u = _universe_of(h)
    root = u._own(h)
    ids = u._below_ids(root) + [root]
    index = {i: pos for pos, i in enumerate(ids)}
    nodes = [[index[c] for c in u._children[i]] for i in ids]
    return {"nodes": nodes, "root": len(ids) - 1}


def import_slice(doc: dict, u: SetUniverse) -> SetHandle:
    """Intern the set a slice presents, under the universe lock taken once.
    A rejected slice interns nothing."""
    if not (isinstance(doc, dict) and isinstance(doc.get("nodes"), (list, tuple)) and "root" in doc):
        raise FormatError("a slice is an object with a list of nodes and a root")
    nodes, root = doc["nodes"], doc["root"]
    if type(root) is not int or not 0 <= root < len(nodes):
        raise FormatError(f"root {root!r} is not a node position")
    ids: list[int] = []
    with _Interning(_checked(SetUniverse, u)) as intern:
        for pos, child_positions in enumerate(nodes):
            if not isinstance(child_positions, (list, tuple)):
                raise FormatError(f"node {pos} is not a list of child positions")
            kids = set()
            for c in child_positions:
                if type(c) is not int:
                    raise FormatError(f"node {pos} has a child position {c!r} that is not an integer")
                if not 0 <= c < pos:
                    raise FormatError(f"node {pos} references a non-earlier node")
                kids.add(ids[c])
            ids.append(intern(tuple(sorted(kids))))
    return SetHandle(u, ids[root])
