"""Finite ordinals as linear positions.

A FinOrd is a carrier 0..n-1 in which element x sits at the linear position
pos[x]; x < y exactly when pos[x] < pos[y]. hfkit installs nothing else:
the read-only numpy matrix `lt` (lt[i, j] means i < j) is built on each read
and needs numpy installed, and validate_ord still accepts a numpy array
beside nested lists and tuples. validate_ord (from a matrix) and the readers
(from pairs) are the only ways in from outside data: they check
wellfoundedness, extensionality and transitivity with a witness, and check
the linearity they force on a finite carrier, raising a ValidationError,
never an assert. Wellfoundedness
is checked, for mewos too, by the listed walk of the collapse,
universe._postorder, so a cycle reads as from_graph reports it. Everything
built from validated ordinals is linear by construction, so it is position
arithmetic, never validated again; so is the ordinal hfkit.correspondence
reads off the member ids of a set that passed SetUniverse.is_st_ordinal.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .errors import (
    CyclicError,
    ExtensionalityError,
    FormatError,
    TransitivityError,
    ValidationError,
    WellfoundednessError,
    _checked,
)
from .universe import _postorder


class FinOrd:
    """A validated finite ordinal. Construct via validate_ord, chain, or the
    operations below; the constructor trusts `pos` to be a permutation of
    0..len(pos)-1."""

    __slots__ = ("size", "pos")

    def __init__(self, pos: Iterable[int]):
        self.pos = tuple(pos)
        self.size = len(self.pos)

    @property
    def lt(self):
        """The strict order as a read-only numpy matrix, built on every read; lt[i, j] means i < j.
        Reading it needs numpy installed, which hfkit does not install."""
        import numpy as np

        lt = np.less.outer(self.pos, self.pos)
        lt.setflags(write=False)
        return lt

    def in_order(self) -> list[int]:
        """The elements in order: the element at each position."""
        return sorted(range(self.size), key=self.pos.__getitem__)

    def __eq__(self, other):
        return isinstance(other, FinOrd) and self.pos == other.pos

    def __hash__(self):
        return hash(self.pos)

    def __repr__(self):
        return f"FinOrd(pos={self.pos})"


class SimWitness(NamedTuple):
    """The (unique) simulation of ordinals or of mewos as an element map."""

    mapping: tuple[int, ...]


class BoundedSimWitness(NamedTuple):
    """Isomorphism of the domain onto the initial segment below `bound`, of ordinals or of mewos."""

    bound: int
    iso: tuple[int, ...]


def _transpose(adj) -> list[list[int]]:
    """Invert ascending adjacency lists: out[x] lists, ascending, the p with x in adj[p]."""
    out: list[list[int]] = [[] for _ in adj]
    for p, xs in enumerate(adj):
        for x in xs:
            out[x].append(p)
    return out


def _checked_preds(succ: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The ascending predecessor tuples of a relation given by its ascending
    successor lists. Raises the first cycle that the collapse's walk
    (universe._postorder) from each element in turn meets, else the first
    pair with equal predecessors."""
    try:
        _postorder(succ, range(len(succ)))
    except CyclicError as exc:
        raise WellfoundednessError(exc.cycle) from None
    preds = tuple(map(tuple, _transpose(succ)))
    seen: dict[tuple[int, ...], int] = {}
    for x, key in enumerate(preds):
        if key in seen:
            raise ExtensionalityError(seen[key], x)
        seen[key] = x
    return preds


def _entries(v, size: int, what: str) -> list | tuple:
    """v, a list, tuple or numpy array, as a list or tuple of `size` entries."""
    v = v.tolist() if hasattr(v, "tolist") else v
    if type(size) is not int or not isinstance(v, (list, tuple)) or len(v) != size:
        raise ValidationError(f"{what} is not a list of {size!r} entries")
    return v


def _successors(size: int, lt) -> list[list[int]]:
    """The ascending successor lists of a size x size 0/1 matrix, read row by row."""
    rows = _entries(lt, size, "the matrix")
    return [[j for j, v in enumerate(_entries(row, size, f"row {i}")) if v] for i, row in enumerate(rows)]


def validate_ord(size: int, lt) -> FinOrd:
    """Validate a strict-order matrix (nested lists, tuples or a numpy array)
    as a finite ordinal.

    Raises the first failing axiom with a witness: a cycle, a pair with
    equal predecessor sets, or a transitivity triple. The position of an
    element is then its number of predecessors.
    """
    return _checked_ord(_successors(size, lt))


def _checked_ord(succ) -> FinOrd:
    """The ordinal of the relation with the ascending successor lists `succ`.
    A transitivity gap is reported at its least x, then least z, then the
    least y with x < y < z."""
    preds = _checked_preds(succ)
    bits = [sum(1 << j for j in s) for s in succ]
    for x, s in enumerate(succ):
        reach = 0
        for y in s:
            reach |= bits[y]
        gap = reach & ~bits[x]
        if gap:
            z = (gap & -gap).bit_length() - 1
            raise TransitivityError(x, next(y for y in s if bits[y] >> z & 1), z)
    # finite + wellfounded + extensional + transitive forces linearity;
    # a failure here is a validator bug, not bad input (an `if`, which -O keeps)
    if any(len(s) + len(p) != len(succ) - 1 for s, p in zip(succ, preds)):
        raise ValidationError("validated order is not linear")
    return FinOrd(map(len, preds))


def chain(n: int) -> FinOrd:
    """The canonical n-element ordinal 0 < 1 < ... < n-1."""
    if type(n) is not int or n < 0:
        raise ValidationError(f"chain length {n!r} is not a non-negative integer")
    return FinOrd(range(n))


def order_type(alpha: FinOrd) -> int:
    """Linearization length; validation guarantees the order is linear."""
    return _checked(FinOrd, alpha).size


def same_order_type(alpha: FinOrd, beta: FinOrd) -> bool:
    """Equality up to the canonical relabeling (unique for linear orders)."""
    return order_type(alpha) == order_type(beta)


def down(alpha: FinOrd, a: int) -> FinOrd:
    """Initial segment below a, carried by the original indices in order.

    Every predecessor of an element below a is below a as well, so each
    element keeps its position in the segment.
    """
    return FinOrd(alpha.pos[x] for x in down_carrier(alpha, a))


def down_carrier(alpha: FinOrd, a: int) -> list[int]:
    """Original indices carried by down(alpha, a), in carrier order."""
    pos = _checked(FinOrd, alpha).pos
    if type(a) is not int or not 0 <= a < len(pos):
        raise IndexError(f"element {a!r} out of range for size {len(pos)}")
    return [x for x, p in enumerate(pos) if p < pos[a]]


def simulation(alpha: FinOrd, beta: FinOrd) -> SimWitness | None:
    """The unique simulation alpha -> beta, or None.

    Linear orders embed as initial segments by matching positions, so x
    goes to the element of beta at x's position; the map exists exactly
    when alpha is no longer than beta. The reference is
    hfkit.oracle.enum_simulations, which tries every map.
    """
    if _checked(FinOrd, alpha).size > _checked(FinOrd, beta).size:
        return None
    order = beta.in_order()
    return SimWitness(tuple(order[p] for p in alpha.pos))


def bounded_sim(alpha: FinOrd, beta: FinOrd) -> BoundedSimWitness | None:
    """Witness that alpha is the initial segment of beta below some bound:
    the element of beta at position alpha.size, when beta is longer."""
    if _checked(FinOrd, alpha).size >= _checked(FinOrd, beta).size:
        return None
    return BoundedSimWitness(bound=beta.pos.index(alpha.size), iso=simulation(alpha, beta).mapping)


def ord_sum(alpha: FinOrd, beta: FinOrd) -> FinOrd:
    """Order the disjoint union with every alpha element below every beta element."""
    return FinOrd((*_checked(FinOrd, alpha).pos, *(alpha.size + p for p in _checked(FinOrd, beta).pos)))


def sup_classes(family: list[FinOrd]) -> list[list[tuple[int, int]]]:
    """Quotient classes of the pointed family by initial-segment isomorphism.

    Pairs (i, x) and (j, y) are identified when down(F_i, x) and
    down(F_j, y) are isomorphic, which for validated inputs is an equal
    position. Each class is sorted with its lexicographically least
    representative first; classes are returned in order-type order.
    """
    classes: dict[int, list[tuple[int, int]]] = {}
    for i, f in enumerate(_checked(Iterable, family)):
        for x, p in enumerate(_checked(FinOrd, f).pos):
            classes.setdefault(p, []).append((i, x))
    return [sorted(classes[k]) for k in sorted(classes)]


def sup(family: list[FinOrd]) -> FinOrd:
    """Least upper bound: the quotient of all initial segments by isomorphism.

    Segments are isomorphic exactly when their bounds share a position, so
    the classes are the positions below the longest member, ordered as
    positions (the class order of sup_classes).
    """
    return chain(max((_checked(FinOrd, f).size for f in _checked(Iterable, family)), default=0))


# -- serialization ------------------------------------------------------------


def _pairs(alpha: FinOrd) -> Iterator[tuple[int, int]]:
    """The pairs i < j of alpha, ordered by i and then by j, read off the positions."""
    order = alpha.in_order()
    return ((i, j) for i, p in enumerate(alpha.pos) for j in sorted(order[p + 1 :]))


def ord_to_json(alpha: FinOrd) -> dict:
    return {"size": _checked(FinOrd, alpha).size, "pairs": [[i, j] for i, j in _pairs(alpha)]}


def ord_from_json(doc: dict) -> FinOrd:
    """Read `{"size": n, "pairs": [[i, j], ...]}`. A pair out of range is a
    ValidationError; any other malformed document is a FormatError."""
    if not (isinstance(doc, dict) and isinstance(doc.get("pairs"), (list, tuple))):
        raise FormatError("a JSON ordinal is an object with a size and a list of pairs")
    size = doc.get("size")
    if type(size) is not int or size < 0:
        raise FormatError(f"size {size!r} is not a non-negative integer")
    above: dict[int, set[int]] = {}
    for pair in doc["pairs"]:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(v) is int for v in pair)):
            raise FormatError(f"pair {pair!r} is not two integer indices")
        i, j = pair
        if not (0 <= i < size and 0 <= j < size):
            raise ValidationError(f"pair [{i}, {j}] is out of range for size {size}")
        above.setdefault(i, set()).add(j)
    return _checked_ord([sorted(above[i]) if i in above else () for i in range(size)])


def _clause(key: str, body: str) -> str:
    return f"{key}: {body}" if body else f"{key}:"


def ord_to_text(alpha: FinOrd) -> str:
    pairs = ", ".join(f"{i}<{j}" for i, j in _pairs(_checked(FinOrd, alpha)))
    return f"ord {{ size: {alpha.size}; {_clause('lt', pairs)} }}"


def _read_clauses(text: str, kind: str, usage: str, keys: tuple[str, ...]):
    """Yield the (key, value) clauses of `kind { key: value; ... }` in order.

    A key may repeat; a key outside `keys` raises when its clause is reached.
    """
    head, brace, body = _checked(str, text).strip().partition("{")
    if not (head.strip() == kind and brace and body.endswith("}")):
        raise FormatError(f"expected {usage!r}")
    for clause in body[:-1].split(";"):
        clause = clause.strip()
        if clause:
            key, _, val = clause.partition(":")
            key = key.strip()
            if key not in keys:
                raise FormatError(f"unknown clause {key!r}")
            yield key, val


def _lt_items(val: str, read) -> list[tuple]:
    """The items `a<b` of a comma-separated list, each side passed through `read`."""
    items = []
    for item in val.split(","):
        item = item.strip()
        if item:
            a, _, b = item.partition("<")
            items.append((read(a), read(b)))
    return items


def _index(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{text.strip()!r} is not an integer") from None


def ord_from_text(text: str) -> FinOrd:
    size = None
    pairs: list[tuple[int, int]] = []
    for key, val in _read_clauses(text, "ord", "ord { size: n; lt: i<j, ... }", ("size", "lt")):
        if key == "size":
            size = _index(val)
        else:
            pairs += _lt_items(val, _index)
    if size is None:
        raise FormatError("missing size clause")
    return ord_from_json({"size": size, "pairs": pairs})
