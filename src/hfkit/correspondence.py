"""Translations between sets, finite ordinals, and covered mewos.

Ordinal side: `set_of_ordinal` turns an ordinal into the set of the images
of its initial segments (a hereditarily transitive set), `rank_ordinal`
computes the rank of any set by the literal supremum-of-successors
recursion, and `rank_quotient` / `elements_ordinal` give the non-recursive
descriptions of the rank of a hereditarily transitive set.

Mewo side: `set_of_mewo` interns the codes of the marked elements;
`mewo_of_set` presents a set as the mewo of its hereditary members with
the direct members marked. Both round-trip on covered mewos.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAnOrdinalError
from .mewos import Mewo, _membership_matrix, codes, singleton, union, validate_mewo
from .ordinals import FinOrd, chain, down, ord_sum, sup, validate_ord
from .universe import SetHandle, SetUniverse


def set_of_ordinal(alpha: FinOrd, u: SetUniverse) -> SetHandle:
    """The set whose members are the images of all initial segments of alpha.

    This is the recursion phi(alpha) = {phi(down(alpha, a)) | a in alpha},
    memoised per segment. alpha has one segment per position, and the
    segments of the segment at position k are those of alpha at positions
    below k, so the images are made bottom-up in position order. Iterative:
    the length of alpha is not bounded by the interpreter's recursion limit.
    """
    images: list[SetHandle] = []  # images[k]: the image of the segment at position k
    for a in sorted(range(alpha.size), key=alpha.pos.__getitem__):
        images.append(u.mk_set([images[p] for p in down(alpha, a).pos]))
    return u.mk_set(images)


def rank_ordinal(h: SetHandle) -> FinOrd:
    """Rank of any set: the supremum over members of (member rank) + 1.

    The recursion is evaluated bottom-up over the hereditary members, whose
    handle order is a topological order of membership, keeping one
    successor rank per set. Iterative, so the rank is not bounded by the
    interpreter's recursion limit; every step is position arithmetic on
    canonical ordinals, so the cost is one step per membership edge below h.
    """
    u = h.universe
    succ: dict[int, FinOrd] = {}  # set id -> its rank + 1
    for x in u.hereditary_members(h):
        succ[x.id] = ord_sum(sup([succ[m.id] for m in u.elements(x)]), chain(1))
    return sup([succ[m.id] for m in u.elements(h)])


@dataclass(frozen=True)
class QuotientRank:
    """Rank of a hereditarily transitive set, read off a raw presentation.

    Presentation indices are grouped into classes by the set they denote;
    classes are ordered by membership of their denotations. For valid
    input the class order is a finite ordinal equal (up to the canonical
    relabeling) to the recursive rank.
    """

    classes: tuple[tuple[int, ...], ...]
    ordinal: FinOrd


def rank_quotient(h: SetHandle, presentation: list[SetHandle]) -> QuotientRank:
    u = h.universe
    if u.mk_set(presentation) != h:
        raise NotAnOrdinalError("presentation does not denote the given set")
    if not u.is_st_ordinal(h):
        raise NotAnOrdinalError("set is not hereditarily transitive")
    groups: dict[int, list[int]] = {}
    order_of_class: list[SetHandle] = []
    for idx, member in enumerate(presentation):
        if member.id not in groups:
            groups[member.id] = []
            order_of_class.append(member)
        groups[member.id].append(idx)
    classes = tuple(tuple(groups[m.id]) for m in order_of_class)
    lt = _membership_matrix(u, order_of_class)
    return QuotientRank(classes=classes, ordinal=validate_ord(len(classes), lt))


def elements_ordinal(h: SetHandle) -> FinOrd:
    """The members of a hereditarily transitive set, ordered by membership."""
    u = h.universe
    if not u.is_st_ordinal(h):
        raise NotAnOrdinalError("set is not hereditarily transitive")
    members = u.elements(h)
    return validate_ord(len(members), _membership_matrix(u, members))


def set_of_mewo(X: Mewo, u: SetUniverse) -> SetHandle:
    """The set whose members are the codes of the marked elements."""
    cs = codes(X, u)
    return u.mk_set([cs[x] for x in X.marked_elements()])


def mewo_of_set(h: SetHandle) -> Mewo:
    """Present a set as a covered mewo, directly.

    Carrier: the hereditary members, in handle order. Order: membership.
    Marking: the direct members. This is the fast path; it must agree with
    mewo_of_set_literal, the recursion through singletons and unions.
    """
    u = h.universe
    members = u.hereditary_members(h)
    direct = {m.id for m in u.elements(h)}
    marked = [m.id in direct for m in members]
    return validate_mewo(len(members), _membership_matrix(u, members), marked)


def mewo_of_set_literal(h: SetHandle, scratch: SetUniverse | None = None) -> Mewo:
    """Present a set as a covered mewo by the defining recursion:
    the union over members of the singleton of the member's presentation."""
    u = h.universe
    scratch = scratch if scratch is not None else SetUniverse()
    memo: dict[int, Mewo] = {}

    def go(x: SetHandle) -> Mewo:
        got = memo.get(x.id)
        if got is None:
            got = union([singleton(go(m)) for m in u.elements(x)], scratch)
            memo[x.id] = got
        return got

    return go(h)
