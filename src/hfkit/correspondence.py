"""Translations between sets, finite ordinals, and covered mewos.

Ordinal side: `set_of_ordinal` (phi) turns an ordinal into the set of the
images of its initial segments, the von Neumann numeral of its size, and
`rank_ordinal` (psi) computes the rank of any set, the chain of its
length: both run on lengths. `rank_quotient` / `elements_ordinal` give
the non-recursive descriptions of the rank of a hereditarily transitive
set. Such a set is recognized by `SetUniverse.is_st_ordinal`, its chain
of largest members; its members are then linearly ordered by membership,
which follows id order, so their positions are read off the ids: no
membership matrix and no validation.

Mewo side: `set_of_mewo` is the root of X's code record, the set of the
marked elements' codes; an ordinal is the mewo with every element marked,
so `set_of_mewo` of `from_ordinal(alpha)` is phi(alpha).
`mewo_of_set` presents a set as the mewo of its hereditary members with
the direct members marked, read off the set's slice (`export_slice`).
Both round-trip on covered mewos. `mewo_of_set_literal` builds the same
mewo by the law that a set is the union of the singletons of its members,
walking flat code records through the record steps of `singleton` and `union`
to build one mewo, at the root; checked against `mewo_of_set`, never a route.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .errors import NotAnOrdinalError, _checked
from .mewos import Mewo, _collapse, _mewo_of_record, _singleton_record, _union_record
from .ordinals import FinOrd, chain
from .universe import SetHandle, SetUniverse, _universe_of, export_slice


def set_of_ordinal(alpha: FinOrd, u: SetUniverse) -> SetHandle:
    """The set whose members are the images of all initial segments of alpha.

    This is the recursion phi(alpha) = {phi(down(alpha, a)) | a in alpha}.
    By induction on |alpha|, each down(alpha, a) is the chain of a's
    position k, whose image is numeral k, so phi(alpha) is the set of the
    numerals below |alpha|: numeral |alpha|. So phi runs on lengths, as
    psi does, and `SetUniverse.von_neumann` holds it to the numeral bound.
    """
    return _checked(SetUniverse, u).von_neumann(_checked(FinOrd, alpha).size)


def rank_ordinal(h: SetHandle) -> FinOrd:
    """Rank of any set: the supremum over members of (member rank) + 1.

    Every rank in this recursion is a canonical chain: the supremum of
    chains is the longest one and the successor of chain(k) is chain(k + 1).
    So the recursion runs on lengths, as `SetUniverse.rank_nat` (iterative,
    one step per membership edge below h), and only the result is built as
    an ordinal: no chain per hereditary member is held.
    """
    return chain(_universe_of(h).rank_nat(h))


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
    """The classes of the presentation, and their order.

    The members of a hereditarily transitive set are linearly ordered by
    membership, and membership implies a smaller id, so the position of
    each class is the rank of its id among the members. Neither check
    interns anything, so a refused presentation leaves the universe as it was.
    """
    u = _universe_of(h)
    groups: dict[int, list[int]] = {}  # set id -> indices, in order of first appearance
    for idx, member in enumerate(_checked(Iterable, presentation)):
        groups.setdefault(u._own(member), []).append(idx)
    members = u._children[u._own(h)]
    if tuple(sorted(groups)) != members:
        raise NotAnOrdinalError("presentation does not denote the given set")
    if not u.is_st_ordinal(h):
        raise NotAnOrdinalError("set is not hereditarily transitive")
    pos = {i: k for k, i in enumerate(members)}
    return QuotientRank(classes=tuple(map(tuple, groups.values())), ordinal=FinOrd(pos[i] for i in groups))


def elements_ordinal(h: SetHandle) -> FinOrd:
    """The members of a hereditarily transitive set, ordered by membership:
    the quotient of the presentation that lists each member once."""
    return rank_quotient(h, _universe_of(h).elements(h)).ordinal


def set_of_mewo(X: Mewo, u: SetUniverse) -> SetHandle:
    """The set whose members are the codes of the marked elements: the root
    of the collapse of X's presentation."""
    return SetHandle(u, _collapse(X, u)[2])


def mewo_of_set(h: SetHandle) -> Mewo:
    """Present a set as a covered mewo, directly.

    Carrier: the hereditary members, in handle order. Order: membership.
    Marking: the direct members. This is the fast path; it must agree with
    mewo_of_set_literal, the recursion through singletons and unions.
    The slice of h lists exactly these members, each as the ascending
    positions of its own members, and then h. Handle order is a
    topological order of membership and distinct sets have distinct
    members, so the result needs no validation.
    """
    *nodes, top = export_slice(h)["nodes"]
    direct = set(top)
    return Mewo(tuple(map(tuple, nodes)), [k in direct for k in range(len(nodes))])


def mewo_of_set_literal(h: SetHandle) -> Mewo:
    """Present a set as a covered mewo by the defining recursion:
    the union over members of the singleton of the member's presentation.
    Evaluated bottom-up over the hereditary members in handle order, one
    singleton per set, so the depth of h is not bounded by the recursion limit.
    It walks code records in `scratch` through the record steps of `union` and
    `singleton` and builds one mewo, at the root: a law checked against `mewo_of_set`, never a route.
    """
    *nodes, top = export_slice(h)["nodes"]
    scratch = SetUniverse()
    records: list[tuple] = []  # at each slice position, the record of the singleton of its presentation
    for kids in nodes:  # no set is among its hereditary members: each singleton step's top code is new
        records.append(_singleton_record(_union_record([records[c] for c in kids], scratch), scratch))
    return _mewo_of_record(_union_record([records[c] for c in top], scratch), scratch)
