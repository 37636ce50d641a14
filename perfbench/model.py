"""The benchmark's own model of hereditarily finite sets.

Every check compares hfkit's output with a result computed here, apart from
hfkit. Sets are hash-consed in a `SetTable`: a set is the frozenset of its
members' ids, and the table gives each distinct frozenset one id, so equal
sets get equal ids and no comparison ever walks a deep structure.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """An hfkit output disagreed with the benchmark's own computation."""


class _Failed:
    def __repr__(self) -> str:
        return "FAILED"


FAILED = _Failed()  # what an operation that raised returns in place of its result


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def is_strict_linear(lt: list[list[bool]]) -> bool:
    """lt is a strict linear order on range(len(lt)).

    An irreflexive relation that relates every pair one way is transitive
    exactly when the numbers of elements above each element are 0..n-1.
    """
    n = len(lt)
    return (all(not lt[i][i] for i in range(n))
            and all(lt[i][j] != lt[j][i] for i in range(n) for j in range(i + 1, n))
            and sorted(map(sum, lt)) == list(range(n)))


class SetTable:
    def __init__(self):
        self.ids: dict[frozenset, int] = {}
        self.members: list[frozenset] = []

    def add(self, member_ids) -> int:
        key = frozenset(member_ids)
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.members)
            self.members.append(key)
        return got

    def find(self, member_ids) -> int | None:
        return self.ids.get(frozenset(member_ids))

    def von_neumann(self, n: int) -> list[int]:
        """Ids of the numerals 0..n, built as k+1 = k ∪ {k}."""
        out = [self.add(())]
        for _ in range(n):
            k = out[-1]
            out.append(self.add(self.members[k] | {k}))
        return out

    def rank(self, s: int) -> int:
        """Length of the longest membership chain below s."""
        memo: dict[int, int] = {}
        stack = [s]
        while stack:
            x = stack[-1]
            pending = [m for m in self.members[x] if m not in memo]
            if pending:
                stack.extend(pending)
            else:
                memo[x] = 1 + max((memo[m] for m in self.members[x]), default=-1)
                stack.pop()
        return memo[s]

    def hereditary(self, s: int) -> set[int]:
        seen: set[int] = set()
        stack = list(self.members[s])
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(self.members[x])
        return seen

    def is_transitive(self, s: int) -> bool:
        return all(self.members[m] <= self.members[s] for m in self.members[s])

    def is_ordinal(self, s: int) -> bool:
        """Transitive with transitive members: a von Neumann ordinal."""
        return self.is_transitive(s) and all(self.is_transitive(m) for m in self.members[s])

    def canon(self, s: int, memo: dict[int, str] | None = None) -> str:
        """Brace notation, members sorted by (length, text)."""
        memo = {} if memo is None else memo
        got = memo.get(s)
        if got is None:
            parts = sorted((self.canon(m, memo) for m in self.members[s]), key=lambda t: (len(t), t))
            got = memo[s] = "{" + ",".join(parts) + "}"
        return got

    def to_doc(self, s: int) -> dict:
        """A slice document of s: nodes topologically sorted, as hfkit reads them."""
        order = sorted(self.hereditary(s) | {s})
        pos = {x: i for i, x in enumerate(order)}
        return {"nodes": [sorted(pos[m] for m in self.members[x]) for x in order],
                "root": pos[s]}

    def read_doc(self, doc: dict) -> int | None:
        """Id of the set a slice document denotes, or None if the table lacks it."""
        nodes = doc["nodes"]
        root = doc["root"]
        expect(isinstance(root, int) and 0 <= root < len(nodes), f"slice root {root!r} out of range")
        got: list[int | None] = []
        for pos, children in enumerate(nodes):
            expect(all(isinstance(c, int) and 0 <= c < pos for c in children),
                   f"slice node {pos} references a non-earlier node")
            ids = [got[c] for c in children]
            got.append(None if None in ids else self.find(ids))
        return got[root]

    def read_mewo(self, size: int, lt: list[list[bool]], marked: list[bool]) -> int | None:
        """Mostowski collapse: the set a covered marked order presents, or None."""
        preds = [[p for p in range(size) if lt[p][x]] for x in range(size)]
        code: list[int | None] = [None] * size
        visiting: set[int] = set()

        def collapse(x: int) -> int:
            if code[x] is None:
                expect(x not in visiting, "marked order has a cycle")
                visiting.add(x)
                code[x] = self.add([collapse(p) for p in preds[x]])
            return code[x]

        return self.find(collapse(x) for x in range(size) if marked[x])
