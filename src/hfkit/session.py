"""Statement evaluation over a universe, with canonical value printing."""

from __future__ import annotations

import json

from .correspondence import (
    mewo_of_set,
    rank_ordinal,
    set_of_mewo,
    set_of_ordinal,
)
from .errors import EvalError, LimitExceededError
from .mewos import Mewo, _names, mewo_equal, mewo_to_dot, mewo_to_json, mewo_to_text
from .ordinals import FinOrd, ord_to_json, ord_to_text, same_order_type
from .parser import Braces, Expr, Ident, Let, Numeral, Op, parse_program
from .universe import SetHandle, SetUniverse, export_slice


# Longest text `canon`, `dot`, `json` or the rendering of an ordinal or a
# mewo may build; numeral n renders in about 2.5 * 2**n characters, so the
# default numeral bound alone would allow far more.
MAX_RENDERED_CHARS = 1 << 22


def _refuse_past_limit(need: int) -> None:
    if need > MAX_RENDERED_CHARS:
        raise LimitExceededError(
            f"rendering needs {need} characters, over the limit of {MAX_RENDERED_CHARS}"
        )


def _canon_table(h: SetHandle, labels: bool = False) -> tuple[list[SetHandle], dict[int, str]]:
    """h and the sets below it in handle order, with the canonical text of each.

    Handle order is a topological order of membership, so both passes run
    bottom-up and the depth of h is not bounded by the recursion limit. The
    first pass adds up lengths, the text of a set with k > 0 members being
    2 braces plus their lengths plus k - 1 commas; past `MAX_RENDERED_CHARS` (for h,
    or for all nodes together when `labels` is set) it raises
    `LimitExceededError` before any text is built. Without `labels`, only
    the text of h is kept: a member's text goes once its last parent has it.
    """
    u = h.universe
    nodes = u.hereditary_members(h) + [h]
    members: dict[int, list[int]] = {}
    size: dict[int, int] = {}
    for x in nodes:
        ms = members[x.id] = [m.id for m in u.elements(x)]
        size[x.id] = 1 + len(ms) + sum([size[m] for m in ms]) if ms else 2
    _refuse_past_limit(sum(size.values()) if labels else size[h.id])
    last = {} if labels else {m: i for i, ms in members.items() for m in ms}  # each member's last parent
    text: dict[int, str] = {}
    for i, ms in members.items():
        parts = sorted((text[m] for m in ms), key=lambda s: (len(s), s))
        text[i] = "{" + ",".join(parts) + "}"
        for m in ms:
            if last.get(m) == i:
                del text[m]
    return nodes, text


def _text_length(value: FinOrd | Mewo, fmt: str = "text") -> int:
    """Length of the text, `json` or (mewos only) `dot` form of an ordinal or
    a mewo, counted from its pairs before any of it is built."""
    def listed(total: int, count: int, sep: int, pad: int = 0) -> int:  # `count` items, `total` wide in all, each `pad` wider, `sep` apart
        return total + pad * count + sep * (count - 1) if count else 0

    def clause(key: str, body: int) -> int:  # `key: body`, just `key:` when empty
        return len(key) + 1 + (body + 1 if body else 0)

    n = value.size
    if isinstance(value, FinOrd):  # linear: n(n-1)/2 pairs `i<j`, each element in n - 1 of them
        count = n * (n - 1) // 2
        pairs = (n - 1) * sum(len(str(x)) for x in range(n)) + count
        if fmt == "json":  # {"size":n,"pairs":[[i,j],...]}
            return len(f'{{"size":{n},"pairs":[]}}') + listed(pairs, count, 1, 2)
        return len(f"ord {{ size: {n};  }}") + clause("lt", listed(pairs, count, 2))
    width = [len(name) for name in _names(n)]
    count = sum(map(len, value.preds))
    pairs = sum(width[p] + width[x] + 1 for x, ps in enumerate(value.preds) for p in ps)  # `a<b`
    marks = [width[x] for x in value.marked_elements()]
    marked = (sum(marks), len(marks))
    if fmt == "json":  # {"elems":["a",...],"lt":[["a","b"],...],"marked":["a",...]}
        quoted = listed(sum(width), n, 1, 2) + listed(pairs, count, 1, 6) + listed(*marked, 1, 2)
        return len('{"elems":[],"lt":[],"marked":[]}') + quoted
    if fmt == "dot":  # `digraph mewo {`, `  a [label="a"];` per element, `  a -> b;` per pair, `}`
        styled = len(" style=filled fillcolor=black fontcolor=white") * len(marks)
        return len("digraph mewo {\n}") + listed(2 * sum(width), n, 0, 15) + listed(pairs, count, 0, 7) + styled
    return len("mewo { ; ;  }") + clause("elems", listed(sum(width), n, 1)) + (
        clause("lt", listed(pairs, count, 2)) + clause("marked", listed(*marked, 1)))


def canon(h: SetHandle) -> str:
    """Canonical brace notation: members sorted shortlex, no whitespace."""
    return _canon_table(h)[1][h.id]


def set_to_dot(h: SetHandle) -> str:
    """Membership digraph of the sets reachable from h, child -> parent."""
    u = h.universe
    nodes, text = _canon_table(h, labels=True)
    lines = ["digraph set {"]
    for m in nodes:
        lines.append(f'  n{m.id} [label="{text[m.id]}"];')
    for m in nodes:
        for c in u.elements(m):
            lines.append(f"  n{c.id} -> n{m.id};")
    lines.append("}")
    return "\n".join(lines)


class Session:
    """Bindings plus the universe they live in. Bindings never rebind."""

    def __init__(self, universe: SetUniverse | None = None):
        self.universe = universe if universe is not None else SetUniverse()
        self.bindings: dict[str, object] = {}

    # -- expression evaluation ------------------------------------------------

    def eval(self, expr: Expr):
        if isinstance(expr, Braces):
            members = []
            for item in expr.items:
                v = self.eval(item)
                if not isinstance(v, SetHandle):
                    raise EvalError("only sets can be members of a set")
                members.append(v)
            return self.universe.mk_set(members)
        if isinstance(expr, Numeral):
            return self.universe.von_neumann(expr.value)
        if isinstance(expr, Ident):
            if expr.name not in self.bindings:
                raise EvalError(f"unbound name {expr.name!r}")
            return self.bindings[expr.name]
        if isinstance(expr, Op):
            return self.apply(expr.name, [self.eval(a) for a in expr.args])
        raise EvalError(f"cannot evaluate {expr!r}")

    def _want_set(self, cmd: str, v) -> SetHandle:
        if not isinstance(v, SetHandle):
            raise EvalError(f"{cmd} expects a set, got {type(v).__name__}")
        return v

    def _want_arity(self, cmd: str, args: list, n: int) -> None:
        if len(args) != n:
            raise EvalError(f"{cmd} expects {n} argument(s), got {len(args)}")

    def apply(self, cmd: str, args: list):
        u = self.universe
        if cmd in ("canon", "rank", "ord?", "transitive?", "psi", "tomewo"):
            self._want_arity(cmd, args, 1)
            h = self._want_set(cmd, args[0])
            if cmd == "canon":
                return canon(h)
            if cmd == "rank":
                return u.rank_nat(h)
            if cmd == "ord?":
                return u.is_st_ordinal(h)
            if cmd == "transitive?":
                return u.is_transitive_set(h)
            if cmd == "psi":
                return rank_ordinal(h)
            return mewo_of_set(h)
        if cmd in ("in", "sub"):
            self._want_arity(cmd, args, 2)
            x = self._want_set(cmd, args[0])
            y = self._want_set(cmd, args[1])
            return u.mem(x, y) if cmd == "in" else u.subset(x, y)
        if cmd == "phi":
            self._want_arity(cmd, args, 1)
            if not isinstance(args[0], FinOrd):
                raise EvalError(f"phi expects an ordinal, got {type(args[0]).__name__}")
            return set_of_ordinal(args[0], u)
        if cmd == "tov":
            self._want_arity(cmd, args, 1)
            if not isinstance(args[0], Mewo):
                raise EvalError(f"tov expects a mewo, got {type(args[0]).__name__}")
            return set_of_mewo(args[0], u)
        if cmd == "eq":
            self._want_arity(cmd, args, 2)
            a, b = args
            if isinstance(a, SetHandle) and isinstance(b, SetHandle):
                return a == b
            if isinstance(a, FinOrd) and isinstance(b, FinOrd):
                return same_order_type(a, b)
            if isinstance(a, Mewo) and isinstance(b, Mewo):
                return mewo_equal(a, b)
            raise EvalError("eq expects two values of the same kind")
        if cmd == "dot":
            self._want_arity(cmd, args, 1)
            v = args[0]
            if isinstance(v, SetHandle):
                return set_to_dot(v)
            if isinstance(v, Mewo):
                _refuse_past_limit(_text_length(v, "dot"))
                return mewo_to_dot(v)
            raise EvalError(f"dot expects a set or a mewo, got {type(v).__name__}")
        if cmd == "json":
            self._want_arity(cmd, args, 1)
            v = args[0]
            if isinstance(v, SetHandle):
                return json.dumps(export_slice(v), separators=(",", ":"))
            if isinstance(v, (FinOrd, Mewo)):
                _refuse_past_limit(_text_length(v, "json"))
                doc = ord_to_json(v) if isinstance(v, FinOrd) else mewo_to_json(v)
                return json.dumps(doc, separators=(",", ":"))
            raise EvalError(f"json has no encoding for {type(v).__name__}")
        raise EvalError(f"unknown command {cmd!r}")

    # -- statements -------------------------------------------------------------

    def run_stmt(self, stmt) -> str | None:
        if isinstance(stmt, Let):
            if stmt.name in self.bindings:
                raise EvalError(f"{stmt.name!r} is already bound; bindings do not rebind")
            self.bindings[stmt.name] = self.eval(stmt.value)
            return None
        return render(self.eval(stmt))

    def run_program(self, text: str) -> list[str]:
        out = []
        for stmt in parse_program(text):
            line = self.run_stmt(stmt)
            if line is not None:
                out.append(line)
        return out


def render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, SetHandle):
        return canon(value)
    if isinstance(value, (FinOrd, Mewo)):
        _refuse_past_limit(_text_length(value))
        return ord_to_text(value) if isinstance(value, FinOrd) else mewo_to_text(value)
    raise EvalError(f"no rendering for {type(value).__name__}")
