"""Statement evaluation over a universe, with one renderer for every value.

`COMMAND_TABLE` gives each command the kinds its arguments may have (set,
ordinal, mewo) and the function that computes its result; `Session.apply`
checks a call against it. `render(value, fmt)` writes every value as text,
JSON or DOT, refusing output past `MAX_RENDERED_CHARS` before building it.
"""

from __future__ import annotations

import json

from .correspondence import (
    mewo_of_set,
    rank_ordinal,
    set_of_mewo,
    set_of_ordinal,
)
from .errors import EvalError, LimitExceededError, _checked
from .mewos import Mewo, _names, mewo_equal, mewo_to_dot, mewo_to_json, mewo_to_text
from .ordinals import FinOrd, ord_to_json, ord_to_text, same_order_type
from .parser import Braces, Expr, Ident, Let, Numeral, Op, parse_program
from .universe import SetHandle, SetUniverse, _universe_of, export_slice


# Longest text `canon`, `dot`, `json` or the rendering of an ordinal or a
# mewo may build; numeral n renders in about 2.5 * 2**n characters, so the
# default numeral bound alone would allow far more.
MAX_RENDERED_CHARS = 1 << 22


def _refuse_past_limit(need: int) -> None:
    if need > MAX_RENDERED_CHARS:
        raise LimitExceededError(
            f"rendering needs {need} characters, over the limit of {MAX_RENDERED_CHARS}"
        )


def _canon_table(h: SetHandle, labels: bool = False) -> tuple[list[int], dict[int, str]]:
    """The ids of h and the sets below it in ascending order, with the
    canonical text of each, keyed by id.

    Ascending ids are a topological order of membership, so both passes run
    bottom-up and the depth of h is not bounded by the recursion limit. The
    first pass adds up lengths, the text of a set with k > 0 members being
    2 braces plus their lengths plus k - 1 commas; past `MAX_RENDERED_CHARS` (for h,
    or for all nodes together when `labels` is set) it raises
    `LimitExceededError` before any text is built. Without `labels`, only
    the text of h is kept: a member's text goes once its last parent has it.
    """
    u = _universe_of(h)
    root = u._own(h)
    ids = u._below_ids(root) + [root]
    children = u._children
    size: dict[int, int] = {}
    for i in ids:
        ms = children[i]
        size[i] = 1 + len(ms) + sum([size[m] for m in ms]) if ms else 2
    _refuse_past_limit(sum(size.values()) if labels else size[root])
    last = {} if labels else {m: i for i in ids for m in children[i]}  # each member's last parent
    text: dict[int, str] = {}
    for i in ids:
        ms = children[i]
        parts = sorted((text[m] for m in ms), key=lambda s: (len(s), s))
        text[i] = "{" + ",".join(parts) + "}"
        for m in ms:
            if last.get(m) == i:
                del text[m]
    return ids, text


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
    ids, text = _canon_table(h, labels=True)
    children = h.universe._children
    lines = [f'  n{i} [label="{text[i]}"];' for i in ids]
    lines += [f"  n{c} -> n{i};" for i in ids for c in children[i]]
    return "\n".join(["digraph set {", *lines, "}"])


def _equal(u: SetUniverse, a, b) -> bool:
    if type(a) is not type(b):
        raise EvalError("eq expects two values of the same kind")
    if isinstance(a, SetHandle):
        return a == b
    return same_order_type(a, b) if isinstance(a, FinOrd) else mewo_equal(a, b, u)


_SET, _ORD, _MEWO = (SetHandle,), (FinOrd,), (Mewo,)
_ANY = (SetHandle, FinOrd, Mewo)
_KIND_NAMES = {SetHandle: "a set", FinOrd: "an ordinal", Mewo: "a mewo"}

# Per command: the kinds each argument may have, and its result from the universe
# and the arguments (through lambdas, so a function wrapped at run time is seen).
COMMAND_TABLE = {
    "canon": ((_SET,), lambda u, h: canon(h)),
    "rank": ((_SET,), lambda u, h: u.rank_nat(h)),
    "ord?": ((_SET,), lambda u, h: u.is_st_ordinal(h)),
    "transitive?": ((_SET,), lambda u, h: u.is_transitive_set(h)),
    "in": ((_SET, _SET), lambda u, x, y: u.mem(x, y)),
    "sub": ((_SET, _SET), lambda u, x, y: u.subset(x, y)),
    "phi": ((_ORD,), lambda u, alpha: set_of_ordinal(alpha, u)),
    "psi": ((_SET,), lambda u, h: rank_ordinal(h)),
    "tomewo": ((_SET,), lambda u, h: mewo_of_set(h)),
    "tov": ((_MEWO,), lambda u, X: set_of_mewo(X, u)),
    "eq": ((_ANY, _ANY), _equal),
    "dot": (((SetHandle, Mewo),), lambda u, v: render(v, "dot")),
    "json": ((_ANY,), lambda u, v: render(v, "json")),
}


class Session:
    """Bindings plus the universe they live in. Bindings never rebind."""

    def __init__(self, universe: SetUniverse | None = None):
        self.universe = _checked(SetUniverse, universe) if universe is not None else SetUniverse()
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

    def apply(self, cmd: str, args: list):
        if cmd not in COMMAND_TABLE:
            raise EvalError(f"unknown command {cmd!r}")
        kinds, fn = COMMAND_TABLE[cmd]
        if len(args) != len(kinds):
            raise EvalError(f"{cmd} expects {len(kinds)} argument(s), got {len(args)}")
        for allowed, v in zip(kinds, args):
            if not isinstance(v, allowed):
                *rest, last = [_KIND_NAMES[k] for k in allowed]
                wanted = f"{', '.join(rest)} or {last}" if rest else last
                raise EvalError(f"{cmd} expects {wanted}, got {type(v).__name__}")
        return fn(self.universe, *args)

    # -- statements -------------------------------------------------------------

    def run_stmt(self, stmt) -> str | None:
        if isinstance(stmt, Let):
            if stmt.name in self.bindings:
                raise EvalError(f"{stmt.name!r} is already bound; bindings do not rebind")
            self.bindings[stmt.name] = self.eval(stmt.value)
            return None
        return render(self.eval(stmt))

    def run_program(self, text: str) -> list[str]:
        lines = (self.run_stmt(stmt) for stmt in parse_program(text))
        return [line for line in lines if line is not None]


_WRITERS = {
    SetHandle: {"text": canon, "json": export_slice, "dot": set_to_dot},
    FinOrd: {"text": ord_to_text, "json": ord_to_json},
    Mewo: {"text": mewo_to_text, "json": mewo_to_json, "dot": mewo_to_dot},
}


def render(value, fmt: str = "text") -> str:
    """`value` as `fmt`: `text` for every value, `json` for sets, ordinals and
    mewos, `dot` for sets and mewos, else an EvalError. Ordinals and mewos are
    measured first and refused past `MAX_RENDERED_CHARS`; sets by their writers."""
    if fmt == "text" and isinstance(value, (bool, int, str)):
        return ("true" if value else "false") if isinstance(value, bool) else str(value)
    write = _WRITERS.get(type(value), {}).get(fmt)
    if write is None:
        raise EvalError(f"no {fmt} rendering for {type(value).__name__}")
    if not isinstance(value, SetHandle):
        _refuse_past_limit(_text_length(value, fmt))
    return json.dumps(write(value), separators=(",", ":")) if fmt == "json" else write(value)
