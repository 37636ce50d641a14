"""Surface syntax for sets and session commands.

    expr  := '{' [expr {',' expr}] '}' | NAT | IDENT
    stmt  := 'let' IDENT '=' rhs | CMD arg {arg} | arg [CMD2 arg]
    rhs   := CMD arg {arg} | arg

Numerals are shorthand for their von Neumann sets. The commands (CMD) are
the keys of `session.COMMAND_TABLE`, read when a parse starts; they and
`let` are reserved, and those of two arguments (CMD2) may be written infix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError, _checked

# Parsing and evaluation recurse once per open brace; this bound keeps both
# well under the interpreter's default recursion limit of 1000.
MAX_BRACE_DEPTH = 256


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Braces:
    items: tuple


@dataclass(frozen=True)
class Numeral:
    value: int


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple


@dataclass(frozen=True)
class Let:
    name: str
    value: object


Expr = object  # Braces | Numeral | Ident | Op


# -- tokenizer ----------------------------------------------------------------

# A token is a tuple (kind, text, offset), and a punctuation mark is its own
# kind. Whitespace and comments match no named group and are skipped; `;`
# ends a statement as a newline does.
_TOKEN_RE = re.compile(
    r"""
    [ \t]+ | \#[^\n]*
  | (?P<nat>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*\??)
  | (?P<newline>[\n;])
  | (?P<punct>[{},=])
  | (?P<junk>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _error(text: str, pos: int, message: str, expected=()) -> ParseError:
    """A ParseError at offset `pos` of `text`, given as line and column
    (a tab is one column); only a failing parse counts lines."""
    return ParseError(text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos), message, expected)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN_RE.finditer(_checked(str, text)):
        kind = m.lastgroup
        if kind is None:
            continue
        value = m[0]
        if kind == "punct":
            kind = value
        elif kind == "junk":
            raise _error(text, m.start(), f"unexpected character {value!r}")
        toks.append((kind, value, m.start()))
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.commands = session.COMMAND_TABLE
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # braces open at the current token

    def fail(self, expected) -> ParseError:
        kind, value, pos = self.toks[self.pos]
        found = repr(value) if kind != "eof" else "end of input"
        return _error(self.text, pos, f"found {found}", expected)

    def expect(self, kind: str, expected) -> str:
        tok = self.toks[self.pos]
        if tok[0] != kind:
            raise self.fail(expected)
        self.pos += 1
        return tok[1]

    def skip_newlines(self) -> None:
        while self.toks[self.pos][0] == "newline":
            self.pos += 1

    # expr := '{' [expr {',' expr}] '}' | NAT | IDENT
    def expr(self) -> Expr:
        kind, value, pos = self.toks[self.pos]
        if kind == "{":
            if self.depth == MAX_BRACE_DEPTH:
                raise _error(self.text, pos, f"braces nested deeper than {MAX_BRACE_DEPTH}")
            self.pos += 1
            if self.toks[self.pos][0] == "}":
                self.pos += 1
                return Braces(())
            self.depth += 1
            items = [self.expr()]
            while self.toks[self.pos][0] == ",":
                self.pos += 1
                items.append(self.expr())
            self.expect("}", ("'}'", "','"))
            self.depth -= 1
            return Braces(tuple(items))
        if kind == "nat":
            try:
                number = int(value)
            except ValueError:  # more digits than the interpreter converts
                raise _error(self.text, pos, f"numeral of {len(value)} digits is too long") from None
            self.pos += 1
            return Numeral(number)
        if kind == "ident" and value not in self.commands and value != "let":
            self.pos += 1
            return Ident(value)
        raise self.fail(("'{'", "number", "identifier"))

    def command_args(self, name: str) -> Op:
        args = [self.expr()]
        while True:
            kind, value, _ = self.toks[self.pos]
            if not (kind == "{" or kind == "nat" or kind == "ident" and value not in self.commands):
                return Op(name, tuple(args))
            args.append(self.expr())

    def rhs(self) -> Expr:
        kind, value, _ = self.toks[self.pos]
        if kind == "ident" and value in self.commands:
            self.pos += 1
            return self.command_args(value)
        first = self.expr()
        kind, value, _ = self.toks[self.pos]
        if kind == "ident" and value in self.commands and len(self.commands[value][0]) == 2:
            self.pos += 1
            return Op(value, (first, self.expr()))
        return first

    def stmt(self):
        kind, value, pos = self.toks[self.pos]
        if kind == "ident" and value == "let":
            self.pos += 1
            name = self.expect("ident", ("identifier",))
            if name in self.commands or name == "let":
                raise _error(self.text, pos, f"{name!r} is a reserved command name")
            self.expect("=", ("'='",))
            return Let(name, self.rhs())
        return self.rhs()

    def program(self) -> list:
        stmts = []
        while True:
            self.skip_newlines()
            if self.toks[self.pos][0] == "eof":
                return stmts
            stmts.append(self.stmt())
            if self.toks[self.pos][0] not in ("newline", "eof"):
                raise self.fail(("end of statement",))


def parse(text: str) -> Expr:
    """Parse a single expression (or command application)."""
    p = _Parser(text)
    p.skip_newlines()
    result = p.rhs()
    p.skip_newlines()
    p.expect("eof", ("end of input",))
    return result


def parse_program(text: str) -> list:
    return _Parser(text).program()


def format_expr(e: Expr) -> str:
    """Structure-preserving printer; parse(format_expr(e)) == e."""
    if isinstance(e, Braces):
        return "{" + ", ".join(format_expr(x) for x in e.items) + "}"
    if isinstance(e, Numeral):
        return str(e.value)
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Op):
        return e.name + " " + " ".join(format_expr(a) for a in e.args)
    if isinstance(e, Let):
        return f"let {e.name} = {format_expr(e.value)}"
    raise ValidationError(f"not an AST node: {e!r}")


from . import session  # noqa: E402  bound last: session imports this module
