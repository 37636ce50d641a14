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
from typing import NamedTuple

from .errors import ParseError, _checked

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nat>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*\??)
  | (?P<punct>[{},=;\n])
  | (?P<junk>.)
    """,
    re.VERBOSE | re.DOTALL,
)
# The kind of each punctuation token: `;` ends a statement as a newline does.
_PUNCT_KINDS = {"\n": "newline", ";": "newline", "{": "{", "}": "}", ",": ",", "=": "="}


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    # Every character starts a match, so the matches tile the text; a
    # newline only ever matches as `punct`, so the column is the offset
    # from the start of the line.
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(_checked(str, text)):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        value = m.group()
        pos = m.start()
        if kind == "punct":
            toks.append(_Tok(_PUNCT_KINDS[value], value, line, pos - line_start + 1))
            if value == "\n":
                line += 1
                line_start = pos + 1
        elif kind == "junk":
            raise ParseError(line, pos - line_start + 1, f"unexpected character {value!r}")
        else:
            toks.append(_Tok(kind, value, line, pos - line_start + 1))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.commands = session.COMMAND_TABLE
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # braces open at the current token

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected) -> ParseError:
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "eof" else "end of input"
        return ParseError(tok.line, tok.col, f"found {found}", expected)

    def expect(self, kind: str, expected) -> _Tok:
        if self.peek().kind != kind:
            raise self.fail(expected)
        return self.next()

    # expr := '{' [expr {',' expr}] '}' | NAT | IDENT
    def expr(self) -> Expr:
        tok = self.peek()
        if tok.kind == "{":
            if self.depth == MAX_BRACE_DEPTH:
                raise ParseError(tok.line, tok.col, f"braces nested deeper than {MAX_BRACE_DEPTH}")
            self.next()
            if self.peek().kind == "}":
                self.next()
                return Braces(())
            self.depth += 1
            items = [self.expr()]
            while self.peek().kind == ",":
                self.next()
                items.append(self.expr())
            self.expect("}", ("'}'", "','"))
            self.depth -= 1
            return Braces(tuple(items))
        if tok.kind == "nat":
            try:
                value = int(tok.text)
            except ValueError:  # more digits than the interpreter converts
                message = f"numeral of {len(tok.text)} digits is too long"
                raise ParseError(tok.line, tok.col, message) from None
            self.next()
            return Numeral(value)
        if tok.kind == "ident" and tok.text not in self.commands and tok.text != "let":
            self.next()
            return Ident(tok.text)
        raise self.fail(("'{'", "number", "identifier"))

    def command_args(self, name: str) -> Op:
        args = [self.expr()]
        while self.peek().kind in ("{", "nat") or (
            self.peek().kind == "ident" and self.peek().text not in self.commands
        ):
            args.append(self.expr())
        return Op(name, tuple(args))

    def rhs(self) -> Expr:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in self.commands:
            self.next()
            return self.command_args(tok.text)
        return self.maybe_infix(self.expr())

    def maybe_infix(self, first: Expr) -> Expr:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in self.commands and len(self.commands[tok.text][0]) == 2:
            self.next()
            return Op(tok.text, (first, self.expr()))
        return first

    def stmt(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "let":
            self.next()
            name = self.expect("ident", ("identifier",)).text
            if name in self.commands or name == "let":
                raise ParseError(tok.line, tok.col, f"{name!r} is a reserved command name")
            self.expect("=", ("'='",))
            return Let(name, self.rhs())
        return self.rhs()

    def program(self) -> list:
        stmts = []
        while True:
            while self.peek().kind == "newline":
                self.next()
            if self.peek().kind == "eof":
                return stmts
            stmts.append(self.stmt())
            if self.peek().kind not in ("newline", "eof"):
                raise self.fail(("end of statement",))


def parse(text: str) -> Expr:
    """Parse a single expression (or command application)."""
    p = _Parser(text)
    while p.peek().kind == "newline":
        p.next()
    result = p.rhs()
    while p.peek().kind == "newline":
        p.next()
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
    raise TypeError(f"not an AST node: {e!r}")


from . import session  # noqa: E402  bound last: session imports this module
