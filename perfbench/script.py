"""Workload `script`: the command-line surface, run in-process.

A seeded statement program of 3,000 lines, cut into programs of 25
lines that share one mix of statements, goes through `hfkit.cli.main`: half through `hfkit run FILE`, half
line by line through `hfkit repl`. It binds brace literals of numerals
<= 4, nested at most twice, with `let` and asks `in`/`sub`/`eq`, `rank`, `ord?`, `transitive?`, `canon`,
`json`, `tomewo`, and `psi`/`phi` on numerals <= 6. A pass also runs
`hfkit check --suite all` at a heavier setting and `hfkit mewo FILE` over
seeded mewo documents in text and JSON, re-emitted as text, JSON and DOT.

Three JSON documents, the same for every seed, name an undeclared element.
`hfkit mewo` should answer them with an `error:` line and exit status 1; it
raises `KeyError` instead, so each pass counts them as failed operations.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from model import FAILED, SetTable, expect, is_strict_linear

PROGRAMS = 120
SMALL_PROGRAMS = 6
MEWO_DOCS = 45
SMALL_MEWO_DOCS = 6
MAX_NUMERAL = 6
SUITE_ARGS = ("--suite", "all", "--max-size", "5", "--max-depth", "5")

UNDECLARED = (
    {"elems": ["a", "b"], "lt": [["a", "c"]], "marked": ["b"]},
    {"elems": ["a", "b", "c"], "lt": [["a", "b"]], "marked": ["z"]},
    {"elems": ["p"], "lt": [], "marked": ["q"]},
)


@dataclass
class Program:
    text: str
    path: str
    via_repl: bool
    expected: list[tuple[str, object]]  # one (kind, value) per output line


@dataclass
class MewoDoc:
    path: str
    out_format: str
    lt: list[list[bool]] | None  # None: the document names an undeclared element
    marked: list[bool] | None


@dataclass
class Inputs:
    table: SetTable
    seed: int
    programs: list[Program]
    docs: list[MewoDoc]


def setup(hf):
    import hfkit.cli

    return hfkit.cli


def build(hf, ctx, seed: int, small: bool, workdir) -> Inputs:
    rng = random.Random(seed)
    table = SetTable()
    programs = []
    for k in range(SMALL_PROGRAMS if small else PROGRAMS):
        text, expected = make_program(rng, table, k % (MAX_NUMERAL + 1))
        path = workdir / f"program{k}.hf"
        path.write_text(text)
        programs.append(Program(text, str(path), k % 2 == 1, expected))
    docs = []
    for k in range(SMALL_MEWO_DOCS if small else MEWO_DOCS):
        lt, marked = random_mewo(rng)
        names = [f"e{rng.randrange(100)}_{i}" for i in range(len(marked))]
        as_json = k % 2 == 0
        path = workdir / f"mewo{k}.{'json' if as_json else 'txt'}"
        path.write_text(mewo_source(names, lt, marked, as_json))
        docs.append(MewoDoc(str(path), ("text", "json", "dot")[k % 3], lt, marked))
    for k, doc in enumerate(UNDECLARED):
        path = workdir / f"undeclared{k}.json"
        path.write_text(json.dumps(doc))
        docs.append(MewoDoc(str(path), "text", None, None))
    return Inputs(table, seed, programs, docs)


# -- inputs ---------------------------------------------------------------------


# Statement kinds of every program; the seed shuffles them and picks operands,
# so each program does the same kinds of work.
TEMPLATE = (["let"] * 5 + ["in", "sub", "eq"] * 2 + ["rank", "ord?", "transitive?", "rank"]
            + ["canon"] * 3 + ["json"] * 2 + ["tomewo"] * 2 + ["psi"])


def make_program(rng: random.Random, table: SetTable, psi: int) -> tuple[str, list[tuple[str, object]]]:
    """A program of the TEMPLATE's statements, `psi` and `phi` applied to the
    numeral `psi`, and the output the model expects from it."""
    numerals = table.von_neumann(MAX_NUMERAL)
    bound: dict[str, int] = {}
    lines: list[str] = []
    expected: list[tuple[str, object]] = []

    def literal(depth: int) -> tuple[str, int]:
        """A numeral <= 4 or a brace literal of at most three of them, nested."""
        if depth == 0 or rng.random() < 0.4:
            n = rng.randint(0, 4)
            return str(n), numerals[n]
        items = [literal(depth - 1) for _ in range(rng.randint(0, 3))]
        return "{" + ", ".join(t for t, _ in items) + "}", table.add(s for _, s in items)

    def operand() -> tuple[str, int]:
        if bound and rng.random() < 0.6:
            name = rng.choice(sorted(bound))
            return name, bound[name]
        return literal(1)

    kinds = list(TEMPLATE[1:])
    rng.shuffle(kinds)
    for cmd in ["let"] + kinds:
        if cmd == "let":
            name = f"v{len(bound)}"
            text, s = literal(2)
            bound[name] = s
            lines.append(f"let {name} = {text}")
        elif cmd in ("in", "sub", "eq"):
            (a, x), (b, y) = operand(), operand()
            members = table.members
            value = {"in": x in members[y], "sub": members[x] <= members[y], "eq": x == y}[cmd]
            lines.append(f"{a} {cmd} {b}" if rng.random() < 0.7 else f"{cmd} {a} {b}")
            expected.append(("line", "true" if value else "false"))
        elif cmd == "psi":
            name = f"o{len(lines)}"
            lines += [f"psi {psi}", f"let {name} = psi {psi}", f"phi {name}"]
            expected += [("ord", psi), ("line", table.canon(numerals[psi]))]
        else:
            a, x = operand()
            lines.append(f"{cmd} {a}")
            if cmd == "rank":
                expected.append(("line", str(table.rank(x))))
            elif cmd == "ord?":
                expected.append(("line", "true" if table.is_ordinal(x) else "false"))
            elif cmd == "transitive?":
                expected.append(("line", "true" if table.is_transitive(x) else "false"))
            elif cmd == "canon":
                expected.append(("line", table.canon(x)))
            else:
                expected.append((cmd, x))
    return "\n".join(lines) + "\n", expected


def random_mewo(rng: random.Random) -> tuple[list[list[bool]], list[bool]]:
    """A random extensional acyclic relation with a random marking."""
    while True:
        n = rng.randint(2, 7)
        lt = [[i < j and rng.random() < 0.45 for j in range(n)] for i in range(n)]
        columns = {tuple(lt[i][j] for i in range(n)) for j in range(n)}
        if len(columns) == n:
            return lt, [rng.random() < 0.6 for _ in range(n)]


def mewo_source(names: list[str], lt, marked, as_json: bool) -> str:
    n = len(names)
    pairs = [[names[i], names[j]] for i in range(n) for j in range(n) if lt[i][j]]
    marks = [names[i] for i in range(n) if marked[i]]
    if as_json:
        return json.dumps({"elems": names, "lt": pairs, "marked": marks})
    return ("mewo { elems: " + " ".join(names) + "; lt: "
            + ", ".join(f"{a}<{b}" for a, b in pairs) + "; marked: " + " ".join(marks) + " }")


# -- the pass -------------------------------------------------------------------


def cli(cli_module, argv: list[str], stdin_text: str | None = None) -> tuple[int, str, str]:
    """hfkit.cli.main in this process, with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli_module.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def run_pass(hf, cli_module, inp: Inputs, op) -> None:
    for prog in inp.programs:
        if prog.via_repl:
            got = op("repl", cli, cli_module, ["repl"], prog.text)
        else:
            got = op("run", cli, cli_module, ["run", prog.path])
        if got is not FAILED:
            check_program(inp.table, prog, got)

    got = op("check", cli, cli_module, ["check", *SUITE_ARGS, "--seed", str(inp.seed)])
    if got is not FAILED:
        check_suite(got)

    for doc in inp.docs:
        got = op("mewo", cli, cli_module, ["mewo", doc.path, "--format", doc.out_format])
        if got is not FAILED:
            check_mewo_output(doc, got)


# -- checks ---------------------------------------------------------------------


def check_program(table: SetTable, prog: Program, got: tuple[int, str, str]) -> None:
    rc, out, err = got
    expect(rc == 0 and not err, f"{prog.path}: exit status {rc}, stderr {err.strip()!r}")
    lines = out.splitlines()
    expect(len(lines) == len(prog.expected),
           f"{prog.path}: {len(lines)} output lines, expected {len(prog.expected)}")
    for line, (kind, value) in zip(lines, prog.expected):
        if kind == "line":
            expect(line == value, f"{prog.path}: printed {line!r}, expected {value!r}")
        elif kind == "json":
            doc = json.loads(line)
            expect(json.dumps(doc, separators=(",", ":")) == line, f"json output {line!r} does not round-trip")
            expect(table.read_doc(doc) == value, f"json output {line!r} denotes another set")
        elif kind == "tomewo":
            size, lt, marked = parse_mewo_text(line)
            expect(table.read_mewo(size, lt, marked) == value, f"tomewo output {line!r} presents another set")
        else:  # "ord": psi n prints an ordinal of size n
            m = re.fullmatch(r"ord \{ size: (\d+); lt:(.*) \}", line)
            expect(m is not None and int(m.group(1)) == value, f"psi printed {line!r}, expected size {value}")
            lt = [[False] * value for _ in range(value)]
            for item in filter(None, (t.strip() for t in m.group(2).split(","))):
                i, j = map(int, item.split("<"))
                lt[i][j] = True
            expect(is_strict_linear(lt), f"psi printed {line!r}, not a linear order")


def check_suite(got: tuple[int, str, str]) -> None:
    rc, out, err = got
    report = json.loads(out)
    expect(rc == 0 and report["cases"] > 0 and report["failures"] == [],
           f"hfkit check: exit status {rc}, failures {report['failures']}")


def check_mewo_output(doc: MewoDoc, got: tuple[int, str, str]) -> None:
    rc, out, err = got
    if doc.lt is None:
        expect(rc == 1 and err.startswith("error:") and not out,
               f"{doc.path} names an undeclared element, yet hfkit mewo exited {rc}")
        return
    expect(rc == 0, f"{doc.path}: exit status {rc}, stderr {err.strip()!r}")
    text = out.strip()
    if doc.out_format == "text":
        size, lt, marked = parse_mewo_text(text)
    elif doc.out_format == "json":
        size, lt, marked = parse_mewo_json(json.loads(text))
    else:
        size, lt, marked = parse_mewo_dot(text)
    expect((lt, marked) == (doc.lt, doc.marked), f"{doc.path}: {doc.out_format} output is another mewo")


def _structure(names: list[str], pairs, marks) -> tuple[int, list[list[bool]], list[bool]]:
    index = {name: i for i, name in enumerate(names)}
    expect(len(index) == len(names), "output repeats an element name")
    lt = [[False] * len(names) for _ in names]
    for a, b in pairs:
        lt[index[a]][index[b]] = True
    marked = [False] * len(names)
    for name in marks:
        marked[index[name]] = True
    return len(names), lt, marked


def parse_mewo_text(text: str):
    m = re.fullmatch(r"mewo \{ elems:(.*); lt:(.*); marked:(.*) \}", text)
    expect(m is not None, f"not a mewo text: {text!r}")
    pairs = [item.strip().split("<") for item in m.group(2).split(",") if item.strip()]
    return _structure(m.group(1).split(), pairs, m.group(3).split())


def parse_mewo_json(doc: dict):
    return _structure(doc["elems"], doc["lt"], doc["marked"])


def parse_mewo_dot(text: str):
    names, pairs, marks = [], [], []
    for line in text.splitlines()[1:-1]:
        line = line.strip().rstrip(";")
        if "->" in line:
            pairs.append([t.strip() for t in line.split("->")])
        else:
            name = line.split()[0]
            names.append(name)
            if "filled" in line:
                marks.append(name)
    return _structure(names, pairs, marks)
