from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import hfkit.cli as cli_module
import hfkit.session as session_module
from hfkit import (
    EvalError,
    FormatError,
    HfkitError,
    LimitExceededError,
    Mewo,
    ParseError,
    PointedGraph,
    Session,
    SetHandle,
    SetUniverse,
    canon,
    chain,
    enumerate_v,
    import_slice,
    mewo_from_json,
    mewo_from_text,
    mewo_of_set,
    ord_from_text,
    parse,
    render,
    run_suite,
    set_of_mewo,
)
from hfkit.parser import (
    MAX_BRACE_DEPTH,
    Braces,
    Ident,
    Let,
    Numeral,
    Op,
    format_expr,
    parse_program,
)
from hfkit.session import COMMAND_TABLE, MAX_RENDERED_CHARS, set_to_dot

DATA = Path(__file__).parent / "data"
ANY_EXPR = ("'{'", "number", "identifier")


def test_parse_empty_set():
    assert parse("{}") == Braces(())


def test_parse_nested():
    assert parse("{{},{{}}}") == Braces((Braces(()), Braces((Braces(()),))))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("{,")
    assert exc.value.line == 1 and exc.value.col == 2
    assert exc.value.expected


@pytest.mark.parametrize("program, position", [
    ("# a comment\nrank {,}", (2, 7)),  # after a comment line
    ("rank 1 # a comment\n  {,}", (2, 4)),  # after a comment that ends a statement
    ("rank\t{,}", (1, 7)),  # a tab is one column
    ("rank 1; rank {,}", (1, 15)),  # `;` ends a statement, not the line
    ("let x = 1\nrank x\nlet = 2", (3, 5)),
    ("let x =", (1, 8)),  # end of input
    ("rank 1\n\t $", (2, 3)),  # a character outside the syntax
])
def test_parse_error_positions(program, position):
    with pytest.raises(ParseError) as exc:
        parse_program(program)
    assert (exc.value.line, exc.value.col) == position


# Positions are counted from a token's offset only when a parse fails, so
# each failure is checked in full: line, column, message and expected set.
@pytest.mark.parametrize("program, line, col, message, expected", [
    ("let x = 1; let y = ;", 1, 20, "found ';'", ANY_EXPR),
    ("# only a comment\nrank 1 2 3 }", 2, 12, "found '}'", ("end of statement",)),
    ("rank 1\n# a comment\n\tcanon {1,\t=}", 3, 12, "found '='", ANY_EXPR),
    ("let a = 1\n\tlet b = @", 2, 10, "unexpected character '@'", ()),
    ("rank 1\n\n" + "{" * (MAX_BRACE_DEPTH + 1), 3, MAX_BRACE_DEPTH + 1,
     f"braces nested deeper than {MAX_BRACE_DEPTH}", ()),
    ("let x = 1\nrank x\nrank", 3, 5, "found end of input", ANY_EXPR),
    ("let in = 2", 1, 1, "'in' is a reserved command name", ()),
    ("canon 1 # note\nlet x = 1 let", 2, 11, "found 'let'", ("end of statement",)),
    ("let x = 1\nrank " + "9" * 5000, 2, 6, "numeral of 5000 digits is too long", ()),
    ("{1, 2\n}", 1, 6, "found '\\n'", ("'}'", "','")),
    ("rank 1;\n rank 2; canon\t{{}, 1 2}", 2, 23, "found '2'", ("'}'", "','")),
])
def test_parse_errors_in_full(program, line, col, message, expected):
    with pytest.raises(ParseError) as exc:
        parse_program(program)
    assert (exc.value.line, exc.value.col, exc.value.message, exc.value.expected) == (line, col, message, expected)


def test_format_expr_of_a_non_node_is_refused():
    for value in (None, "x", Braces((None,))):
        with pytest.raises(HfkitError, match="not an AST node"):
            format_expr(value)


def test_parse_overlong_numeral_is_a_parse_error():
    # past the interpreter's limit on converting digit strings to int
    with pytest.raises(ParseError, match="5000 digits") as exc:
        parse("rank " + "9" * 5000)
    assert (exc.value.line, exc.value.col) == (1, 6)


def test_parse_brace_nesting_at_the_bound():
    h = Session().eval(parse("{" * MAX_BRACE_DEPTH + "}" * MAX_BRACE_DEPTH))
    assert h.universe.rank_nat(h) == MAX_BRACE_DEPTH - 1


def test_parse_brace_nesting_past_the_bound():
    deep = "{" * (MAX_BRACE_DEPTH + 1) + "}" * (MAX_BRACE_DEPTH + 1)
    with pytest.raises(ParseError) as exc:
        parse_program("let x = {}\ncanon " + deep)
    # the offending brace is the first one past the bound
    assert (exc.value.line, exc.value.col) == (2, len("canon ") + MAX_BRACE_DEPTH + 1)


def test_parse_numeral_and_ident():
    assert parse("12") == Numeral(12)
    assert parse("spam") == Ident("spam")
    assert parse("\n\nspam\n;\n") == Ident("spam")


def test_parse_infix_and_prefix():
    assert parse("2 in 3") == Op("in", (Numeral(2), Numeral(3)))
    assert parse("in 2 3") == Op("in", (Numeral(2), Numeral(3)))
    assert parse("rank {{{}}}") == Op("rank", (Braces((Braces((Braces(()),)),)),))


def test_parse_program_let():
    stmts = parse_program("let x = {{}}\ncanon x\n")
    assert stmts[0] == Let("x", Braces((Braces(()),)))
    assert stmts[1] == Op("canon", (Ident("x"),))


def test_parse_rejects_trailing_junk():
    with pytest.raises(ParseError):
        parse("{} {}")


def test_format_expr_roundtrip():
    samples = [
        Braces(()),
        Braces((Braces(()), Braces((Braces(()),)))),
        Numeral(7),
        Op("in", (Numeral(2), Numeral(3))),
        Op("rank", (Braces((Braces(()),)),)),
        Ident("x"),
    ]
    for ast in samples:
        assert parse(format_expr(ast)) == ast
    stmt = Let("x", Op("in", (Ident("y"), Braces((Numeral(2),)))))
    assert parse_program(format_expr(stmt)) == [stmt]


def test_eval_rank():
    s = Session()
    assert s.run_program("rank {{{}}}") == ["2"]


def test_eval_st_ordinal_queries():
    s = Session()
    # {0, {0}} is hereditarily transitive; adding {{0}} breaks it
    assert s.run_program("ord? {{},{{}}}") == ["true"]
    assert s.run_program("ord? {{},{{}},{{{}}}}") == ["false"]
    assert s.run_program("transitive? {{{}}}") == ["false"]


def test_eval_numerals_expand():
    s = Session()
    assert s.run_program("2 in 3") == ["true"]
    assert s.run_program("canon 2") == ["{{},{{}}}"]
    assert s.run_program("3 sub 2") == ["false"]


def test_eval_let_and_commands():
    s = Session()
    out = s.run_program(
        "let x = {{},{{}}}\n"
        "let r = psi x\n"
        "phi r\n"
        "eq x 2\n"
    )
    assert out == ["{{},{{}}}", "true"]


def test_eval_phi_type_error():
    s = Session()
    with pytest.raises(EvalError):
        s.run_program("phi {}")


def test_eval_tov_type_error():
    s = Session()
    with pytest.raises(EvalError):
        s.run_program("tov {}")


def test_eval_tomewo_tov_roundtrip():
    s = Session()
    out = s.run_program("let m = tomewo {{{}}}\nm eq m\ntov m")
    assert out == ["true", "{{{}}}"]


def test_eq_of_mewos_codes_them_in_the_session_universe():
    s = Session()
    u = s.universe
    s.run_program("let a = tomewo 2\nlet b = tomewo {{},{{}}}\nlet c = tomewo 3\ntov a")
    before = len(u)
    assert s.run_program("eq a b\na eq c") == ["true", "false"]
    assert len(u) == before
    assert all(s.bindings[name]._collapsed[0]() is u for name in "abc")


def test_eval_mewo_rendering():
    s = Session()
    out = s.run_program("let m = tomewo {{{}}}\nm")
    assert out == ["mewo { elems: a b; lt: a<b; marked: b }"]


def test_the_parser_reads_its_commands_from_the_session_table(monkeypatch):
    program = "size 3\nmeet 2 3\n2 meet 3"
    sets = (SetHandle,)

    def meet(u, x, y):
        return u.mk_set(set(u.elements(x)) & set(u.elements(y)))

    with monkeypatch.context() as patch:
        patch.setitem(COMMAND_TABLE, "size", ((sets,), lambda u, h: len(u.elements(h))))
        patch.setitem(COMMAND_TABLE, "meet", ((sets, sets), meet))
        assert Session().run_program(program) == ["3", "{{},{{}}}", "{{},{{}}}"]
        for name in ("size", "meet", "let"):
            with pytest.raises(ParseError, match=f"'{name}' is a reserved command name"):
                Session().run_program(f"let {name} = 1")
    for text in program.splitlines():
        with pytest.raises(ParseError):
            Session().run_program(text)
    assert parse_program("let size = 1") == [Let("size", Numeral(1))]


@pytest.mark.parametrize("program, message", [
    ("canon {} {}", "canon expects 1 argument(s), got 2"),
    ("let r = rank 2\njson r", "json expects a set, an ordinal or a mewo, got int"),
    ("let a = psi 2\ndot a", "dot expects a set or a mewo, got FinOrd"),
    ("let m = tomewo 1\nphi m", "phi expects an ordinal, got Mewo"),
    ("let a = psi 1\n1 eq a", "eq expects two values of the same kind"),
    ("let a = psi 1\nin 1 a", "in expects a set, got FinOrd"),
    ("let m = tomewo 1\n{m}", "only sets can be members of a set"),
])
def test_eval_checks_arity_and_kinds_from_the_table(program, message):
    with pytest.raises(EvalError, match=f"^{re.escape(message)}$"):
        Session().run_program(program)


def test_apply_names_an_unknown_command():
    with pytest.raises(EvalError, match="^unknown command 'nope'$"):
        Session().apply("nope", [])


def test_eval_unbound_and_shadowing():
    s = Session()
    with pytest.raises(EvalError):
        s.run_program("canon nope")
    with pytest.raises(EvalError):
        s.run_program("let x = {}\nlet x = {{}}")
    with pytest.raises(EvalError, match="^cannot evaluate Let"):  # a statement is no expression
        s.eval(Let("x", Numeral(1)))


def test_eval_numeral_bound():
    s = Session()
    with pytest.raises(LimitExceededError) as exc:
        s.run_program("canon 1025")
    assert "bound" in str(exc.value)


def test_canon_sorted_members():
    s = Session()
    assert s.run_program("canon {{{}},{}}") == ["{{},{{}}}"]


def test_json_command_roundtrip():
    s = Session()
    (line,) = s.run_program("json {{},{{}}}")
    assert json.loads(line) == {"nodes": [[], [0], [0, 1]], "root": 2}


def test_dot_command():
    s = Session()
    (line,) = s.run_program("let m = tomewo {{{}}}\ndot m")
    assert line.startswith("digraph") and "->" in line
    (line,) = s.run_program("dot {{}}")
    assert line.startswith("digraph") and "->" in line


def _dot_by_per_node_canon(h, label=canon):
    """DOT text with each label rendered by its own `label` call."""
    u = h.universe
    nodes = u.hereditary_members(h) + [h]
    lines = ["digraph set {"]
    lines += [f'  n{m.id} [label="{label(m)}"];' for m in nodes]
    lines += [f"  n{c.id} -> n{m.id};" for m in nodes for c in u.elements(m)]
    return "\n".join(lines + ["}"])


def _canon_by_recursion(h):
    """Canonical text from its definition: the members' texts, sorted shortlex."""
    parts = sorted((_canon_by_recursion(m) for m in h.universe.elements(h)), key=lambda t: (len(t), t))
    return "{" + ",".join(parts) + "}"


def test_canon_and_dot_match_a_recursive_rendering():
    u = SetUniverse()
    sets = enumerate_v(4, u) + [u.von_neumann(n) for n in range(7)]  # V_4 holds V_3
    for h in sets:
        assert canon(h) == _canon_by_recursion(h)
        assert set_to_dot(h) == _dot_by_per_node_canon(h, label=_canon_by_recursion)


def test_dot_labels_match_per_node_canon():
    u = SetUniverse()
    e = u.empty()
    one = u.mk_set([e])
    demo = [e, one, u.mk_set([e, one]), u.mk_set([one])] + [u.von_neumann(n) for n in range(6)]
    demo.append(u.from_graph(PointedGraph.make([[1, 2, 1], [], []], root=0)))
    demo.append(set_of_mewo(mewo_of_set(u.mk_set([u.mk_set([one]), e])), u))
    for h in demo:
        assert set_to_dot(h) == _dot_by_per_node_canon(h)


def test_canon_and_dot_refuse_output_past_the_limit(monkeypatch):
    s = Session()
    (line,) = s.run_program("canon 20")
    assert len(line) == 5 * 2**19 - 1 <= MAX_RENDERED_CHARS
    with pytest.raises(LimitExceededError, match="characters"):
        s.run_program("canon 25")
    with pytest.raises(LimitExceededError, match="characters"):
        s.run_program("dot 21")
    # the limit counts exactly: a text of the limit's length is built
    monkeypatch.setattr(session_module, "MAX_RENDERED_CHARS", len(canon(s.universe.von_neumann(4))))
    assert s.run_program("canon 4") == [canon(s.universe.von_neumann(4))]
    with pytest.raises(LimitExceededError):
        s.run_program("canon 5")


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canon_drops_each_member_text_after_its_last_parent():
    s = Session()
    s.run_program("let x0 = 14\n" + "\n".join(f"let x{k} = {{x{k - 1}}}" for k in range(1, 201)))
    text, peak = _traced_peak(canon, s.bindings["x200"])
    assert peak < 1 << 20
    assert text == "{" * 200 + canon(s.universe.von_neumann(14)) + "}" * 200 and len(text) == 41_359


# -- suites ---------------------------------------------------------------------


def test_run_suite_all_passes():
    report = run_suite("all", seed=42, max_size=4, max_depth=4)
    assert report["failures"] == []
    assert report["cases"] > 20
    assert report["suite"] == "all" and report["seed"] == 42


def test_run_suite_deterministic():
    a = run_suite("correspondence", seed=7, max_size=4, max_depth=4)
    b = run_suite("correspondence", seed=7, max_size=4, max_depth=4)
    assert a == b


def test_run_suite_counterexamples():
    report = run_suite("counterexamples")
    assert report["failures"] == []
    assert report["cases"] >= 4


def test_check_reports_a_raising_case_as_a_failure(monkeypatch):
    import hfkit.suites as suites_module

    real_down = suites_module.down

    def down(alpha, a):  # a fast path that raises on non-canonical carriers
        if alpha.pos != tuple(range(alpha.size)):
            raise IndexError(f"element {a} out of range for size 0")
        return real_down(alpha, a)

    others = sum(run_suite(name)["cases"] for name in ("sets", "mewos", "correspondence", "counterexamples"))
    monkeypatch.setattr(suites_module, "down", down)
    res = run_cli("check", "--suite", "all", "--format", "text")
    assert res.returncode == 1
    assert "Traceback" not in res.stdout + res.stderr
    assert ("  FAIL ordinals.raised [the rest of the suite]: expected no exception, "
            "got IndexError: element 0 out of range for size 0") in res.stdout.splitlines()
    report = run_suite("all")
    # the 3 ordinal cases before segments.iterate, the raised case, every other suite
    assert report["cases"] == 3 + 1 + others
    assert [f["name"] for f in report["failures"]] == ["ordinals.raised"]


def test_run_suite_sets_caps_its_graph_pool():
    # every pool is capped, so a huge --max-size costs what 8 costs
    start = time.perf_counter()
    report = run_suite("sets", max_size=10**7)
    assert time.perf_counter() - start < 2
    assert report == run_suite("sets", max_size=8)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError) as exc:
        run_suite("nope")
    assert isinstance(exc.value, HfkitError)


# -- console entry points ---------------------------------------------------------


def run_cli(*args, stdin=""):
    """`hfkit *args` run by `cli.main` in this process, with `stdin` as its
    standard input, as the CompletedProcess a `python -m hfkit.cli` child
    would give. A usage error or `--help` ends in argparse's exit status; any
    other exception propagates and fails the test. A test that needs the
    process itself calls `spawn_cli` and is named in KEPT_SPAWNS."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)  # not a terminal, so `repl` reads it as piped
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli_module.main(list(args))
            except SystemExit as exc:
                status = exc.code
    finally:
        sys.stdin = saved
    return subprocess.CompletedProcess(args, status, out.getvalue(), err.getvalue())


# The tests that start a fresh interpreter, each with the reason the process
# is the point; `test_every_spawn_is_kept_for_its_process` holds the list to
# the tests that do.
KEPT_SPAWNS = {
    "test_cli_check_exit_codes": "the `python -m hfkit.cli` entry and the exit status a shell sees",
    "test_cli_paths_do_not_import_numpy": "a clean `sys.modules`",
    "test_cli_check_seeded_reports_identical": "two interpreters, each with its own string-hash seed",
    "test_cli_parser_is_built_once_and_reused": "the first `main` call of a new process",
    "test_cli_repl_decides_ord_at_the_numeral_bound": "a timeout that guards against a hang",
}


def spawn_cli(*args, stdin=None, timeout=None):
    """`python -m hfkit.cli *args` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-m", "hfkit.cli", *args],
                          input=stdin, capture_output=True, text=True, timeout=timeout)


def test_cli_check_exit_codes():
    ok = spawn_cli("check", "--suite", "counterexamples")
    assert ok.returncode == 0
    report = json.loads(ok.stdout)
    assert report["failures"] == []
    usage = spawn_cli("check", "--suite", "nope")
    assert usage.returncode == 2


# Imports hfkit, enumerates the size-4 mewo pool and runs the CLI on a
# program, a repl input and both mewo file forms in every format, all in one
# interpreter; numpy is only for the `lt` and `marked` views, which none read.
NUMPY_FREE_RUN = """
import io
import sys

import hfkit
import hfkit.cli

assert len(hfkit.enumerate_mewos(4)) == 144
for n in (3, 4):
    alpha = hfkit.chain(n)
    assert hfkit.enum_simulations(alpha, alpha) == [tuple(range(n))]
    assert len(hfkit.enum_bounded_sims(hfkit.chain(n - 1), alpha)) == 1
    assert hfkit.equal_by_permutation(alpha, alpha)
program, text_mewo, json_mewo = sys.argv[1:]
assert hfkit.cli.main(["run", program]) == 0
sys.stdin = io.StringIO("let m = tomewo 3\\nm\\ntov m\\n")
assert hfkit.cli.main(["repl"]) == 0
for path in (text_mewo, json_mewo):
    for fmt in ("text", "json", "dot"):
        assert hfkit.cli.main(["mewo", path, "--format", fmt]) == 0
assert hfkit.cli.main(["check", "--suite", "all"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_cli_paths_do_not_import_numpy(tmp_path):
    program = tmp_path / "p.hf"
    program.write_text("let a = psi {{},{{}}}\nphi a\nlet m = tomewo {{{}}}\nm\ntov m\njson a\ndot m\n")
    text_mewo = tmp_path / "m.mewo"
    text_mewo.write_text("mewo { elems: a b c; lt: a<b, b<c; marked: a c }\n")
    json_mewo = tmp_path / "m.json"
    json_mewo.write_text('{"elems": ["a", "b"], "lt": [["a", "b"]], "marked": ["b"]}\n')
    got = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_RUN, str(program), str(text_mewo), str(json_mewo)],
        capture_output=True, text=True,
    )
    assert got.returncode == 0, got.stderr
    assert "mewo { elems: a b c; lt: a<b, b<c; marked: a c }" in got.stdout


def test_cli_check_seeded_reports_identical():
    a = spawn_cli("check", "--suite", "sets", "--seed", "42", "--max-size", "4")
    b = spawn_cli("check", "--suite", "sets", "--seed", "42", "--max-size", "4")
    assert a.stdout == b.stdout and a.returncode == 0


@pytest.mark.parametrize("pinned, args", [
    ("check_all.json", ()),
    ("check_all_seed7_max_size4.json", ("--seed", "7", "--max-size", "4")),
])
def test_cli_check_reports_match_the_pinned_files(pinned, args):
    res = run_cli("check", "--suite", "all", *args)
    assert res.returncode == 0
    assert res.stdout == (DATA / pinned).read_text(encoding="utf-8")


@pytest.mark.parametrize("args, status", [
    (("--max-depth", "2000"), 2),
    (("--max-depth", "-1"), 2),
    (("--max-size", "-1"), 2),
    (("--max-depth", "1024"), 0),
])
def test_cli_check_bounds(args, status):
    res = run_cli("check", "--suite", "sets", *args)
    assert res.returncode == status and "Traceback" not in res.stderr
    if status == 2:
        assert res.stdout == "" and "error: argument --max-" in res.stderr


@pytest.mark.parametrize("command", ["repl", "run"])
def test_cli_has_no_numeral_bound_option(command, tmp_path):
    script = tmp_path / "empty.hf"
    script.write_text("")
    args = ("repl",) if command == "repl" else ("run", str(script))
    res = run_cli(*args, "--max-numeral", "5", stdin="")
    assert res.returncode == 2 and "unrecognized arguments: --max-numeral 5" in res.stderr


def test_cli_repl_and_batch_agree(tmp_path):
    text = "let x = {{},{{}}}\nrank x\nx in 3\ncanon {2,0,1}\n"
    script = tmp_path / "session.hf"
    script.write_text(text)
    batch = run_cli("run", str(script))
    repl = run_cli("repl", stdin=text)
    assert batch.returncode == 0 and repl.returncode == 0
    assert batch.stdout == repl.stdout
    assert batch.stdout.splitlines() == ["2", "true", "{{},{{}},{{},{{}}}}"]


def test_cli_run_reports_errors(tmp_path):
    script = tmp_path / "bad.hf"
    script.write_text("canon {,}\n")
    res = run_cli("run", str(script))
    assert res.returncode == 1
    assert "error" in res.stderr


def test_cli_mewo_file(tmp_path):
    path = tmp_path / "two.mewo"
    path.write_text("mewo { elems: a b; lt: a<b; marked: b }\n")
    text = run_cli("mewo", str(path))
    assert text.returncode == 0
    assert text.stdout.strip() == "mewo { elems: a b; lt: a<b; marked: b }"
    dot = run_cli("mewo", str(path), "--format", "dot")
    assert "a -> b" in dot.stdout
    as_json = run_cli("mewo", str(path), "--format", "json")
    doc = json.loads(as_json.stdout)
    assert doc["marked"] == ["b"]
    path2 = tmp_path / "two.json"
    path2.write_text(as_json.stdout)
    back = run_cli("mewo", str(path2))
    assert back.stdout == text.stdout


def test_cli_mewo_file_invalid(tmp_path):
    path = tmp_path / "bad.mewo"
    path.write_text("mewo { elems: a b; lt: ; marked: }\n")
    res = run_cli("mewo", str(path))
    assert res.returncode == 1


def test_cli_mewo_json_undeclared_element(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elems":["a","b"],"lt":[["a","c"]],"marked":["b"]}\n')
    res = run_cli("mewo", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_cli_mewo_json_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elems":["a","b"],"marked":["b"]}\n')
    res = run_cli("mewo", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert "'lt'" in res.stderr


def test_cli_mewo_json_elems_not_a_list(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"elems":5,"lt":[],"marked":[]}\n')
    res = run_cli("mewo", str(path))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert "'elems'" in res.stderr


def test_cli_run_canon_of_a_deep_chain(tmp_path):
    # 1,200 nested singletons, deeper than the default recursion limit
    lines = ["let s0 = {}"] + [f"let s{k} = {{s{k - 1}}}" for k in range(1, 1201)]
    script = tmp_path / "chain.hf"
    script.write_text("\n".join(lines + ["canon s1200"]) + "\n")
    res = run_cli("run", str(script))
    assert res.returncode == 0 and "Traceback" not in res.stderr
    assert res.stdout.strip() == "{" * 1201 + "}" * 1201


def test_cli_run_refuses_phi_past_the_numeral_bound(tmp_path):
    # psi of a 1,100-deep chain is an ordinal of size 1,100; phi of it would be numeral 1,100
    lines = ["let a0 = {}"] + [f"let a{k} = {{a{k - 1}}}" for k in range(1, 1101)]
    script = tmp_path / "phi.hf"
    script.write_text("\n".join(lines + ["let p = psi a1100", "phi p"]) + "\n")
    res = run_cli("run", str(script))
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert "numeral bound 1024" in res.stderr


def test_cli_run_rejects_braces_past_the_bound(tmp_path):
    script = tmp_path / "deep.hf"
    script.write_text("canon " + "{" * 1200 + "}" * 1200 + "\n")
    res = run_cli("run", str(script))
    assert res.returncode == 1
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_cli_run_reports_an_overlong_numeral(tmp_path):
    script = tmp_path / "long.hf"
    script.write_text("rank " + "9" * 5000 + "\n")
    res = run_cli("run", str(script))
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error: 1:6: ") and len(res.stderr.splitlines()) == 1
    assert "Traceback" not in res.stderr


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli_module._build_parser() is cli_module._build_parser()
    program = tmp_path / "p.hf"
    program.write_text("let x = {{},{{}}}\nrank x\ncanon {2,0,1}\nlet m = tomewo x\ndot m\n")
    fresh = spawn_cli("run", str(program))  # the first call of a new process
    assert fresh.returncode == 0
    with pytest.raises(SystemExit) as exc:
        cli_module.main(["check", "--suite", "all", "--max-size", "-1"])
    assert exc.value.code == 2
    assert "error: argument --max-size" in capsys.readouterr().err
    assert cli_module.main(["run", str(program)]) == 0
    assert capsys.readouterr() == (fresh.stdout, fresh.stderr)
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli_module.main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and helps[0].out.startswith("usage: hfkit")


def test_cli_repl_decides_ord_at_the_numeral_bound():
    res = spawn_cli("repl", stdin="ord? 1024\n", timeout=5)
    assert res.returncode == 0 and res.stdout == "true\n"


def test_cli_repl_names_the_stdin_line_of_a_parse_error():
    res = run_cli("repl", stdin="rank 3\ncanon {\n")
    assert res.returncode == 1 and res.stdout == "3\n"
    assert res.stderr.startswith("error: 2:8:"), res.stderr


def test_cli_repl_refuses_canon_past_the_output_limit():
    res = run_cli("repl", stdin="canon 25\n")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


@pytest.mark.parametrize("command, name, content", [
    ("run", "missing.hf", None),
    ("run", "folder", "mkdir"),
    ("run", "latin1.hf", b"canon {}\n\xe9\n"),
    ("mewo", "missing.mewo", None),
    ("mewo", "latin1.mewo", b"mewo { elems: \xe9; lt: ; marked: }\n"),
    ("mewo", "deep.json", b'{"a":' * 100_000 + b"1" + b"}" * 100_000),
], ids=["run-missing", "run-directory", "run-latin1", "mewo-missing", "mewo-latin1", "mewo-deep-json"])
def test_cli_unreadable_input_is_an_error_line(command, name, content, tmp_path):
    path = tmp_path / name
    if content == "mkdir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    res = run_cli(command, str(path))
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


@pytest.mark.parametrize("value", ["abc", "1e3"])
def test_cli_malformed_node_limit_is_an_error_line(value, tmp_path, monkeypatch):
    path = tmp_path / "one.hf"
    path.write_text("canon 1\n")
    monkeypatch.setenv("HFKIT_NODE_LIMIT", value)  # read each time a SetUniverse is made
    for res in (run_cli("run", str(path)), run_cli("repl", stdin="canon 1\n")):
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr.startswith("error: HFKIT_NODE_LIMIT") and "Traceback" not in res.stderr


def test_cli_mewo_refuses_output_past_the_limit(tmp_path, monkeypatch):
    text = "mewo { elems: a b; lt: a<b; marked: b }"
    path = tmp_path / "two.mewo"
    path.write_text(text + "\n")
    needs = {fmt: len(render(mewo_from_text(text), fmt)) for fmt in ("text", "json", "dot")}
    for fmt, need in needs.items():
        monkeypatch.setattr(session_module, "MAX_RENDERED_CHARS", need)
        res = run_cli("mewo", str(path), "--format", fmt)
        assert res.returncode == 0
        assert len(res.stdout) == need + 1
        monkeypatch.setattr(session_module, "MAX_RENDERED_CHARS", need - 1)
        res = run_cli("mewo", str(path), "--format", fmt)
        assert res.returncode == 1
        assert res.stdout == "" and res.stderr.startswith("error: rendering needs")


@pytest.mark.parametrize("read, doc", [
    (ord_from_text, "ord { size: two }"),
    (ord_from_text, "ord { size: 2; lt: 0<x }"),
    (ord_from_text, "ord { size: 2; lt: 0 }"),
    (ord_from_text, "ord { lt: 0<1 }"),
    (ord_from_text, "ord { size: 2; gt: 1<0 }"),
    (mewo_from_text, "mewo { elems: a a }"),
    (mewo_from_text, "mewo { elems: a; lt: a<b }"),
    (mewo_from_text, "mewo { elems: a; marked: b }"),
    (mewo_from_json, {"elems": ["a"], "lt": [["a"]], "marked": []}),
    (lambda doc: import_slice(doc, SetUniverse()), {"nodes": [[], ["0"]], "root": 1}),
])
def test_readers_raise_format_errors(read, doc):
    with pytest.raises(FormatError) as exc:
        read(doc)
    assert isinstance(exc.value, HfkitError) and isinstance(exc.value, ValueError)


def test_cli_mewo_file_of_a_long_chain_builds_no_matrix(tmp_path, monkeypatch):
    # a 30,000 x 30,000 matrix would take 900 MB; reader, validator and writers use pairs
    n = 30_000
    names = [f"v{i}" for i in range(n)]
    pairs = [[f"v{i}", f"v{i + 1}"] for i in range(n - 1)]
    text = (f"mewo {{ elems: {' '.join(names)}; lt: {', '.join(a + '<' + b for a, b in pairs)}; "
            f"marked: v{n - 1} }}")
    path = tmp_path / "chain.mewo"
    path.write_text(text + "\n")

    def no_matrix(self):
        raise AssertionError("the n x n matrix was built")

    monkeypatch.setattr(Mewo, "lt", property(no_matrix))
    outputs = {}
    for fmt in ("text", "json", "dot"):
        res = run_cli("mewo", str(path), "--format", fmt)
        assert res.returncode == 0
        outputs[fmt] = res.stdout
    assert outputs["text"] == text + "\n"
    assert json.loads(outputs["json"]) == {"elems": names, "lt": pairs, "marked": [f"v{n - 1}"]}
    edges = [line for line in outputs["dot"].splitlines() if " -> " in line]
    assert edges == [f"  {a} -> {b};" for a, b in pairs]
    as_json = tmp_path / "chain.json"
    as_json.write_text(outputs["json"])
    back = run_cli("mewo", str(as_json))
    assert back.returncode == 0
    assert back.stdout == outputs["text"]


@pytest.mark.parametrize("stmt", [
    "tomewo 1024",
    "psi 1024",
    "let m = tomewo 1024\ndot m",
    "let m = tomewo 1024\njson m",
    "let p = psi 1024\njson p",
])
def test_cli_repl_refuses_mewos_and_ordinals_past_the_output_limit(stmt):
    res = run_cli("repl", stdin=stmt + "\n")
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr


def test_render_counts_mewos_and_ordinals_exactly(mewo_pool, fixtures_mewos):
    u = SetUniverse()
    values = list(mewo_pool) + list(fixtures_mewos)
    values += [mewo_of_set(u.von_neumann(n)) for n in (26, 27, 300)]
    values += [chain(n) for n in (0, 1, 2, 11, 300)]
    values.append(ord_from_text("ord { size: 3; lt: 2<0, 2<1, 0<1 }"))
    session = Session(u)
    for value in values:
        assert session_module._text_length(value) == len(render(value))
        assert session_module._text_length(value, "json") == len(session.apply("json", [value]))
        if isinstance(value, Mewo):
            assert session_module._text_length(value, "dot") == len(session.apply("dot", [value]))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: chain(2), id="FinOrd"),
    pytest.param(lambda: SetUniverse().von_neumann(2), id="SetHandle"),
    pytest.param(lambda: mewo_from_text("mewo { elems: a b; lt: a<b; marked: b }"), id="Mewo"),
])
def test_render_refuses_an_unknown_format_for_every_kind(make):
    # an ordinal was returned as its unserialised JSON dict, a set or a mewo raised KeyError
    value = make()
    with pytest.raises(EvalError, match=f"^no xml rendering for {type(value).__name__}$"):
        render(value, "xml")


def test_text_length_of_a_long_ordinal_lists_no_pairs():
    alpha = chain(5_000)
    for fmt in ("text", "json"):
        _, peak = _traced_peak(session_module._text_length, alpha, fmt)
        assert peak < 1 << 20
