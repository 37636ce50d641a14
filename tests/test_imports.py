"""Every name a module of src/hfkit imports is used in that module, every
private module-level function or class is used somewhere in src/hfkit,
the wrong-kind message, the interning lock and the mewo code cache
each stay in their one module, the mewo operations make no universe
of their own, the only tests that start a process are the ones
`KEPT_SPAWNS` in test_parser_cli.py names, the package exports the
names it always has, each its defining layer's object, every law of
hfkit.suites runs in `hfkit check` and in the acceptance tests, only
test_oracle.py calls an oracle that a law compares a fast decision with,
no module of src/hfkit holds an `assert`, which `python -O` strips, and
no test or demo needs numpy unless it skips without it.

There is no linter among the dependencies, so these are `ast` passes:
`__init__.py` is left out of the first, since its imports are the public API.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

import hfkit
import hfkit.suites

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hfkit"
DEMOS = TESTS.parent / "demos"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that nothing else in it reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_are_found():
    assert len(MODULES) > 5


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom .errors import A, B\nB\n") == ["os (line 1)", "A (line 2)"]
    assert unused_imports("import a.b as c\nfrom x import y as z\nc.d(z)\n") == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """The private functions and classes defined at the top level of one of
    `sources` that no source reads by name or as an attribute. A `__dunder__`
    name is not private: the interpreter calls it by protocol."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return [name for name in defined if name not in read]


def test_the_check_sees_an_unreferenced_private_definition():
    sources = ["def _a(): pass\ndef _b(): pass\nclass _C: pass\n_b()\n", "from m import _C\nx = m._C\n"]
    assert unreferenced_private_definitions(sources) == ["_a"]
    assert unreferenced_private_definitions(["def __getattr__(name): pass\ndef _a(): pass\n"]) == ["_a"]


def test_no_unreferenced_private_definition():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_definitions(sources) == []


def assert_lines(source: str) -> list[int]:
    """The lines of the `assert` statements in `source`."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_the_check_sees_an_assert():
    assert assert_lines("x = 1\nassert x, 'm'\nif x:\n    assert not 0\ny = 'assert x'\n") == [2, 4]


def test_no_assert_in_the_library():
    found = {path.name: assert_lines(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# Only errors._checked words a wrong-kind refusal, only SetUniverse takes its
# interning lock, and only mewos lays out the codes a Mewo keeps.
OWNERS = {"expected a": "errors.py", "_lock": "universe.py", "_intern_ids": "universe.py", "_collapsed": "mewos.py"}


def borrowed_internals(name: str, source: str) -> list[str]:
    """The places where `source`, the module file `name`, builds a message
    starting `expected a` or reads another attribute named in OWNERS, unless
    it is the module that owns it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("expected a"):
            what = "expected a"
        elif isinstance(node, ast.Attribute) and node.attr in OWNERS:
            what = node.attr
        else:
            continue
        if OWNERS[what] != name:
            found.append((node.lineno, what))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_check_sees_a_borrowed_internal():
    source = 'def f(x):\n    raise E(f"expected a Mewo, got {x}")\nwith u._lock:\n    u._intern_ids(())\n'
    assert borrowed_internals("mewos.py", source) == ["expected a (line 2)", "_lock (line 3)", "_intern_ids (line 4)"]
    assert borrowed_internals("universe.py", source) == ["expected a (line 2)"]
    assert borrowed_internals("errors.py", source) == ["_lock (line 3)", "_intern_ids (line 4)"]
    assert borrowed_internals("oracle.py", 'raise E("expected two Mewos")\n') == []
    assert borrowed_internals("correspondence.py", "X._collapsed[1]\n") == ["_collapsed (line 1)"]
    assert borrowed_internals("mewos.py", "X._collapsed[1]\n") == []


@pytest.mark.parametrize("module", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_borrowed_internal(module):
    assert borrowed_internals(module.name, module.read_text(encoding="utf-8")) == []


def universes_made_up(source: str) -> list[str]:
    """The places where `source` makes or fetches a universe of its own: a
    call of `SetUniverse`, a call of a subscript (a universe read back
    through a code record's weakref, `record[0]()`), or a public function
    that gives a parameter `u` a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        called = isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        if called == "SetUniverse":
            found.append((node.lineno, "SetUniverse()"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Subscript):
            found.append((node.lineno, f"{ast.unparse(node.func)}()"))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            params = node.args.posonlyargs + node.args.args
            defaulted = params[len(params) - len(node.args.defaults):]
            defaulted += [p for p, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            if any(p.arg == "u" for p in defaulted):
                found.append((node.lineno, f"{node.name}(u=...)"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_check_sees_a_universe_made_up():
    source = ("def f(X, u=None):\n    u = u if u is not None else SetUniverse()\n"
              "def g(X, *, u=None): pass\ndef _h(u=None): pass\ndef k(X, u, v=1): hfkit.SetUniverse()\n"
              "def _s(X):\n    if (record := X._collapsed) and (u := record[0]()) is not None: pass\n")
    assert universes_made_up(source) == ["f(u=...) (line 1)", "SetUniverse() (line 2)", "g(u=...) (line 3)",
                                         "SetUniverse() (line 5)", "record[0]() (line 7)"]
    assert universes_made_up("def f(X, u, n=0): return SetUniverse, X._collapsed[0], u._ref()\n") == []


def test_the_mewo_operations_take_their_callers_universe():
    assert universes_made_up((SRC / "mewos.py").read_text(encoding="utf-8")) == []


SPAWNING = {"run", "Popen", "call", "check_call", "check_output"}  # the calls of `subprocess` that start a process


def called_name(call: ast.Call) -> str | None:
    """The name of the function `call` calls, "subprocess" for one of SPAWNING."""
    func = call.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "subprocess":
        return "subprocess" if func.attr in SPAWNING else None
    return getattr(func, "id", None)


def spawning_tests(source: str) -> list[str]:
    """The test functions of `source` that start a process: each calls one
    of SPAWNING, or a function of `source` that does."""
    functions = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    calls = {f.name: {called_name(c) for c in ast.walk(f) if isinstance(c, ast.Call)} for f in functions}
    spawners = {"subprocess"}
    while True:
        grown = spawners | {name for name, called in calls.items() if called & spawners}
        if grown == spawners:
            return sorted(name for name in spawners if name.startswith("test_"))
        spawners = grown


def test_the_check_sees_a_spawn():
    source = ("def spawn(*args):\n    return subprocess.run(args)\ndef via(*args):\n    return spawn(*args)\n"
              "def test_a():\n    subprocess.check_output(['x'])\ndef test_b():\n    via('x')\n"
              "def test_c():\n    return subprocess.CompletedProcess([], 0)\ndef test_d():\n    run(['x'])\n")
    assert spawning_tests(source) == ["test_a", "test_b"]


def test_every_spawn_is_kept_for_its_process():
    tree = ast.parse((TESTS / "test_parser_cli.py").read_text(encoding="utf-8"))
    kept = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "KEPT_SPAWNS")
    found = [name for path in sorted(TESTS.glob("*.py")) for name in spawning_tests(path.read_text(encoding="utf-8"))]
    assert sorted(found) == sorted(kept)


# The brute-force references that a test compares a fast decision with
# only through a law of hfkit.suites; test_oracle.py tests them themselves.
ORACLES = {"enum_simulations", "enum_bounded_sims", "equal_by_permutation", "partial_sim_by_segments"}


def oracle_calls(source: str) -> list[str]:
    """The places where `source` calls one of ORACLES, by name or as an attribute."""
    return [f"{name} (line {node.lineno})" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
            for name in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)] if name in ORACLES]


def test_the_check_sees_an_oracle_call():
    source = ("maps = enum_simulations(X, Y)\nhfkit.oracle.partial_sim_by_segments(X, Y)\n"
              "same = equal_by_permutation\nrun('hfkit.enum_bounded_sims(X, Y)')\n")
    assert oracle_calls(source) == ["enum_simulations (line 1)", "partial_sim_by_segments (line 2)"]


@pytest.mark.parametrize("module", sorted(p for p in TESTS.glob("*.py") if p.name != "test_oracle.py"),
                         ids=lambda p: p.name)
def test_only_the_oracle_tests_call_an_oracle(module):
    assert oracle_calls(module.read_text(encoding="utf-8")) == []


# The public names `hfkit` exports, whether bound at import or on first read.
EXPORTS = {
    "BoundedSimWitness", "CyclicError", "EvalError", "ExtensionalityError", "FinOrd", "ForeignHandleError",
    "FormatError", "GenConfig", "HfkitError", "LimitExceededError", "Mewo", "MewoSimWitness",
    "NotAnOrdinalError", "ParseError", "PointedGraph", "QuotientRank", "Session", "SetHandle", "SetUniverse",
    "SimWitness", "SizeLimitError", "TransitivityError", "ValidationError", "WellfoundednessError", "bisimilar",
    "bounded_sim", "bounded_sim_mewo", "canon", "chain", "codes", "covered_part", "down", "down_plus",
    "elements_ordinal", "enum_bounded_sims", "enum_simulations", "enumerate_mewos", "enumerate_v",
    "equal_by_permutation", "export_slice", "format_expr", "from_ordinal", "gen_random_mewo", "gen_random_set",
    "import_slice", "is_covered", "is_hereditarily_transitive", "is_simulation", "mark_all", "mem_raw",
    "mewo_equal", "mewo_from_json", "mewo_from_text", "mewo_of_set", "mewo_of_set_literal", "mewo_to_dot",
    "mewo_to_json", "mewo_to_text", "ord_from_json", "ord_from_text", "ord_sum", "ord_to_json", "ord_to_text",
    "order_type", "parse", "parse_program", "partial_sim", "partial_sim_by_segments", "principality_check",
    "rank_ordinal", "rank_quotient", "render", "run_suite", "same_order_type", "set_of_mewo", "set_of_ordinal",
    "set_to_dot", "simulation", "simulation_mewo", "singleton", "sup", "sup_classes", "union", "validate_mewo",
    "validate_ord",
}
LAYERS = {"errors", "universe", "ordinals", "mewos", "correspondence", "oracle", "parser", "session", "suites"}


def test_the_package_exports_each_name_from_its_layer():
    assert len(EXPORTS) == 85
    for name in sorted(EXPORTS - {"MewoSimWitness"}):
        obj = getattr(hfkit, name)
        assert obj.__module__.removeprefix("hfkit.") in LAYERS and getattr(sys.modules[obj.__module__], name) is obj
    assert hfkit.chain is hfkit.ordinals.chain and hfkit.MewoSimWitness is hfkit.SimWitness
    assert all(getattr(hfkit, layer) is sys.modules[f"hfkit.{layer}"] for layer in LAYERS)
    listed = set(dir(hfkit))
    assert EXPORTS | LAYERS <= listed
    assert {name for name in listed if not name.startswith("_")
            and not isinstance(getattr(hfkit, name), types.ModuleType)} == EXPORTS
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hfkit.no_such_name


def test_every_suite_law_runs_in_check_and_in_the_acceptance_tests(monkeypatch):
    # a law is a public function of hfkit.suites that returns a list of failures
    laws = sorted(name for name, f in vars(hfkit.suites).items() if isinstance(f, types.FunctionType)
                  and f.__module__ == "hfkit.suites" and not name.startswith("_")
                  and f.__annotations__.get("return") == "list")
    assert "mewo_transport" in laws
    reached = set()
    for name in laws:
        law = getattr(hfkit.suites, name)
        monkeypatch.setattr(hfkit.suites, name, lambda *args, name=name, law=law: reached.add(name) or law(*args))
    hfkit.suites.run_suite("all")
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    called = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert [name for name in laws if name not in reached] == []
    assert [name for name in laws if name not in called] == []


# numpy is installed only with the `test` extra: the tests and demos read a
# structure through `pos`, `preds` and `marks`, and only a test that first
# calls `pytest.importorskip("numpy")` reads one of the views.
VIEWS = {"lt", "marked"}


def numpy_needs(source: str) -> list[str]:
    """The places where `source` imports numpy, or reads `.lt` or `.marked`
    other than in a top-level function, after its first
    `pytest.importorskip("numpy")`."""
    found = []
    for top in ast.parse(source).body:
        nodes = list(ast.walk(top))
        skips = [node.lineno for node in nodes if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "importorskip"
                 and [getattr(a, "value", None) for a in node.args] == ["numpy"]]
        skipped_from = min(skips) if isinstance(top, ast.FunctionDef) and skips else float("inf")
        for node in nodes:
            if isinstance(node, ast.Import):
                found += [(node.lineno, "import numpy") for a in node.names if a.name.partition(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "numpy":
                found.append((node.lineno, "from numpy"))
            elif (isinstance(node, ast.Attribute) and node.attr in VIEWS and isinstance(node.ctx, ast.Load)
                  and node.lineno <= skipped_from):
                found.append((node.lineno, f".{node.attr}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_check_sees_a_need_for_numpy():
    source = ("import numpy as np\nfrom numpy.linalg import inv\nimport os.path\n"
              "def test_a(X):\n    return X.lt\n"
              "def test_b(X):\n    m = X.marked\n    pytest.importorskip('numpy')\n    return X.lt, X.marked\n"
              "def test_c(X):\n    pytest.importorskip('hypothesis')\n    return X.lt\n"
              "@pytest.mark.parametrize('v', [lambda X: X.lt])\ndef test_d(v):\n    pytest.importorskip('numpy')\n"
              "def test_e(X, monkeypatch):\n    monkeypatch.setattr(type(X), 'lt', None)\n    X.lts = X.marks\n")
    assert numpy_needs(source) == ["import numpy (line 1)", "from numpy (line 2)", ".lt (line 5)",
                                   ".marked (line 7)", ".lt (line 12)", ".lt (line 13)"]
    assert numpy_needs("def test_a(X):\n    np = pytest.importorskip('numpy')\n    np.array(X.lt)\n") == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")) + sorted(DEMOS.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_tests_and_demos_run_without_numpy(path):
    assert numpy_needs(path.read_text(encoding="utf-8")) == []
