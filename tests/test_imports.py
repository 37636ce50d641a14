"""Every name a module of src/hfkit imports is used in that module, every
private module-level function or class is used somewhere in src/hfkit,
the wrong-kind message, the interning lock and the mewo code cache
each stay in their one module, the mewo operations make no universe
of their own, and the only tests that start a process are the ones
`KEPT_SPAWNS` in test_parser_cli.py names.

There is no linter among the dependencies, so these are `ast` passes:
`__init__.py` is left out of the first, since its imports are the public API.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hfkit"
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
    `sources` that no source reads by name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
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


def test_no_unreferenced_private_definition():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_private_definitions(sources) == []


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
    """The places where `source` makes a universe of its own: a call of
    `SetUniverse`, or a public function that gives a parameter `u` a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        called = isinstance(node, ast.Call) and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
        if called == "SetUniverse":
            found.append((node.lineno, "SetUniverse()"))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            params = node.args.posonlyargs + node.args.args
            defaulted = params[len(params) - len(node.args.defaults):]
            defaulted += [p for p, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
            if any(p.arg == "u" for p in defaulted):
                found.append((node.lineno, f"{node.name}(u=...)"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_check_sees_a_universe_made_up():
    source = ("def f(X, u=None):\n    u = u if u is not None else SetUniverse()\n"
              "def g(X, *, u=None): pass\ndef _h(u=None): pass\ndef k(X, u, v=1): hfkit.SetUniverse()\n")
    assert universes_made_up(source) == ["f(u=...) (line 1)", "SetUniverse() (line 2)", "g(u=...) (line 3)",
                                         "SetUniverse() (line 5)"]
    assert universes_made_up("def f(X, u, n=0): return SetUniverse\n") == []


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
