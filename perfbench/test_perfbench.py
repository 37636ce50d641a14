"""Tests of the benchmark itself: its checkers catch wrong results, and
reduced-size runs of every workload pass their checks.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import collapse  # noqa: E402
import decide  # noqa: E402
import run  # noqa: E402
import script  # noqa: E402
import translate  # noqa: E402
from layers import per_layer_names  # noqa: E402
from model import CheckFailed, SetTable  # noqa: E402

hf = run.import_hfkit(ROOT / "src")


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


# -- each checker rejects a corrupted result -------------------------------------


def test_collapse_rejects_wrong_partition(workdir):
    inp = collapse.build(hf, None, 3, True, workdir)
    u = hf.SetUniverse()
    u.from_graph(inp.cold)
    sets = len(u)
    ids = collapse.partition(u, inp.succ)
    collapse.check_partition(inp, ids, sets)
    # move one vertex into the class of a vertex that presents another set
    v = next(v for v in range(1, len(ids)) if inp.vertex_set[v] != inp.vertex_set[0])
    wrong = list(ids)
    wrong[v] = ids[0]
    with pytest.raises(CheckFailed):
        collapse.check_partition(inp, wrong, sets)


def test_translate_rejects_wrong_numeral():
    table = SetTable()
    numerals = table.von_neumann(6)
    u = hf.SetUniverse()
    translate.check_numeral(hf, table, numerals[6], hf.set_of_ordinal(hf.chain(6), u))
    with pytest.raises(CheckFailed):
        translate.check_numeral(hf, table, numerals[6], hf.set_of_ordinal(hf.chain(5), u))
    with pytest.raises(CheckFailed):
        translate.check_chain(hf.rank_ordinal(u.von_neumann(5)), 6)


def _pool_pair_with_simulation():
    pool = [X for size in range(4) for X in hf.enumerate_mewos(size)]
    table = SetTable()
    shapes = [decide.shape_of(table, X) for X in pool]
    u = hf.SetUniverse()
    for i, X in enumerate(pool):
        for j, Y in enumerate(pool):
            w = hf.simulation_mewo(X, Y, u)
            b = hf.bounded_sim_mewo(X, Y, u)
            if w is not None and b is not None and X.size >= 2 and Y.size > X.size:
                return shapes[i], shapes[j], w.mapping, b
    raise AssertionError("no pair with both witnesses in the pool")


def test_decide_rejects_witness_with_one_entry_changed():
    X, Y, f, (bound, iso) = _pool_pair_with_simulation()
    decide.check_simulation(X, Y, f)
    decide.check_bounded(X, Y, bound, iso)
    for k in range(len(f)):
        for y in range(Y.size):
            if y != f[k]:
                with pytest.raises(CheckFailed):
                    decide.check_simulation(X, Y, f[:k] + (y,) + f[k + 1:])
                break
    changed = (iso[1],) + iso[1:]
    with pytest.raises(CheckFailed):
        decide.check_bounded(X, Y, bound, changed)


def test_decide_rejects_wrong_answer():
    X, Y, f, (bound, iso) = _pool_pair_with_simulation()
    expected = decide.expected_pair(X, Y, False)
    got = (hf.MewoSimWitness(f), (bound, iso), False, expected[3])
    decide.check_pair(X, Y, expected, got)
    with pytest.raises(CheckFailed):
        decide.check_pair(X, Y, expected, (None,) + got[1:])
    with pytest.raises(CheckFailed):
        decide.check_pair(X, Y, expected, got[:2] + (True,) + got[3:])


def test_script_rejects_wrong_canon():
    table = SetTable()
    a = table.add([table.von_neumann(2)[2], table.add(())])
    text = "let a = {2, {}}\ncanon a\nrank a\n"
    prog = script.Program(text, "inline", True, [("line", table.canon(a)), ("line", str(table.rank(a)))])
    rc, out, err = script.cli(script.setup(hf), ["repl"], text)
    script.check_program(table, prog, (rc, out, err))
    canon, rank = out.splitlines()
    wrong = canon.replace("{{}}", "{{{}}}", 1)
    assert wrong != canon
    with pytest.raises(CheckFailed):
        script.check_program(table, prog, (rc, f"{wrong}\n{rank}\n", err))


def test_script_rejects_a_silently_accepted_undeclared_name(workdir):
    doc = script.MewoDoc("undeclared.json", "text", None, None)
    script.check_mewo_output(doc, (1, "", "error: undeclared element c\n"))
    with pytest.raises(CheckFailed):
        script.check_mewo_output(doc, (0, "mewo { elems: a b; lt:; marked: b }\n", ""))


# -- reduced-size runs -----------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_run_passes_its_checks(name, seed):
    rec = run.run_workload(name, seed, 0, False, small=True, root=ROOT, setup_probes=False)
    assert rec["attempted"] > 0
    expected_failures = len(script.UNDECLARED) if name == "script" else 0
    assert rec["failed"] == expected_failures * len(rec["passes"])
    scaled, raw = run.end_to_end(rec)
    assert scaled["ops_per_s"] > 0 and scaled["op_p50_ms"] > 0


def test_traced_runs_repeat_their_counts():
    counts = []
    for _ in range(2):
        rec = run.run_workload("translate", 4, 0, True, small=True, root=ROOT, setup_probes=False)
        layers = run.per_layer(rec)
        assert set(layers) == {name for name, _, _ in per_layer_names()}
        counts.append({k: v for k, v in layers.items() if k.endswith(".calls") or k.startswith(
            ("universe.sets_interned", "universe.mk_set.redundant"))})
    assert counts[0] == counts[1]
    assert counts[0]["correspondence.set_of_ordinal.calls"] > 0
    assert counts[0]["universe.mk_set.calls"] > counts[0]["universe.sets_interned"]


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "collapse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_command_line_prints_the_result_last(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "script",
                           "--seed", "2", "--seconds", "0", "--trace", "0", "--small"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
