"""Workload `collapse`: interning random DAG presentations, cold and warm.

A presentation has 100k vertices; each has at most 3 children drawn from
the 50 vertices before it, and an extra root vertex has every vertex as a
child, so the whole DAG is collapsed. A pass collapses it into a fresh
universe (cold: every new set is interned), collapses a permuted copy with
duplicated edges into the same universe (warm: every `mk_set` is a lookup),
then runs `rank_nat`, `hereditary_members` and an `export_slice` ->
`import_slice` round trip, into a fresh universe and into the same one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from model import SetTable, expect

VERTICES = 100_000
SMALL_VERTICES = 2_000


@dataclass
class Inputs:
    succ: list[tuple[int, ...]]  # children of each vertex; the root is last
    cold: object  # PointedGraph
    warm: object  # PointedGraph of the same sets, permuted, edges duplicated
    table: SetTable
    vertex_set: list[int]  # model id of the set each vertex presents
    rank: int  # longest membership chain below the root


def setup(hf):
    return None


def build(hf, ctx, seed: int, small: bool, workdir) -> Inputs:
    n = SMALL_VERTICES if small else VERTICES
    rng = random.Random(seed)
    succ: list[tuple[int, ...]] = [()]
    for v in range(1, n):
        lo = max(0, v - 50)
        succ.append(tuple(rng.randrange(lo, v) for _ in range(rng.randint(0, 3))))
    succ.append(tuple(range(n)))

    perm = list(range(n + 1))
    rng.shuffle(perm)
    warm: list[list[int]] = [[] for _ in range(n + 1)]
    for v, children in enumerate(succ):
        kids = [perm[c] for c in children]
        kids += [perm[c] for c in children if rng.random() < 0.5]
        rng.shuffle(kids)
        warm[perm[v]] = kids

    table = SetTable()
    vertex_set: list[int] = []
    for children in succ:
        vertex_set.append(table.add(vertex_set[c] for c in children))
    return Inputs(
        succ=succ,
        cold=hf.PointedGraph(n + 1, tuple(succ), n),
        warm=hf.PointedGraph.make(warm, root=perm[n]),
        table=table,
        vertex_set=vertex_set,
        rank=table.rank(vertex_set[n]),
    )


def run_pass(hf, ctx, inp: Inputs, op) -> None:
    u = hf.SetUniverse()
    root = op("from_graph.cold", u.from_graph, inp.cold)
    sets = len(u)
    handle_ids = partition(u, inp.succ)
    expect(len(u) == sets, "the cold collapse left vertex sets uninterned")
    check_partition(inp, handle_ids, sets)

    warm_root = op("from_graph.warm", u.from_graph, inp.warm)
    expect(warm_root == root, "warm collapse returned another root")
    expect(len(u) == sets, f"warm collapse interned {len(u) - sets} new sets")

    rank = op("rank_nat", u.rank_nat, root)
    expect(rank == inp.rank, f"rank_nat {rank}, longest membership chain {inp.rank}")

    below = op("hereditary_members", u.hereditary_members, root)
    expect(len(below) == sets - 1 and root not in below,
           f"{len(below)} hereditary members of a root over {sets - 1} sets")

    doc = op("export_slice", hf.export_slice, root)
    expect(inp.table.read_doc(doc) == inp.vertex_set[-1], "exported slice denotes another set")
    expect(len(doc["nodes"]) == sets, f"slice of {len(doc['nodes'])} nodes for {sets} sets")

    fresh = hf.SetUniverse()
    again = op("import_slice.cold", hf.import_slice, doc, fresh)
    expect(hf.export_slice(again) == doc, "re-export of the imported slice differs")

    same = op("import_slice.warm", hf.import_slice, doc, u)
    expect(same == root and len(u) == sets, "import into the source universe is not a lookup")


def partition(u, succ) -> list[int]:
    """Handle id of every vertex, interned bottom-up with `mk_set` after the collapse."""
    handles: list = []
    for children in succ:
        handles.append(u.mk_set([handles[c] for c in children]))
    return [h.id for h in handles]


def check_partition(inp: Inputs, handle_ids: list[int], sets: int) -> None:
    """Vertices share a handle exactly when the model collapse gives them one set."""
    expect(len(handle_ids) == len(inp.vertex_set), "partition covers another vertex count")
    by_handle: dict[int, int] = {}
    by_set: dict[int, int] = {}
    for v, (h, s) in enumerate(zip(handle_ids, inp.vertex_set)):
        expect(by_handle.setdefault(h, s) == s, f"vertex {v} shares a handle with another set")
        expect(by_set.setdefault(s, h) == h, f"vertex {v} has another handle than its set")
    expect(len(by_handle) == sets, f"collapse left {sets} sets for {len(by_handle)} classes")
