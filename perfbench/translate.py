"""Workload `translate`: the translations between sets, ordinals and mewos.

A ladder of sizes for `set_of_ordinal(chain(n))`, `rank_ordinal`,
`elements_ordinal`, `rank_quotient`, `mewo_of_set`, `mewo_of_set_literal`
and `set_of_mewo`, on von Neumann numerals and on seeded random sets. The
sizes are those at which the exponential `set_of_ordinal` and the ~n^4
`rank_ordinal` still finish a pass in about a second.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from model import SetTable, expect, is_strict_linear

# Sizes of a pass; SMALL is the reduced run of the tests and `--small`.
FULL = dict(
    SET_OF_ORDINAL=(6, 8, 10, 11, 12, 13),
    RANK_ORDINAL=(8, 16, 24, 32, 40, 48),
    ELEMENTS_ORDINAL=(16, 32, 48),
    RANK_QUOTIENT=(16, 32),
    MEWO_OF_SET=(16, 32, 64),
    MEWO_OF_SET_RANDOM=4,  # of the random sets, the first ones also go through mewo_of_set
    MEWO_OF_SET_LITERAL=(8, 16, 24, 32),
    RANDOM_SETS=12,
)
SMALL = dict(SET_OF_ORDINAL=(4, 6), RANK_ORDINAL=(4, 8), ELEMENTS_ORDINAL=(8,), RANK_QUOTIENT=(8,),
             MEWO_OF_SET=(8,), MEWO_OF_SET_RANDOM=1, MEWO_OF_SET_LITERAL=(4,), RANDOM_SETS=2)
LAYERS = (1, 1, 2, 4, 4, 4, 4, 4)  # members of each rank in a random set


@dataclass
class Inputs:
    table: SetTable
    numerals: list[int]  # model ids of 0..max
    sizes: dict
    random_docs: list[dict]  # slice documents of the random sets
    random_sets: list[int]
    presentations: dict[int, list[int]]  # n -> member positions of numeral n, redundant


def setup(hf):
    return None


def build(hf, ctx, seed: int, small: bool, workdir) -> Inputs:
    sizes = SMALL if small else FULL
    rng = random.Random(seed)
    table = SetTable()
    top = max(n for ns in sizes.values() if isinstance(ns, tuple) for n in ns)
    numerals = table.von_neumann(top)

    random_sets = [random_set(rng, table) for _ in range(sizes["RANDOM_SETS"])]
    presentations = {}
    for n in sizes["RANK_QUOTIENT"]:
        positions = list(range(n)) + [rng.randrange(n) for _ in range(n // 2)]
        rng.shuffle(positions)
        presentations[n] = positions
    return Inputs(table, numerals, sizes, [table.to_doc(s) for s in random_sets],
                  random_sets, presentations)


def random_set(rng: random.Random, table: SetTable) -> int:
    """A random set of rank len(LAYERS) with exactly sum(LAYERS) hereditary members.

    The members of rank r are LAYERS[r] distinct sets, each holding one set
    of rank r - 1 and up to two more of lower rank. The set itself holds the
    members that no other member contains.
    """
    layers: list[list[int]] = []
    for r, width in enumerate(LAYERS):
        layer: list[int] = []
        while len(layer) < width:
            if r == 0:
                s = table.add(())
            else:
                lower = [x for layer_ in layers for x in layer_]
                s = table.add([rng.choice(layers[r - 1])]
                              + rng.sample(lower, min(rng.randint(0, 2), len(lower))))
            if s not in layer:
                layer.append(s)
        layers.append(layer)
    made = [x for layer in layers for x in layer]
    inner = set().union(*(table.members[x] for x in made))
    return table.add(x for x in made if x not in inner)


def load(hf, inp: Inputs):
    """A fresh universe holding the numerals and the random sets."""
    u = hf.SetUniverse()
    u.von_neumann(len(inp.numerals) - 1)
    return u, [hf.import_slice(doc, u) for doc in inp.random_docs]


def run_pass(hf, ctx, inp: Inputs, op) -> None:
    table, sizes = inp.table, inp.sizes
    u, randoms = op("load", load, hf, inp)
    numeral = {n: u.von_neumann(n) for n in range(len(inp.numerals))}
    for n, h in numeral.items():
        check_numeral(hf, table, inp.numerals[n], h)
    for h, s in zip(randoms, inp.random_sets):
        expect(table.read_doc(hf.export_slice(h)) == s, "random set imported as another set")

    for n in sizes["SET_OF_ORDINAL"]:
        h = op("set_of_ordinal", lambda: hf.set_of_ordinal(hf.chain(n), u))
        check_numeral(hf, table, inp.numerals[n], h)

    subjects = [(numeral[n], n) for n in sizes["RANK_ORDINAL"]]
    subjects += [(h, table.rank(s)) for h, s in zip(randoms, inp.random_sets)]
    for h, rank in subjects:
        alpha = op("rank_ordinal", hf.rank_ordinal, h)
        check_chain(alpha, rank)

    for n in sizes["ELEMENTS_ORDINAL"]:
        check_chain(op("elements_ordinal", hf.elements_ordinal, numeral[n]), n)

    for n in sizes["RANK_QUOTIENT"]:
        members = u.elements(numeral[n])
        positions = inp.presentations[n]
        q = op("rank_quotient", hf.rank_quotient, numeral[n], [members[p] for p in positions])
        check_chain(q.ordinal, n)
        groups: dict[int, list[int]] = {}
        for idx, p in enumerate(positions):
            groups.setdefault(p, []).append(idx)
        expect(sorted(map(list, q.classes)) == sorted(groups.values()),
               f"rank_quotient of numeral {n} groups the presentation wrongly")

    subjects = [(numeral[n], inp.numerals[n]) for n in sizes["MEWO_OF_SET"]]
    subjects += list(zip(randoms, inp.random_sets))[:sizes["MEWO_OF_SET_RANDOM"]]
    for h, s in subjects:
        X = op("mewo_of_set", hf.mewo_of_set, h)
        check_mewo(table, X, s, "mewo_of_set")
        back = op("set_of_mewo", hf.set_of_mewo, X, u)
        expect(back == h, "set_of_mewo(mewo_of_set(h)) is not h")

    subjects = [(numeral[n], inp.numerals[n]) for n in sizes["MEWO_OF_SET_LITERAL"]]
    subjects += list(zip(randoms, inp.random_sets))
    for h, s in subjects:
        check_mewo(table, op("mewo_of_set_literal", hf.mewo_of_set_literal, h), s,
                   "mewo_of_set_literal")


def check_numeral(hf, table: SetTable, expected: int, h) -> None:
    """The set h, read through export_slice, is the benchmark's own numeral."""
    got = table.read_doc(hf.export_slice(h))
    expect(got == expected, f"expected the numeral {table.rank(expected)}, got another set")


def check_chain(alpha, n: int) -> None:
    """alpha is a strict linear order on n elements."""
    expect(alpha.size == n, f"ordinal of size {alpha.size}, expected rank {n}")
    expect(is_strict_linear(alpha.lt.tolist()), "ordinal relation is not a strict linear order")


def check_mewo(table: SetTable, X, expected: int, what: str) -> None:
    """The covered mewo X presents the expected set."""
    got = table.read_mewo(X.size, X.lt.tolist(), X.marked.tolist())
    expect(got == expected, f"{what} presents another set")
