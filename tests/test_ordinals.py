from __future__ import annotations

import itertools
import re
import tracemalloc

import pytest

from hfkit import (
    ExtensionalityError,
    FormatError,
    TransitivityError,
    ValidationError,
    WellfoundednessError,
    bounded_sim,
    chain,
    down,
    from_ordinal,
    ord_from_json,
    ord_from_text,
    ord_sum,
    ord_to_json,
    ord_to_text,
    order_type,
    same_order_type,
    simulation,
    sup,
    sup_classes,
    validate_ord,
)
from hfkit.ordinals import FinOrd, _clause, down_carrier
from hfkit.suites import nested_segments, ordinal_decisions_match_oracle, sup_segments
from conftest import labeled_ordinals, relabeled, rows


def test_validate_chain_ok():
    alpha = validate_ord(3, rows(chain(3)))
    assert alpha == chain(3) and hash(alpha) == hash(chain(3))
    assert len({alpha, chain(3), FinOrd(reversed(range(3)))}) == 2


def test_an_ordinal_never_equals_a_non_ordinal():
    assert chain(2) != None  # noqa: E711  the operator itself is under test
    assert chain(1) != (0,)
    assert chain(0) != from_ordinal(chain(0))


def test_validate_antichain_extensionality():
    with pytest.raises(ExtensionalityError) as exc:
        validate_ord(2, [[False] * 2] * 2)
    assert exc.value.pair == (0, 1)


def test_validate_cycle():
    with pytest.raises(WellfoundednessError):
        validate_ord(2, [[False, True], [True, False]])


def test_validate_transitivity_witness():
    with pytest.raises(TransitivityError) as exc:
        validate_ord(3, [[False, True, False], [False, False, True], [False] * 3])
    assert exc.value.triple == (0, 1, 2)


def test_validate_shape_mismatch():
    with pytest.raises(ValidationError):
        validate_ord(2, [[False] * 3] * 3)


# A matrix may come as nested lists, as nested tuples, as a list of numpy rows
# or as one numpy array (which cannot be ragged); the numpy forms skip without numpy.
MATRIX_FORMS = {
    "lists": lambda m: [list(r) for r in m],
    "tuples": lambda m: tuple(tuple(r) for r in m),
    "array rows": lambda m: [pytest.importorskip("numpy").array(r, dtype=bool) for r in m],
    "array": lambda m: pytest.importorskip("numpy").array(m, dtype=bool),
}


@pytest.mark.parametrize("form", MATRIX_FORMS)
def test_validate_reads_every_matrix_form(form):
    as_matrix = MATRIX_FORMS[form]
    assert validate_ord(0, as_matrix([])) == chain(0)
    assert validate_ord(2, as_matrix([[False, False], [True, False]])) == FinOrd((1, 0))
    with pytest.raises(ValidationError, match="not a list of 2 entries"):
        validate_ord(2, as_matrix([[False] * 3] * 3))
    if form != "array":
        with pytest.raises(ValidationError, match="row 1 is not a list of 2 entries"):
            validate_ord(2, as_matrix([[False, True], [False]]))


def test_validate_witnesses_on_every_small_matrix():
    # the first failing axiom, and for transitivity the least x, then z, then y;
    # every irreflexive relation on 4 elements
    n = 4
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(slots)):
        lt = [[False] * n for _ in range(n)]
        for k, (i, j) in enumerate(slots):
            lt[i][j] = bool(bits >> k & 1)
        cols = [tuple(row[x] for row in lt) for x in range(n)]
        try:
            alpha = validate_ord(n, lt)
        except WellfoundednessError as exc:
            cyc = exc.cycle
            assert all(lt[a][b] for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            continue
        except ExtensionalityError as exc:
            x, y = exc.pair
            assert x < y and cols[x] == cols[y] and len(set(cols[:y])) == y
            continue
        except TransitivityError as exc:
            gaps = [(x, z) for x in range(n) for z in range(n)
                    if not lt[x][z] and any(lt[x][y] and lt[y][z] for y in range(n))]
            x, z = gaps[0]
            assert exc.triple == (x, next(y for y in range(n) if lt[x][y] and lt[y][z]), z)
            continue
        assert len(set(cols)) == n
        assert all(lt[i][j] == (alpha.pos[i] < alpha.pos[j]) for i in range(n) for j in range(n))


def test_readers_allocate_no_matrix():
    # a 30-byte document for a huge carrier is refused in memory linear in its size
    for read, doc in ((ord_from_json, {"size": 100000, "pairs": []}),
                      (ord_from_text, "ord { size: 100000; lt: }")):
        tracemalloc.start()
        try:
            with pytest.raises(ExtensionalityError):
                read(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_down_of_chain():
    assert down(chain(3), 2) == chain(2)
    assert down(chain(3), 0) == chain(0)


def test_down_index_error():
    with pytest.raises(IndexError):
        down(chain(2), 5)


@pytest.mark.parametrize("segment", [down, down_carrier])
def test_segments_refuse_elements_out_of_range(segment):
    # -1 would read the last position, and the size one past it
    for alpha in (FinOrd((2, 0, 1)), chain(0), chain(1)):
        for a in (-1, alpha.size):
            with pytest.raises(IndexError, match=f"element {a} out of range for size {alpha.size}"):
                segment(alpha, a)


def test_down_down_simplifies():
    # nested segments collapse to the inner one, tested on every labeling
    assert nested_segments(labeled_ordinals(7, all_perms_upto=4, samples=3)) == []


def test_down_example_instance():
    alpha = chain(3)
    seg = down(alpha, 2)
    pos = down_carrier(alpha, 2).index(1)
    assert down(seg, pos) == down(alpha, 1)


def test_simulation_examples():
    w = simulation(chain(2), chain(3))
    assert w is not None and w.mapping == (0, 1)
    assert simulation(chain(3), chain(2)) is None
    w = simulation(chain(4), chain(4))
    assert w is not None and w.mapping == (0, 1, 2, 3)


def test_simulation_matches_oracle_and_fast_path():
    pool = labeled_ordinals(5, all_perms_upto=3, samples=4)
    assert ordinal_decisions_match_oracle(itertools.product(pool, repeat=2)) == []


def test_bounded_sim_examples():
    w = bounded_sim(chain(2), chain(3))
    assert w is not None and w.bound == 2
    assert bounded_sim(chain(3), chain(3)) is None
    w = bounded_sim(chain(0), chain(1))
    assert w is not None and w.bound == 0 and w.iso == ()


def test_bounded_sim_brute_force():
    # directly check alpha is isomorphic to the segment below the bound
    for i in range(5):
        for j in range(5):
            alpha, beta = chain(i), chain(j)
            w = bounded_sim(alpha, beta)
            candidates = [
                b for b in range(j) if same_order_type(down(beta, b), alpha)
            ]
            if w is None:
                assert not candidates
            else:
                assert candidates == [w.bound]
                assert down(beta, w.bound) == relabeled(beta, sorted(w.iso))  # the image of alpha under iso


def test_sum_examples():
    alpha = chain(3)
    assert ord_sum(alpha, chain(0)) == alpha
    assert ord_sum(chain(1), chain(1)) == chain(2)
    assert order_type(ord_sum(chain(2), chain(3))) == 5


def test_sum_segment_laws():
    for i in range(4):
        for j in range(4):
            s = ord_sum(chain(i), chain(j))
            for a in range(i):
                assert down(s, a) == down(chain(i), a)
        t = ord_sum(chain(i), chain(1))
        assert down(t, i) == chain(i)


def test_sup_examples():
    assert sup([]) == chain(0)
    assert sup([chain(2), chain(3), chain(1)]) == chain(3)
    assert same_order_type(sup([chain(4)]), chain(4))


def test_sup_classes_representatives():
    classes = sup_classes([chain(2), chain(3)])
    assert classes[0][0] == (0, 0)
    assert [len(c) for c in classes] == [2, 2, 1]


def test_sup_segment_at_a_class_is_the_member_segment():
    fam = [chain(2), chain(4), chain(3)]
    s = sup(fam)
    classes = sup_classes(fam)
    for pos, cls in enumerate(classes):
        for (j, x) in cls:
            assert same_order_type(down(s, pos), down(fam[j], x))


def test_sup_segments_come_from_components():
    fams = [list(map(chain, sizes)) for k in (1, 2, 3) for sizes in itertools.product(range(5), repeat=k)]
    assert sup_segments(fams) == []


def test_order_type():
    assert order_type(chain(0)) == 0
    assert order_type(chain(6)) == 6
    for m in range(4):
        for n in range(4):
            s = ord_sum(chain(m), chain(n))
            assert order_type(s) == m + n == s.size


def test_prop9_three_characterizations():
    pool = [chain(k) for k in range(6)]
    for alpha in pool:
        for beta in pool:
            has_sim = simulation(alpha, beta) is not None
            seg_match = all(
                any(
                    same_order_type(down(alpha, a), down(beta, b))
                    for b in range(beta.size)
                )
                for a in range(alpha.size)
            )
            lower_closed = all(
                (bounded_sim(gamma, beta) is not None)
                for gamma in pool
                if bounded_sim(gamma, alpha) is not None
            )
            assert has_sim == seg_match == lower_closed


def test_iso_is_bijective_preserving_reflecting():
    alpha = relabeled(chain(4), [2, 0, 3, 1])
    beta = chain(4)
    w1 = simulation(alpha, beta)
    w2 = simulation(beta, alpha)
    assert w1 is not None and w2 is not None
    # composition is the identity, so each map is bijective
    assert tuple(w2.mapping[y] for y in w1.mapping) == tuple(range(4))
    for a in range(4):
        for b in range(4):
            assert (alpha.pos[a] < alpha.pos[b]) == (beta.pos[w1.mapping[a]] < beta.pos[w1.mapping[b]])


def test_antisymmetry_up_to_canonical_form():
    alpha = relabeled(chain(5), [4, 2, 0, 1, 3])
    beta = relabeled(chain(5), [1, 0, 4, 3, 2])
    assert simulation(alpha, beta) is not None
    assert simulation(beta, alpha) is not None
    assert same_order_type(alpha, beta)
    assert relabeled(alpha, alpha.in_order()) == relabeled(beta, beta.in_order()) == chain(5)


def test_trichotomy_of_validated_instances():
    for alpha in labeled_ordinals(6, all_perms_upto=4, samples=4, seed=9):
        lt = rows(alpha)
        for a in range(alpha.size):
            for b in range(alpha.size):
                if a != b:
                    assert lt[a][b] != lt[b][a]


def test_text_roundtrip():
    for alpha in (chain(0), chain(3), relabeled(chain(4), [3, 1, 0, 2])):
        assert ord_from_text(ord_to_text(alpha)) == alpha
    assert ord_to_text(chain(2)) == "ord { size: 2; lt: 0<1 }"


def test_json_roundtrip():
    for alpha in (chain(0), chain(5), relabeled(chain(3), [2, 0, 1])):
        assert ord_from_json(ord_to_json(alpha)) == alpha
    doc = ord_to_json(chain(3))
    assert doc["pairs"] == sorted(doc["pairs"])


def test_writers_read_positions_not_the_matrix(monkeypatch):
    for alpha in labeled_ordinals(5):  # the pairs as the matrix lists them
        pairs = [(i, j) for i, row in enumerate(rows(alpha)) for j, less in enumerate(row) if less]
        listed = ", ".join(f"{i}<{j}" for i, j in pairs)
        assert ord_to_text(alpha) == f"ord {{ size: {alpha.size}; {_clause('lt', listed)} }}"
        assert ord_to_json(alpha) == {"size": alpha.size, "pairs": [list(p) for p in pairs]}

    def no_matrix(self):
        raise AssertionError("the n x n matrix was built")

    monkeypatch.setattr(FinOrd, "lt", property(no_matrix))
    for n in (3000, 600):  # 600: the writers list n(n-1)/2 pairs, 4.5M at 3000
        for alpha in (chain(n), FinOrd(reversed(range(n)))):
            assert repr(alpha) == f"FinOrd(pos={alpha.pos})"
            if n == 600:
                text, doc = ord_to_text(alpha), ord_to_json(alpha)
                assert text.count("<") == len(doc["pairs"]) == n * (n - 1) // 2
                assert ord_from_json(doc) == alpha


def test_text_rejects_garbage():
    with pytest.raises(ValueError):
        ord_from_text("nonsense { }")
    with pytest.raises(ValueError):
        ord_from_text("ord { weird: 3 }")


def test_text_reader_wants_the_exact_header():
    assert ord_from_text("ord{size:1}") == chain(1)
    assert ord_from_text("  ord  { size: 2; lt: 0<1 }  ") == chain(2)
    for text in ("ordinal { size: 1 }", "ordx { size: 1 }", "ord size: 1 }", "ord }"):
        with pytest.raises(ValueError, match="expected"):
            ord_from_text(text)


def test_text_reader_accepts_repeated_clauses():
    # the last size clause wins, lt clauses accumulate
    assert ord_from_text("ord { size: 5; size: 3; lt: 0<1; lt: 0<2, 1<2 }") == chain(3)
    with pytest.raises(ValueError, match="missing size clause"):
        ord_from_text("ord { lt: }")


def test_json_rejects_out_of_range_pairs():
    for pair in ([0, -1], [0, 5], [-2, 1], [2, 0]):
        with pytest.raises(ValidationError, match=re.escape(str(pair))):
            ord_from_json({"size": 2, "pairs": [pair]})


@pytest.mark.parametrize("doc", [
    {"size": 2},
    {"size": 2, "pairs": [[0]]},
    [1],
    {"size": -1, "pairs": []},
    {"size": 2, "pairs": [[0, True]]},
], ids=["no-pairs", "short-pair", "not-an-object", "negative-size", "bool-index"])
def test_json_rejects_malformed_documents(doc):
    with pytest.raises(FormatError):
        ord_from_json(doc)


def test_lt_is_derived_from_positions():
    pytest.importorskip("numpy")
    for alpha in labeled_ordinals(5, all_perms_upto=3, samples=2):
        assert not alpha.lt.flags.writeable
        assert validate_ord(alpha.size, alpha.lt) == alpha
        for a in range(alpha.size):
            for b in range(alpha.size):
                assert bool(alpha.lt[a, b]) == (alpha.pos[a] < alpha.pos[b])

