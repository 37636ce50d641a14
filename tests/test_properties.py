"""Property tests: generated sets, matrices, mewos and ordinals against the naive references.

They run under the derandomised profile registered in conftest.py, so every
run draws the same examples.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hfkit import (  # noqa: E402
    ExtensionalityError,
    PointedGraph,
    SetUniverse,
    WellfoundednessError,
    mewo_equal,
    mewo_of_set,
    mewo_of_set_literal,
    ord_from_json,
    ord_from_text,
    ord_to_json,
    ord_to_text,
    set_of_mewo,
    set_of_ordinal,
    validate_mewo,
)
from hfkit.ordinals import FinOrd  # noqa: E402
from hfkit.oracle import _is_extensional  # noqa: E402
from hfkit.suites import mewo_decisions_match_oracle, ordinal_decisions_match_oracle  # noqa: E402
from conftest import rows  # noqa: E402


def _has_cycle(lt) -> bool:
    """Does some element reach itself along lt: Warshall's transitive
    closure on nested lists, the acyclicity reference for validate_mewo."""
    reach = [[bool(v) for v in row] for row in lt]
    for k in range(len(reach)):
        for i in range(len(reach)):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return any(reach[i][i] for i in range(len(reach)))


@st.composite
def dag_graphs(draw, max_vertices: int = 8) -> PointedGraph:
    """A pointed DAG: every vertex points only to lower vertices, the root is the top."""
    n = draw(st.integers(1, max_vertices))
    succ = [draw(st.lists(st.integers(0, v - 1), max_size=3)) if v else [] for v in range(n)]
    return PointedGraph.make(succ, root=n - 1)


@st.composite
def matrices(draw, max_size: int = 4) -> tuple[list[list[bool]], list[bool]]:
    """An arbitrary relation with an arbitrary marking."""
    n = draw(st.integers(0, max_size))
    bits = draw(st.lists(st.booleans(), min_size=n * n + n, max_size=n * n + n))
    return [bits[i * n:(i + 1) * n] for i in range(n)], bits[n * n:]


@st.composite
def mewos(draw, max_size: int = 4):
    """A valid mewo: a relation along a drawn linear order, kept when it is extensional."""
    n = draw(st.integers(0, max_size))
    order = draw(st.permutations(range(n)))
    lt = [[False] * n for _ in range(n)]
    for j in range(n):
        for i in range(j):
            lt[order[i]][order[j]] = draw(st.booleans())
    hypothesis.assume(_is_extensional(lt))
    return validate_mewo(n, lt, draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@st.composite
def ordinals(draw, max_size: int = 5) -> FinOrd:
    """A relabeled ordinal: element x at the drawn position pos[x]."""
    n = draw(st.integers(0, max_size))
    return FinOrd(draw(st.permutations(range(n))))


@settings(max_examples=150)
@given(dag_graphs())
def test_set_and_mewo_round_trip(g):
    u = SetUniverse()
    h = u.from_graph(g)
    X = mewo_of_set(h)
    assert mewo_equal(mewo_of_set_literal(h), X, u)
    assert set_of_mewo(X, u) == h


@settings(max_examples=300)
@given(matrices())
def test_validate_mewo_accepts_exactly_the_mewos(m):
    lt, marked = m
    n = len(marked)
    if _has_cycle(lt):
        with pytest.raises(WellfoundednessError):
            validate_mewo(n, lt, marked)
    elif not _is_extensional(lt):
        with pytest.raises(ExtensionalityError):
            validate_mewo(n, lt, marked)
    else:
        X = validate_mewo(n, lt, marked)
        assert rows(X) == lt and list(X.marks) == marked
        assert X.preds == tuple(tuple(i for i in range(n) if lt[i][x]) for x in range(n))


@settings(max_examples=150)
@given(mewos(), mewos())
def test_decisions_agree_with_the_oracle(X, Y):
    assert mewo_decisions_match_oracle(SetUniverse(), [(X, Y)]) == []


@settings(max_examples=150)
@given(ordinals(), ordinals())
def test_ordinal_decisions_agree_with_the_oracle(alpha, beta):
    assert ordinal_decisions_match_oracle([(alpha, beta)]) == []


@settings(max_examples=100)
@given(ordinals())
def test_ordinal_is_a_numeral_and_round_trips(alpha):
    u = SetUniverse()
    assert set_of_ordinal(alpha, u) == u.von_neumann(alpha.size)
    assert ord_from_text(ord_to_text(alpha)) == alpha
    assert ord_from_json(ord_to_json(alpha)) == alpha
