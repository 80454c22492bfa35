from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cechlab.linalg import (
    IncrementalSpan,
    NoSolution,
    QMatrix,
    cokernel_basis,
    nullspace,
    rank,
    solve,
)
from oracles import FractionSpan

frac = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return QMatrix(
        [[draw(frac) for _ in range(cols)] for _ in range(rows)]
    )


def test_rank_identity():
    assert rank(QMatrix.identity(5)) == 5


def test_solve_simple():
    assert solve(QMatrix([[Fraction(2)]]), [Fraction(1)]) == [Fraction(1, 2)]


def test_solve_inconsistent():
    with pytest.raises(NoSolution):
        solve(QMatrix([[1], [1]]), [Fraction(1), Fraction(2)])


def test_cokernel_example():
    # column span of (1,1,0) inside Q^3: complement {e2, e3}
    m = QMatrix([[1], [1], [0]])
    basis = cokernel_basis(m)
    assert basis == [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(cokernel_basis(m)) == m.nrows
    assert rank(m) + len(nullspace(m)) == m.ncols


@given(matrices())
def test_solve_remultiplies(m):
    import random

    rng = random.Random(11)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(m.ncols)]
    b = m.mul_vec(x)
    y = solve(m, b)
    assert m.mul_vec(y) == b


@given(matrices())
def test_rank_matches_plain_gauss(m):
    # independent oracle: plain fraction Gaussian elimination
    rows = [list(r) for r in m.rows]
    r = 0
    for c in range(m.ncols):
        piv = None
        for i in range(r, m.nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m.nrows):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                for j in range(c, m.ncols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
    assert rank(m) == r


def test_nullspace_kernel_property():
    m = QMatrix([[1, 2, 3], [2, 4, 6]])
    for v in nullspace(m):
        assert m.mul_vec(v) == [Fraction(0)] * m.nrows
    assert len(nullspace(m)) == 2


def test_incremental_span_witness():
    span = IncrementalSpan()
    assert span.insert({"a": Fraction(1), "b": Fraction(1)}, "g1")
    assert span.insert({"b": Fraction(1)}, "g2")
    assert not span.insert({"a": Fraction(2), "b": Fraction(4)}, "g3")
    dec = span.decompose({"a": Fraction(3), "b": Fraction(5)})
    assert dec == {"g1": Fraction(3), "g2": Fraction(2)}
    assert span.decompose({"c": Fraction(1)}) is None
    assert span.dim == 2


coord = st.integers(0, 7)
rational = st.one_of(st.integers(-4, 4), frac)
sparse = st.dictionaries(coord, rational, max_size=5)


def _assert_rows_primitive_with_witness(span, inserted):
    """Each stored row is a primitive integer vector with
    den * row = sum(combo[t] * inserted[t]) and den > 0."""
    for pivot, (row, combo, den) in span._rows.items():
        assert pivot == min(row)
        assert all(type(x) is int and x for x in row.values())
        assert gcd(*row.values()) == 1
        assert type(den) is int and den > 0
        total = {}
        for t, c in combo.items():
            for k, x in inserted[t].items():
                total[k] = total.get(k, Fraction(0)) + c * Fraction(x)
        assert {k: x for k, x in total.items() if x} == {k: den * x for k, x in row.items()}


@given(
    st.lists(
        st.tuples(
            sparse,
            st.integers(0, 9),
            st.lists(st.tuples(st.integers(0, 20), rational), max_size=3),
            sparse,
        ),
        max_size=12,
    )
)
def test_integer_span_matches_fraction_reference(steps):
    """The span takes int and Fraction entries; the reference gets them all
    as Fractions."""

    def as_fractions(vec):
        return {k: Fraction(x) for k, x in vec.items()}

    span, ref = IncrementalSpan(), FractionSpan()
    inserted = {}
    history = []
    for vec, label, mix, noise in steps:
        tag = (label, len(history))  # orderable, distinct, not in insertion order
        assert span.insert(vec, tag) == ref.insert(as_fractions(vec), tag)
        assert span.dim == ref.dim
        inserted[tag] = vec
        history.append(vec)
        _assert_rows_primitive_with_witness(span, inserted)
        member = {}
        for j, c in mix:
            for k, x in history[j % len(history)].items():
                member[k] = member.get(k, Fraction(0)) + c * x
        for query in (member, noise, {**member, **noise}):
            got, want = span.decompose(query), ref.decompose(as_fractions(query))
            assert (got is None) == (want is None)
            if got is not None:
                # equal coefficients, in the same tag order
                assert list(got.items()) == list(want.items())
                assert all(type(c) is Fraction for c in got.values())
