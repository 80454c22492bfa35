from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from cechlab.linalg import (
    IncrementalSpan,
    NoSolution,
    cokernel_basis,
    nullspace,
    rank,
    solve,
)
from oracles import FractionSpan, plain_rank

frac = st.fractions(min_value=-6, max_value=6, max_denominator=5)
# small entries make dependent rows and columns common
entry = st.one_of(frac, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]))


@st.composite
def matrices(draw, max_dim=5):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def mul(m, vec):
    return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in m]


def dependent_columns(m):
    """Columns that lie in the span of the columns before them."""
    ncols = len(m[0])
    return [j for j in range(ncols)
            if plain_rank([row[: j + 1] for row in m]) == plain_rank([row[:j] for row in m])]


def test_rank_identity():
    assert rank([[Fraction(int(i == j)) for j in range(5)] for i in range(5)]) == 5


def test_solve_simple():
    assert solve([[Fraction(2)]], [Fraction(1)]) == [Fraction(1, 2)]


def test_solve_inconsistent():
    with pytest.raises(NoSolution):
        solve([[1], [1]], [Fraction(1), Fraction(2)])


def test_cokernel_example():
    # column span of (1,1,0) inside Q^3: complement {e2, e3}
    basis = cokernel_basis([[1], [1], [0]])
    assert basis == [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + len(cokernel_basis(m)) == len(m)
    assert rank(m) + len(nullspace(m)) == len(m[0])


@given(matrices())
def test_solve_remultiplies(m):
    import random

    rng = random.Random(11)
    x = [Fraction(rng.randint(-3, 3)) for _ in range(len(m[0]))]
    b = mul(m, x)
    y = solve(m, b)
    assert mul(m, y) == b


@given(matrices())
def test_rank_matches_plain_gauss(m):
    assert rank(m) == plain_rank(m)


def test_nullspace_kernel_property():
    m = [[1, 2, 3], [2, 4, 6]]
    for v in nullspace(m):
        assert mul(m, v) == [Fraction(0)] * len(m)
    assert nullspace(m) == [
        [Fraction(-2), Fraction(1), Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(1)],
    ]


@given(matrices())
def test_nullspace_is_canonical(m):
    """One kernel vector per dependent column j, in column order: 1 at j, 0
    at every other dependent column and at every column after j."""
    dependent = dependent_columns(m)
    basis = nullspace(m)
    assert len(basis) == len(dependent)
    for j, v in zip(dependent, basis):
        assert all(type(x) is Fraction for x in v)
        assert v[j] == 1
        assert all(v[d] == 0 for d in dependent if d != j)
        assert all(x == 0 for x in v[j + 1:])
        assert mul(m, v) == [0] * len(m)


@given(matrices(), st.lists(frac, min_size=5, max_size=5), st.booleans())
def test_solve_is_zero_at_dependent_columns(m, values, consistent):
    if consistent:
        b = mul(m, values[: len(m[0])])
    else:
        b = values[: len(m)]
    if plain_rank([row + [x] for row, x in zip(m, b)]) > plain_rank(m):
        with pytest.raises(NoSolution):
            solve(m, b)
        return
    x = solve(m, b)
    assert all(type(y) is Fraction for y in x)
    assert mul(m, x) == b
    assert all(x[j] == 0 for j in dependent_columns(m))


@given(matrices())
def test_cokernel_basis_marks_dependent_rows(m):
    n = len(m)
    dependent = [i for i in range(n) if plain_rank(m[: i + 1]) == plain_rank(m[:i])]
    unit = [[Fraction(int(i == k)) for k in range(n)] for i in dependent]
    assert cokernel_basis(m) == unit


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
