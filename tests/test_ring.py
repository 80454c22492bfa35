from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cechlab.ring import (
    LaurentPoly,
    NonUnitSubstitution,
    RingSig,
    SeriesDomainError,
    SignatureError,
    exp_trunc,
)

U2 = RingSig(2, 0, "U")
U1 = RingSig(1, 0, "U")
V1 = RingSig(1, 0, "V")


def poly(ring, terms):
    return LaurentPoly(ring, {tuple(e): Fraction(c) for e, c in terms.items()})


coeffs = st.fractions(
    min_value=-10, max_value=10, max_denominator=9
)


@st.composite
def polys(draw, ring=U2):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        exp = tuple(
            [draw(st.integers(-4, 4))]
            + [draw(st.integers(0, 3)) for _ in range(ring.fibers + ring.params)]
        )
        terms[exp] = draw(coeffs)
    return LaurentPoly(ring, terms)


def test_basic_arith():
    z = LaurentPoly.var(U1, 0)
    u = LaurentPoly.var(U1, 1)
    assert (z ** -1 + u) * z == 1 + z * u
    assert str((z ** -1 + u) * z) == "1 + z*u"


def test_series_prefactor_product():
    z = LaurentPoly.var(U1, 0)
    u = LaurentPoly.var(U1, 1)
    got = z ** -2 * exp_trunc(u, 2)
    want = z ** -2 + z ** -2 * u + z ** -2 * u ** 2 * Fraction(1, 2)
    assert got == want


def test_signature_mismatch():
    with pytest.raises(SignatureError):
        LaurentPoly.var(U1, 0) + LaurentPoly.var(V1, 0)
    with pytest.raises(SignatureError):
        LaurentPoly.var(U1, 0) * LaurentPoly.var(U2, 0)


@given(polys(), polys())
def test_commutativity(a, b):
    assert a * b == b * a
    assert a + b == b + a


@given(polys(), polys(), polys())
def test_assoc_distrib(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys())
def test_units(a):
    one = LaurentPoly.const(U2, 1)
    assert a * one == a
    assert a + LaurentPoly.zero(U2) == a
    assert a - a == LaurentPoly.zero(U2)


def _zm1_images():
    # Z_(-1) rule: z -> xi^-1, u -> xi^-1 v
    xi = LaurentPoly.var(V1, 0)
    v = LaurentPoly.var(V1, 1)
    return {0: xi ** -1, 1: xi ** -1 * v}


def _z1_images():
    xi = LaurentPoly.var(V1, 0)
    v = LaurentPoly.var(V1, 1)
    return {0: xi ** -1, 1: xi * v}


def test_substitution_examples():
    z = LaurentPoly.var(U1, 0)
    u = LaurentPoly.var(U1, 1)
    xi = LaurentPoly.var(V1, 0)
    v = LaurentPoly.var(V1, 1)
    assert (z ** -2 * u).substitute(_zm1_images(), V1) == xi * v
    assert (z ** -2 * u).substitute(_z1_images(), V1) == xi ** 3 * v
    ident = {0: z, 1: u}
    p = z ** -3 * u ** 2 + 5
    assert p.substitute(ident, U1) == p


def test_substitution_numeric_oracle():
    # substitution then evaluation == evaluation at mapped points
    import random

    rng = random.Random(7)
    images = _zm1_images()
    for _ in range(20):
        terms = {
            (rng.randint(-3, 3), rng.randint(0, 3)): Fraction(rng.randint(-5, 5))
            for _ in range(4)
        }
        p = LaurentPoly(U1, terms)
        xi0 = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        v0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        lhs = p.substitute(images, V1).evaluate([xi0, v0])
        rhs = p.evaluate([images[0].evaluate([xi0, v0]), images[1].evaluate([xi0, v0])])
        assert lhs == rhs


V2 = RingSig(2, 0, "V")


def _w3_images():
    # W_3 rule expressed from the V side: z -> xi^-1, u1 -> xi^3 v1, u2 -> xi^-1 v2
    xi = LaurentPoly.var(V2, 0)
    v1 = LaurentPoly.var(V2, 1)
    v2 = LaurentPoly.var(V2, 2)
    return {0: xi ** -1, 1: xi ** 3 * v1, 2: xi ** -1 * v2}


@given(polys(ring=U1), polys(ring=U1))
def test_substitute_is_homomorphism_z_rule(a, b):
    images = _z1_images()
    assert (a * b).substitute(images, V1) == a.substitute(images, V1) * b.substitute(
        images, V1
    )
    assert (a + b).substitute(images, V1) == a.substitute(images, V1) + b.substitute(
        images, V1
    )


@given(polys(ring=U2), polys(ring=U2))
def test_substitute_is_homomorphism_w_rule(a, b):
    images = _w3_images()
    assert (a * b).substitute(images, V2) == a.substitute(images, V2) * b.substitute(
        images, V2
    )
    assert (a + b).substitute(images, V2) == a.substitute(images, V2) + b.substitute(
        images, V2
    )


def test_nonunit_base_substitution_rejected():
    z = LaurentPoly.var(U1, 0)
    u = LaurentPoly.var(U1, 1)
    xi = LaurentPoly.var(V1, 0)
    v = LaurentPoly.var(V1, 1)
    with pytest.raises(NonUnitSubstitution):
        (z ** -1).substitute({0: xi + v, 1: v}, V1)
    with pytest.raises(NonUnitSubstitution):
        (z ** -1).substitute({0: v, 1: v}, V1)  # fiber content in the base image


def test_exp_trunc_examples():
    u = LaurentPoly.var(U1, 1)
    assert exp_trunc(u, 3) == 1 + u + u ** 2 * Fraction(1, 2) + u ** 3 * Fraction(1, 6)
    assert exp_trunc(u, 0) == LaurentPoly.const(U1, 1)


def test_exp_trunc_domain_errors():
    z = LaurentPoly.var(U1, 0)
    u = LaurentPoly.var(U1, 1)
    with pytest.raises(SeriesDomainError):
        exp_trunc(u + 1, 3)  # constant term
    with pytest.raises(SeriesDomainError):
        exp_trunc(z, 3)  # fiber-free term: truncation undefined
    with pytest.raises(SeriesDomainError):
        exp_trunc(z ** -1 * u, 3)  # negative base exponent


def test_partial_derivative():
    z = LaurentPoly.var(U2, 0)
    u1 = LaurentPoly.var(U2, 1)
    p = z ** 2 * u1 ** 3 + z ** -1
    assert p.partial(1) == 3 * z ** 2 * u1 ** 2
    assert p.partial(0) == 2 * z * u1 ** 3 - z ** -2


def test_canonical_printing_deterministic():
    z = LaurentPoly.var(U2, 0)
    u1 = LaurentPoly.var(U2, 1)
    u2 = LaurentPoly.var(U2, 2)
    p = u2 * z ** -1 - u1 * 2 + z * Fraction(1, 2)
    assert str(p) == "z^-1*u2 - 2*u1 + 1/2*z"


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        LaurentPoly(U1, {(0, 0): 0.5})


def test_public_constructor_keeps_its_checks():
    with pytest.raises(ValueError):
        LaurentPoly(U1, {(0, 0, 0): Fraction(1)})  # arity
    with pytest.raises(ValueError):
        LaurentPoly(U1, {(0, -1): Fraction(1)})  # negative fiber exponent
    assert LaurentPoly(U1, {(0, 1): 0, (1, 1): 2}).terms == {(1, 1): Fraction(2)}


def _assert_valid(p):
    """An operation's result is what the checking constructor would build."""
    assert p == LaurentPoly(p.ring, dict(p.terms))
    assert all(type(c) is Fraction and c != 0 for c in p.terms.values())
    assert all(type(e) is tuple and len(e) == p.ring.nvars for e in p.terms)


@given(polys(), polys(), st.integers(0, 3), coeffs)
def test_unchecked_results_are_valid(a, b, n, c):
    for p in (a + b, a - b, -a, a * b, a * c, a ** n, a.partial(0), a.partial(1),
              a.truncate_fiber(n)):
        _assert_valid(p)
    assert not (a + (-a)).terms and not (a * 0).terms
    _assert_valid(a.substitute(_w3_images(), V2))
    if a.is_unit():
        _assert_valid(a ** -n)
