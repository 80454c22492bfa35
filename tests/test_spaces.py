from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cechlab.ring import LaurentPoly, RingSig
from cechlab.spaces import (
    ChartMap,
    CompositionError,
    TwoChartSpace,
    grading_lattice,
    hirzebruch_verify,
    make_standard_space,
    validate_transition,
)
from cechlab.bundles import tangent_bundle, mat_det
from cechlab.cli import parse_space
from cechlab.deform import build_family


def test_standard_spaces():
    w3 = make_standard_space("W", 3)
    assert [str(p) for p in w3.transition.forward] == ["z^-1", "z^3*u1", "z^-1*u2"]
    zm1 = make_standard_space("Z", -1)
    assert [str(p) for p in zm1.transition.forward] == ["z^-1", "z^-1*u"]
    w1 = make_standard_space("W", 1)
    assert [str(p) for p in w1.transition.forward] == ["z^-1", "z*u1", "z*u2"]


@given(st.integers(-5, 5))
def test_standard_spaces_validate_for_any_k(k):
    make_standard_space("Z", k)
    make_standard_space("W", k)


def test_wrong_inverse_rejected():
    uring = RingSig(1, 0, "U")
    vring = RingSig(1, 0, "V")
    z = LaurentPoly.var(uring, 0)
    u = LaurentPoly.var(uring, 1)
    xi = LaurentPoly.var(vring, 0)
    v = LaurentPoly.var(vring, 1)
    chart = ChartMap((z ** -1, z ** 2 * u), (xi ** -1, xi * v))
    with pytest.raises(CompositionError):
        validate_transition(chart)


def test_fiber_image_without_fiber_variable_rejected():
    # window generator enumeration ends only because every fiber image has
    # positive degree in some fiber variable; an image in z alone cannot be
    # inverted, so construction already rejects it
    uring, vring = RingSig(1, 0, "U"), RingSig(1, 0, "V")
    z, xi = LaurentPoly.var(uring, 0), LaurentPoly.var(vring, 0)
    chart = ChartMap((z ** -1, z ** 2), (xi ** -1, xi ** -2))
    with pytest.raises(CompositionError):
        TwoChartSpace("no-fiber", 1, chart)


def test_deformed_w2_chart_identity():
    # forward (z^-1, z^2 u1 + z u2, u2), inverse (xi^-1, xi^2 v1 - xi v2, v2)
    space = _deformed_w2()
    # construction already validates; spot-check the inverse shape
    assert [str(p) for p in space.transition.inverse] == [
        "xi^-1",
        "-xi*v2 + xi^2*v1",
        "v2",
    ]


def _deformed_w2():
    base = make_standard_space("W", 2)
    r = base.uring
    z = LaurentPoly.var(r, 0)
    u2 = LaurentPoly.var(r, 2)
    zero = LaurentPoly.zero(r)
    return build_family(base, [(zero, z ** -1 * u2, zero)], [Fraction(1)]).perturbed


def _deformed_z2():
    base = make_standard_space("Z", 2)
    r = base.uring
    zero = LaurentPoly.zero(r)
    return build_family(
        base, [(zero, LaurentPoly.var(r, 0, -1))], [Fraction(1)]
    ).perturbed


def test_grading_ranks():
    assert len(grading_lattice(make_standard_space("W", 2))) == 3
    assert len(grading_lattice(_deformed_w2())) == 2
    assert len(grading_lattice(_deformed_z2())) == 1


@pytest.mark.parametrize(
    "name, weights",
    [
        ("W2", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ("W2@t1=1", [(1, -1, 0), (1, 0, 1)]),
        ("W2@t0=1", [(1, -1, 0), (0, 0, 1)]),
        ("W3@t1=1,t2=2", [(0, 0, 1)]),
        ("Z2@t1=1", [(1, -1)]),
        ("Z4@t1=1", [(1, -3)]),
    ],
)
def test_grading_lattice_vectors(name, weights):
    # the exact basis, in order: the box tier's bucket keys follow it
    assert [g.weights for g in grading_lattice(parse_space(name))] == weights


def test_grading_annihilates_transition_monomials():
    for space in (make_standard_space("W", 3), _deformed_w2(), _deformed_z2()):
        nv = 1 + space.fiber_count
        for g in grading_lattice(space):
            for poly in space.transition.forward:
                weights = {g.weight_of(e[:nv]) for e in poly.terms}
                assert len(weights) == 1


def test_cy_determinant_random_k():
    import random

    rng = random.Random(3)
    for k in [1, 2, 3] + [rng.randint(-5, 5) for _ in range(4)]:
        space = make_standard_space("W", k)
        det = mat_det(tangent_bundle(space).M)
        assert det == LaurentPoly.const(space.uring, -1)


def test_chart_round_trip_on_random_polys():
    import random

    rng = random.Random(17)
    for space in (
        make_standard_space("W", 2),
        make_standard_space("Z", 3),
        _deformed_w2(),
        _deformed_z2(),
    ):
        chart = space.transition
        ring = space.uring
        for _ in range(10):
            terms = {}
            for _ in range(4):
                exp = tuple(
                    [rng.randint(-3, 3)]
                    + [rng.randint(0, 2) for _ in range(space.fiber_count)]
                )
                terms[exp] = Fraction(rng.randint(-5, 5))
            p = LaurentPoly(ring, terms)
            assert chart.to_u_frame(chart.to_v_frame(p)) == p


def test_hirzebruch_ok():
    for k in (1, 2, 3, 4, 5):
        assert hirzebruch_verify(k) is None


def test_hirzebruch_mutation_detected():
    ring = RingSig(1, 1, "U")
    t1 = LaurentPoly.var(ring, 2)
    z = LaurentPoly.var(ring, 0)
    res = hirzebruch_verify(2, perturbation=-(t1 * z))
    assert res is not None and not res.is_zero()
