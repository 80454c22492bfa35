import random
from fractions import Fraction

import pytest

from cechlab import cech
from cechlab.bundles import end_bundle, extension_bundle, line_bundle, tangent_bundle
from cechlab.cech import (
    BoxError,
    CechEngine,
    DegreeBox,
    Exact,
    NonFiniteSlice,
    StableInBox,
    SymbolicParameterError,
    WitnessFound,
    _BoxModel,
    _class_to_vec,
    _greedy_basis,
    _solve_offsets,
    _transition_relations,
    _vec_to_class,
    _witness_from_tags,
    coboundary_generators,
    h1,
    is_coboundary,
    make_class,
    monomial_class,
    reduce_class,
    verify_witness,
    window_monomials,
)
from cechlab.deform import build_family, standard_family
from cechlab.linalg import IncrementalSpan
from cechlab.ring import LaurentPoly, exp_trunc
from cechlab.spaces import ChartMap, TwoChartSpace, make_standard_space

from oracles import brute_h1_keys, brute_v_generators, poly_slice_generators


def _deformed(family, k, t1=Fraction(1)):
    base = make_standard_space(family, k)
    r = base.uring
    z = LaurentPoly.var(r, 0)
    zero = LaurentPoly.zero(r)
    if family == "W" and k == 2:
        u2 = LaurentPoly.var(r, 2)
        cocycles = [(zero, z ** -1 * u2, zero)]
    else:
        cocycles = [(zero, z ** (-k + 1))]
    return build_family(base, cocycles, [t1]).perturbed


def _box_tier(bundle):
    """An engine forced onto the windowed path, also for monomial models."""
    eng = CechEngine(bundle)
    eng.exact = None
    eng.box_model = _BoxModel(bundle)
    return eng


# -- component offsets ----------------------------------------------------------


def _relations_hold(offsets, relations):
    du, dv = offsets
    return all(
        tuple(a - b for a, b in zip(du[c], dv[cp])) == w for c, cp, w in relations
    )


def test_offsets_solver_satisfies_relations_or_reports_conflict():
    # the cycle U0-V0-U1-V1-U0 closes: a - b + c - d = 0; U2 and V2 are free
    a, b, c = (1, 2), (3, -1), (0, 4)
    d = tuple(x - y + z for x, y, z in zip(a, b, c))
    relations = [(0, 0, a), (1, 0, b), (1, 1, c), (0, 1, d)]
    offsets = _solve_offsets(3, 2, relations)
    assert offsets is not None and _relations_hold(offsets, relations)
    assert offsets[0][2] == offsets[1][2] == (0, 0)
    # the same cycle with one weight off cannot close
    assert _solve_offsets(3, 2, relations[:3] + [(0, 1, (d[0], d[1] + 1))]) is None
    assert _solve_offsets(1, 1, [(0, 0, (2,)), (0, 0, (-2,))]) is None
    # monomial-model bundles: every transition entry satisfies its relation
    w2 = make_standard_space("W", 2)
    for bundle in (tangent_bundle(make_standard_space("W", 3)), end_bundle(tangent_bundle(w2))):
        relations = _transition_relations(bundle, lambda p: next(iter(p.terms))[:3])
        offsets = _solve_offsets(bundle.rank, 3, relations)
        assert offsets is not None and _relations_hold(offsets, relations)
    # an entry that is not homogeneous gives no relations
    assert _transition_relations(line_bundle(w2, -2), lambda p: None) is None


# -- coboundary generators -----------------------------------------------------


def test_v_generator_images():
    zm1 = make_standard_space("Z", -1)
    gens = coboundary_generators(line_bundle(zm1, -2), DegreeBox.make(-4, 1, 3, 1))
    # the V-monomial v maps to z^-2 * (z^-1 u) = z^-3 u
    images = {
        (tag["xi_power"], tuple(tag["v_exponents"])): str(cls.components[0])
        for tag, cls in gens
        if tag["side"] == "V"
    }
    assert images[(0, (1,))] == "z^-3*u"
    z1 = make_standard_space("Z", 1)
    gens = coboundary_generators(line_bundle(z1, -2), DegreeBox.make(-4, 1, 3, 1))
    images = {
        (tag["xi_power"], tuple(tag["v_exponents"])): str(cls.components[0])
        for tag, cls in gens
        if tag["side"] == "V"
    }
    assert images[(0, (1,))] == "z^-1*u"


def test_u_generators_are_themselves():
    w1 = make_standard_space("W", 1)
    gens = coboundary_generators(line_bundle(w1, -2), DegreeBox.make(-2, 1, 1, 2))
    for tag, cls in gens:
        if tag["side"] == "U":
            (exp,) = list(cls.components[0].terms)
            assert list(exp) == tag["exponents"]
            assert exp[0] >= 0


@pytest.mark.parametrize(
    "family, k, values",
    [("W", 2, {1: 1}), ("W", 3, {1: 1, 2: 2}), ("Z", 2, {1: 1}), ("Z", 3, {1: 1, 2: 1})],
)
def test_window_generators_match_term_by_term_oracle(family, k, values):
    space = standard_family(family, k, values, jmax=max(values)).perturbed
    z, u = LaurentPoly.var(space.uring, 0), LaurentPoly.var(space.uring, 1)
    ext = extension_bundle(space, -1, 1, z ** -1 * u + 2 * z ** -2)
    assert len(ext.Minv[0][1].terms) == 2
    count = 0
    for bundle in (line_bundle(space, -4), line_bundle(space, 0), tangent_bundle(space), ext):
        for lo, hi, fm in ((-4, 1, 2), (-2, 2, 3), (0, 3, 1)):
            box = DegreeBox.make(lo, hi, fm, space.fiber_count)
            got = _BoxModel(bundle).v_generators(box)
            assert got == brute_v_generators(bundle, box), (bundle.name, box)
            count += len(got)
    assert count > 0


def test_translated_fiber_has_finite_window_generators():
    # Z0 with its fiber translated, v = u + 1: the fiber image has zero base
    # width and zero least fiber degree, yet only its top degree matters
    z0 = make_standard_space("Z", 0)
    z, u = (LaurentPoly.var(z0.uring, i) for i in range(2))
    xi, v = (LaurentPoly.var(z0.vring, i) for i in range(2))
    space = TwoChartSpace("Z0+1", 1, ChartMap((z ** -1, u + 1), (xi ** -1, v - 1)))
    box = DegreeBox.make(-4, 1, 2, 1)
    bundle = line_bundle(space, -3)
    assert _BoxModel(bundle).v_generators(box) == brute_v_generators(bundle, box)
    res = h1(bundle, box)
    assert isinstance(res.certification, StableInBox)
    assert res.generator_keys() == h1(line_bundle(z0, -3), box).generator_keys()


# -- h1, exact mode -------------------------------------------------------------


def test_h1_w1_tangent_vanishes():
    res = h1(tangent_bundle(make_standard_space("W", 1)), DegreeBox.make(-8, 2, 8, 2))
    assert res.generators == []
    assert isinstance(res.certification, Exact)


def test_h1_w2_tangent_basis():
    res = h1(tangent_bundle(make_standard_space("W", 2)), DegreeBox.make(-8, 2, 8, 2))
    assert set(res.generator_keys()) == {(2, (-1, 0, j)) for j in range(9)}
    assert res.dims_by_fiber_degree == {d: 1 for d in range(9)}
    assert res.pattern == "1 classes per fiber degree (0..8)"


def test_h1_z1_single_class():
    res = h1(line_bundle(make_standard_space("Z", 1), -2), DegreeBox.make(-8, 2, 8, 1))
    assert res.generator_keys() == [(1, (-1, 0))]
    assert isinstance(res.certification, Exact)


def test_h1_zminus1_window():
    res = h1(line_bundle(make_standard_space("Z", -1), -2), DegreeBox.make(-12, -1, 4, 1))
    expected = {(1, (l, i)) for i in range(5) for l in range(-1 - i, 0)}
    assert set(res.generator_keys()) == expected


def test_h1_invariant_under_box_enlargement():
    bundle = tangent_bundle(make_standard_space("W", 2))
    small = DegreeBox.make(-6, 1, 4, 2)
    big = DegreeBox.make(-10, 3, 8, 2)
    keys_small = set(h1(bundle, small).generator_keys())
    keys_big = {
        k for k in h1(bundle, big).generator_keys() if small.contains_exp(k[1])
    }
    assert keys_small == keys_big


def test_h1_exact_matches_brute_force_oracle():
    cases = [
        (line_bundle(make_standard_space("Z", -1), -2), -6, 1, 3, 8),
        (line_bundle(make_standard_space("Z", 2), -3), -6, 1, 3, 8),
        (line_bundle(make_standard_space("W", 2), -4), -5, 1, 2, 8),
        (tangent_bundle(make_standard_space("W", 3)), -5, 1, 2, 8),
        (end_bundle(tangent_bundle(make_standard_space("W", 2))), -3, 0, 1, 5),
    ]
    for bundle, lo, hi, fm, margin in cases:
        res = h1(bundle, DegreeBox.make(lo, hi, fm, bundle.space.fiber_count))
        assert isinstance(res.certification, Exact)
        got = sorted((c - 1, k) for c, k in res.generator_keys())
        want = brute_h1_keys(bundle, lo, hi, fm, margin=margin)
        assert got == want, (bundle.name, got, want)


def test_exact_and_box_modes_agree_on_monomial_models():
    # force the windowed path on exact-capable bundles: the same H1 basis,
    # the same coboundary verdicts and the same reduce representatives
    cases = [
        (("Z", -1), -2, (-5, 1, 3)),
        (("Z", 2), -3, (-5, 1, 3)),
        (("W", 2), -4, (-3, 1, 1)),
        (("W", 3), -2, (-3, 1, 1)),
    ]
    verdicts = set()
    for (family, k), n, (lo, hi, fm) in cases:
        space = make_standard_space(family, k)
        bundle = line_bundle(space, n)
        box = DegreeBox.make(lo, hi, fm, space.fiber_count)
        exact, boxed = CechEngine(bundle), _box_tier(bundle)
        box_res = boxed.h1(box)
        assert box_res.generator_keys() == exact.h1(box).generator_keys()
        assert isinstance(box_res.certification, StableInBox)
        rng = random.Random(7)
        monos = window_monomials(box, bundle.rank)
        for _ in range(10):
            picks = rng.sample(monos, rng.randint(1, 3))
            terms = {exp: Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2)) for _, exp in picks}
            cls = make_class(bundle, [LaurentPoly(space.uring, terms)])
            ok, cert = exact.is_coboundary(cls, box)
            ok_box, cert_box = boxed.is_coboundary(cls, box)
            assert ok_box == ok, (bundle.name, cls)
            if not ok:
                assert isinstance(cert, Exact) and isinstance(cert_box, StableInBox)
            red, red_box = exact.reduce(cls, box), boxed.reduce(cls, box)
            assert red_box.representative.components == red.representative.components
            assert red.representative.is_zero() == ok
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_box_tier_escalation_budget(monkeypatch):
    bundle = line_bundle(make_standard_space("Z", -1), -2)
    box = DegreeBox.make(-5, 1, 3, 1)
    monkeypatch.setattr(cech, "MAX_ESCALATIONS", 0)
    with pytest.raises(NonFiniteSlice):
        _box_tier(bundle).h1(box)
    assert isinstance(CechEngine(bundle).h1(box).certification, Exact)  # never escalates
    # rounds within the budget, but the basis changes at the one enlargement
    monkeypatch.setattr(cech, "MAX_ESCALATIONS", 1)
    tw2 = tangent_bundle(make_standard_space("W", 2))
    box = DegreeBox.make(-3, 0, 1, 2, escalation_step=1, stability_rounds=1)
    with pytest.raises(NonFiniteSlice, match="did not stabilize"):
        _box_tier(tw2).h1(box)


# -- is_coboundary --------------------------------------------------------------


def test_coboundary_true_with_witness_on_z1():
    z1 = make_standard_space("Z", 1)
    bundle = line_bundle(z1, -2)
    ring = z1.uring
    z = LaurentPoly.var(ring, 0)
    u = LaurentPoly.var(ring, 1)
    cls = make_class(bundle, [z ** -2 * exp_trunc(u, 8)])
    ok, cert = is_coboundary(bundle, cls, DegreeBox.make(-8, 2, 8, 1))
    assert ok and isinstance(cert, WitnessFound)
    assert verify_witness(bundle, cls, cert)
    # the witness on the V side is the truncated series in V variables
    assert not cert.beta[0].is_zero()


def test_noncoboundary_exact_on_w2():
    bundle = tangent_bundle(make_standard_space("W", 2))
    cls = monomial_class(bundle, 2, (-1, 0, 3))
    ok, cert = is_coboundary(bundle, cls, DegreeBox.make(-6, 2, 4, 2))
    assert not ok and isinstance(cert, Exact)


def test_noncoboundary_stable_on_deformed_w2():
    space = _deformed("W", 2)
    bundle = line_bundle(space, -4)
    box = DegreeBox.make(-8, 8, 6, 2)
    cls = monomial_class(bundle, 1, (-1, 0, 0))
    ok, cert = is_coboundary(bundle, cls, box)
    assert not ok
    assert isinstance(cert, StableInBox) and cert.rounds == 2
    assert cert.box.base_lo == -16  # two rounds of +4


def test_coboundary_on_deformed_z2_hand_identity():
    space = _deformed("Z", 2)
    bundle = line_bundle(space, -2)
    cls = monomial_class(bundle, 1, (-1, 0))
    ok, cert = is_coboundary(bundle, cls, DegreeBox.make(-6, 2, 6, 1))
    assert ok and verify_witness(bundle, cls, cert)
    # the hand identity z^-1 = -u + z^-2 (z^2 u + z) is itself a valid witness
    ring = space.uring
    vring = space.vring
    hand = WitnessFound(
        (-LaurentPoly.var(ring, 1),), (LaurentPoly.var(vring, 1),)
    )
    assert verify_witness(bundle, cls, hand)


def test_class_outside_box_rejected():
    bundle = line_bundle(make_standard_space("Z", 1), -2)
    cls = monomial_class(bundle, 1, (-9, 0))
    with pytest.raises(BoxError):
        is_coboundary(bundle, cls, DegreeBox.make(-4, 2, 3, 1))


def test_cell_limit_env_var(monkeypatch):
    from cechlab.cech import CellLimitError

    monkeypatch.setenv("CECH_MAX_CELLS", "10")
    space = _deformed("W", 2)
    bundle = line_bundle(space, -4)
    with pytest.raises(CellLimitError):
        h1(bundle, DegreeBox.make(-8, 8, 6, 2))


def test_symbolic_parameters_rejected():
    base = make_standard_space("Z", 2)
    r = base.uring
    fam = build_family(base, [(LaurentPoly.zero(r), LaurentPoly.var(r, 0, -1))])
    with pytest.raises(SymbolicParameterError):
        h1(line_bundle(fam.perturbed, -2), DegreeBox.make(-4, 2, 3, 1))


# -- reduce_class ----------------------------------------------------------------


def test_reduce_series_on_zminus1():
    zm1 = make_standard_space("Z", -1)
    bundle = line_bundle(zm1, -2)
    ring = zm1.uring
    z = LaurentPoly.var(ring, 0)
    u = LaurentPoly.var(ring, 1)
    cls = make_class(bundle, [z ** -2 * exp_trunc(u, 6)])
    res = reduce_class(bundle, cls, DegreeBox.make(-8, 2, 6, 1))
    want = LaurentPoly.zero(ring)
    for i in range(1, 7):
        fact = 1
        for n in range(2, i + 1):
            fact *= n
        want = want + z ** -2 * u ** i * Fraction(1, fact)
    assert res.representative.components[0] == want
    # the difference carries a verifiable witness
    diff = make_class(bundle, [cls.components[0] - res.representative.components[0]])
    assert verify_witness(bundle, diff, res.witness)


def test_reduce_coboundary_to_zero():
    z1 = make_standard_space("Z", 1)
    bundle = line_bundle(z1, -2)
    ring = z1.uring
    z = LaurentPoly.var(ring, 0)
    u = LaurentPoly.var(ring, 1)
    cls = make_class(bundle, [z ** -2 * u ** 3])
    res = reduce_class(bundle, cls, DegreeBox.make(-6, 2, 4, 1))
    assert res.representative.is_zero()


def test_reduce_is_idempotent():
    w3 = make_standard_space("W", 3)
    bundle = line_bundle(w3, -2)
    box = DegreeBox.make(-6, 2, 4, 2)
    cls = monomial_class(bundle, 1, (-2, 0, 3))
    res = reduce_class(bundle, cls, box)
    assert res.representative.components[0] == cls.components[0]  # already canonical
    again = reduce_class(bundle, res.representative, box)
    assert again.representative.components == res.representative.components


def test_w3_pullback_classes_survive_reduction():
    w3 = make_standard_space("W", 3)
    bundle = line_bundle(w3, -2)
    box = DegreeBox.make(-6, 2, 6, 2)
    for m in range(1, 7):
        cls = monomial_class(bundle, 1, (-2, 0, m))
        ok, cert = is_coboundary(bundle, cls, box)
        assert not ok and isinstance(cert, Exact)


def test_every_generator_fails_is_coboundary_and_rest_reduce_into_basis():
    # spec invariant, checked on a surface and a threefold bundle
    cases = [
        (line_bundle(make_standard_space("Z", -1), -2), DegreeBox.make(-5, 1, 3, 1)),
        (tangent_bundle(make_standard_space("W", 2)), DegreeBox.make(-4, 1, 3, 2)),
    ]
    for bundle, box in cases:
        res = h1(bundle, box)
        basis = set(res.generator_keys())
        for comp, poly in res.generators:
            (exp,) = list(poly.terms)
            ok, _ = is_coboundary(bundle, monomial_class(bundle, comp, exp), box)
            assert not ok
        # every omitted in-window monomial reduces into the basis
        from itertools import product

        f = bundle.space.fiber_count
        ranges = [range(box.base_lo, box.base_hi + 1)] + [
            range(0, box.fiber_max[j] + 1) for j in range(f)
        ]
        for c in range(bundle.rank):
            for combo in product(*ranges):
                key = (c + 1, tuple(combo))
                if key in basis:
                    continue
                cls = monomial_class(bundle, c + 1, tuple(combo))
                red = reduce_class(bundle, cls, box)
                keys = {
                    (i + 1, e)
                    for i, p in enumerate(red.representative.components)
                    for e in p.terms
                }
                assert keys <= basis


def test_reduce_in_box_mode_on_deformed_space():
    space = _deformed("Z", 2)
    bundle = line_bundle(space, -2)
    box = DegreeBox.make(-5, 2, 4, 1)
    ring = space.uring
    z = LaurentPoly.var(ring, 0)
    u = LaurentPoly.var(ring, 1)
    cls = make_class(bundle, [z ** -1 + z ** -2 * u])
    res = reduce_class(bundle, cls, box)
    assert res.representative.is_zero()  # deformed Z_2 has no obstructions here
    assert verify_witness(bundle, cls, res.witness)
    assert isinstance(res.certification, StableInBox)


# -- span reuse and reduce ------------------------------------------------------


def _count_span_builds(monkeypatch):
    builds = []
    real = CechEngine._box_spans

    def counting(self, box):
        builds.append((box.base_lo, box.base_hi, box.fiber_max))
        return real(self, box)

    monkeypatch.setattr(CechEngine, "_box_spans", counting)
    return builds


def test_shared_engine_answers_like_fresh_engines():
    # the Affine-Zk-deformed probe classes for O(-1)
    bundle = line_bundle(_deformed("Z", 2), -1)
    box = DegreeBox.make(-6, 2, 6, 1)
    shared = CechEngine(bundle)
    for l in range(box.base_lo, 0):
        for i in range(box.fiber_max[0] + 1):
            cls = monomial_class(bundle, 1, (l, i))
            ok, cert = shared.is_coboundary(cls, box)
            ok_fresh, cert_fresh = CechEngine(bundle).is_coboundary(cls, box)
            assert ok == ok_fresh
            assert cert.as_dict() == cert_fresh.as_dict()


def test_window_spans_built_once_when_they_answer(monkeypatch):
    builds = _count_span_builds(monkeypatch)
    bundle = line_bundle(_deformed("Z", 2), -2)
    box = DegreeBox.make(-6, 2, 6, 1)
    engine = CechEngine(bundle)
    cls = monomial_class(bundle, 1, (-1, 0))
    for _ in range(3):
        ok, cert = engine.is_coboundary(cls, box)
        assert ok and verify_witness(bundle, cls, cert)
    assert builds == [(-6, 2, (6,))]
    # a window that never answers is dropped, so the query rebuilds it
    builds.clear()
    bundle = line_bundle(_deformed("W", 2), -4)
    box = DegreeBox.make(-8, 8, 6, 2)
    engine = CechEngine(bundle)
    cls = monomial_class(bundle, 1, (-1, 0, 0))
    for _ in range(2):
        ok, cert = engine.is_coboundary(cls, box)
        assert not ok and isinstance(cert, StableInBox)
    windows = [(-8, 8, (6, 6)), (-12, 12, (10, 10)), (-16, 16, (14, 14))]
    assert builds == windows * 2


def test_box_reduce_on_used_engine_matches_fresh_engine():
    z2 = _deformed("Z", 2)
    ring = z2.uring
    z = LaurentPoly.var(ring, 0)
    u = LaurentPoly.var(ring, 1)
    zm1 = make_standard_space("Z", -1)
    zr = zm1.uring
    cases = [
        (CechEngine, line_bundle(z2, -2), DegreeBox.make(-5, 2, 4, 1), [z ** -1 + z ** -2 * u]),
        (
            _box_tier,
            line_bundle(zm1, -2),
            DegreeBox.make(-5, 1, 3, 1),
            [LaurentPoly.var(zr, 0, -2) * exp_trunc(LaurentPoly.var(zr, 1), 3)],
        ),
    ]
    for make_engine, bundle, box, comps in cases:
        cls = make_class(bundle, comps)
        used = make_engine(bundle)
        used.h1(box)
        used.is_coboundary(cls, box)
        first = used.reduce(cls, box)
        again = used.reduce(cls, box)
        fresh = make_engine(bundle).reduce(cls, box)
        assert isinstance(fresh.certification, StableInBox)
        for res in (first, again):
            assert res.representative.components == fresh.representative.components
            assert res.witness.as_dict() == fresh.witness.as_dict()
            assert res.certification == fresh.certification
        # class = representative + alpha + Minv * (beta o forward)
        alpha = tuple(
            a + r for a, r in zip(fresh.witness.alpha, fresh.representative.components)
        )
        assert verify_witness(bundle, cls, WitnessFound(alpha, fresh.witness.beta))
    assert not fresh.representative.is_zero()  # the last case keeps H1 classes


def _full_window_reduce(engine, spans, vec):
    """Reference: decompose in the spans of every slice of the window."""
    parts = {}
    for key, coeff in vec.items():
        parts.setdefault(engine.exact.slice_of(key), {})[key] = coeff
    rep, wit = {}, {}
    for chi, part in sorted(parts.items()):
        for tag, c in spans[chi].decompose(part).items():
            if tag[0] == "B":
                rep[tag[1]] = rep.get(tag[1], Fraction(0)) + c
            else:
                wit[tag] = wit.get(tag, Fraction(0)) + c
    return {k: v for k, v in rep.items() if v != 0}, _witness_from_tags(engine.bundle, wit)


def _oracle_span(model, chi):
    span = IncrementalSpan()
    for tag, vec in poly_slice_generators(model, chi):
        span.insert(vec, tag)
    return span


def test_exact_reduce_matches_full_window_reference():
    cases = [
        (line_bundle(make_standard_space("Z", -1), -2), -6, 1, 3),
        (line_bundle(make_standard_space("Z", 2), -3), -6, 1, 3),
        (line_bundle(make_standard_space("W", 2), -4), -5, 1, 2),
        (tangent_bundle(make_standard_space("W", 3)), -5, 1, 2),
        (end_bundle(tangent_bundle(make_standard_space("W", 2))), -3, 0, 1),
    ]
    for bundle, lo, hi, fm in cases:
        box = DegreeBox.make(lo, hi, fm, bundle.space.fiber_count)
        engine = CechEngine(bundle)
        monos = window_monomials(box, bundle.rank)
        _, spans = _greedy_basis(
            monos, engine.exact.slice_of, lambda chi: _oracle_span(engine.exact, chi)
        )
        # every window monomial alone, then all of them at once
        vecs = [{key: Fraction(1)} for key in monos]
        vecs.append({key: Fraction(n + 1, 3) for n, key in enumerate(monos)})
        for vec in vecs:
            res = engine.reduce(_vec_to_class(bundle, vec), box)
            rep, witness = _full_window_reduce(engine, spans, vec)
            assert _class_to_vec(res.representative) == rep, (bundle.name, vec)
            assert res.witness.as_dict() == witness.as_dict()
            assert isinstance(res.certification, Exact)


def test_end_bundle_exact_mode_and_trivial_family():
    # regression lock for the flagged discrepancy: z^-1 u1 u2^m at entry (2,1)
    # of End(TW_2) is an exact coboundary with the E11 witness
    from cechlab.bundles import flat_index

    w2 = make_standard_space("W", 2)
    eb = end_bundle(tangent_bundle(w2))
    for m in (0, 2):
        cls = monomial_class(eb, flat_index(3, 2, 1), (-1, 1, m))
        ok, cert = is_coboundary(eb, cls, DegreeBox.make(-6, 2, (2, m + 1), 2))
        assert ok and verify_witness(eb, cls, cert)
        alpha = [p for p in cert.alpha if not p.is_zero()]
        assert len(alpha) == 1  # supported on E11 alone
    # while z^-i u2^m at (2,1) are nontrivial
    for i in (1, 2, 3):
        cls = monomial_class(eb, flat_index(3, 2, 1), (-i, 0, 1))
        ok, cert = is_coboundary(eb, cls, DegreeBox.make(-6, 2, (2, 2), 2))
        assert not ok and isinstance(cert, Exact)


def test_end_of_transposed_tangent_jacobian_carries_every_stated_family():
    # E' has transition J^T, J the W_2 tangent Jacobian.  Its End H1 basis is
    # exactly the 36 stated End(TW_2) families, z^-1 u1 u2^m at (2,1) included:
    # 6 classes per u2-degree against 5 for End(TW_2), so E' is not TW_2
    from cechlab.bundles import TransitionBundle, flat_index

    w2 = make_standard_space("W", 2)
    tw = tangent_bundle(w2)
    e_prime = TransitionBundle(3, tuple(zip(*tw.M)), tuple(zip(*tw.Minv)), w2)
    stated = set()
    for m in range(6):
        stated.add((flat_index(3, 2, 1), (-1, 1, m)))
        stated |= {(flat_index(3, 2, 1), (-i, 0, m)) for i in (1, 2, 3)}
        stated.add((flat_index(3, 2, 3), (-1, 0, m)))
        stated.add((flat_index(3, 3, 1), (-1, 0, m)))
    res = h1(end_bundle(e_prime), DegreeBox.make(-4, -1, (1, 5), 2))
    assert set(res.generator_keys()) == stated
    assert isinstance(res.certification, Exact)


# -- the closed-form exact tier -------------------------------------------------


@pytest.mark.parametrize("family, k", [("Z", -1), ("Z", 1), ("Z", 2), ("Z", 3),
                                       ("W", 1), ("W", 2), ("W", 3)])
def test_closed_form_slices_match_polynomial_oracle(family, k):
    from itertools import product

    space = make_standard_space(family, k)
    tangent = tangent_bundle(space)
    for bundle in (line_bundle(space, -2), line_bundle(space, 3), tangent, end_bundle(tangent)):
        model = CechEngine(bundle).exact
        assert model is not None
        fiber = [range(-3, 6)] * space.fiber_count
        for chi in product(range(-7, 5), *fiber):
            got = [(tag, list(vec.items())) for tag, vec in model.slice_generators(chi)]
            want = [(tag, list(vec.items())) for tag, vec in poly_slice_generators(model, chi)]
            assert repr(got) == repr(want), (bundle.name, chi)


def _count_slice_spans(monkeypatch):
    built = []
    real = cech._ExactModel.slice_span

    def counting(self, chi):
        built.append(chi)
        return real(self, chi)

    monkeypatch.setattr(cech._ExactModel, "slice_span", counting)
    return built


def test_exact_reduce_builds_only_the_slices_its_class_meets(monkeypatch):
    built = _count_slice_spans(monkeypatch)
    bundle = tangent_bundle(make_standard_space("W", 2))
    box = DegreeBox.make(-4, 1, 3, 2)
    engine = CechEngine(bundle)
    res = engine.reduce(monomial_class(bundle, 2, (-1, 1, 2)), box)
    assert isinstance(res.certification, Exact)
    assert len(built) == 1
    keys = [(0, (-3, 0, 1)), (1, (-1, 1, 2)), (2, (-2, 2, 0)), (1, (0, 3, 3))]
    chis = {engine.exact.slice_of(key) for key in keys}
    assert len(chis) == len(keys)
    built.clear()
    engine.reduce(_vec_to_class(bundle, {key: Fraction(1) for key in keys}), box)
    assert sorted(built) == sorted(chis)


def test_exact_h1_makes_no_polynomial_products(monkeypatch):
    bundle = tangent_bundle(make_standard_space("W", 2))

    def forbidden(*args):
        raise AssertionError("polynomial arithmetic in the exact tier")

    for name in ("__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(LaurentPoly, name, forbidden)
    res = CechEngine(bundle).h1(DegreeBox.make(-4, 1, 2, 2))
    assert res.dim > 0 and isinstance(res.certification, Exact)
