"""Built-in claim suite: machine checks for the computational statements
about the spaces Z_k and W_k that this package mechanizes.

Each claim produces a record with a status:

* ``verified``: every assertion passed with a machine-checked certificate;
* ``discrepancy-flagged``: the computation succeeded but the computed data
  differs from the stated generator list; both sets are attached (these exit
  with a warning, not a failure);
* ``failed``: an assertion did not hold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import cech, deform, moduli
from .bundles import (
    end_bundle,
    extension_bundle,
    flat_index,
    line_bundle,
    mat_det,
    pullback_bundle,
    tangent_bundle,
)
from .cech import CechEngine, DegreeBox, Exact, StableInBox, monomial_class, verify_witness
from .linalg import cokernel_basis, rank, solve
from .moduli import generic_moduli_dim, splitting_type
from .ring import InputError, LaurentPoly, RingSig, exp_trunc
from .spaces import hirzebruch_verify, make_standard_space


@dataclass
class ClaimRecord:
    claim_id: str
    anchor: str
    status: str = "failed"  # verified | failed | discrepancy-flagged
    artifacts: Dict = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {
            "claimId": self.claim_id,
            "anchor": self.anchor,
            "status": self.status,
            "artifacts": self.artifacts,
            "notes": self.notes,
        }


def _gen_list(res: cech.H1Result) -> List[Dict]:
    out = []
    for comp, poly in res.generators:
        (exp,) = list(poly.terms)
        names = poly.ring.var_names()
        out.append(
            {
                "component": comp,
                "exponents": dict(zip(names, exp)),
                "coeff": "1",
            }
        )
    return out


def _h1_artifacts(res: cech.H1Result) -> Dict:
    return {
        "generators": _gen_list(res),
        "dims": [
            {"fiberDegree": d, "dim": res.dims_by_fiber_degree[d]}
            for d in sorted(res.dims_by_fiber_degree)
        ],
        "certification": res.certification.as_dict(),
        "box": res.box.as_dict(),
        "pattern": res.pattern,
    }


# -- individual claims ---------------------------------------------------------


def claim_w1_rigidity() -> ClaimRecord:
    rec = ClaimRecord("W1-rigidity", "H^1(W_1, TW_1) = 0")
    space = make_standard_space("W", 1)
    bundle = tangent_bundle(space)
    box = DegreeBox.make(-8, 2, 8, 2)
    res = cech.h1(bundle, box)
    rec.artifacts = _h1_artifacts(res)
    if res.generators == [] and isinstance(res.certification, Exact):
        rec.status = "verified"
    else:
        rec.status = "failed"
        rec.notes.append(f"expected empty Exact basis, got {len(res.generators)} classes")
    return rec


def claim_w2_tangent_basis() -> ClaimRecord:
    rec = ClaimRecord(
        "W2-tangent-basis",
        "H^1(W_2, TW_2) generated by (0, z^-1 u2^j, 0), j >= 0",
    )
    space = make_standard_space("W", 2)
    bundle = tangent_bundle(space)
    box = DegreeBox.make(-8, 2, 8, 2)
    res = cech.h1(bundle, box)
    rec.artifacts = _h1_artifacts(res)
    expected = {(2, (-1, 0, j)) for j in range(0, 9)}
    got = set(res.generator_keys())
    if got == expected and isinstance(res.certification, Exact):
        rec.status = "verified"
    else:
        rec.status = "failed"
        rec.notes.append(f"basis mismatch: extra {got - expected}, missing {expected - got}")
    return rec


def claim_w3_tangent_window() -> ClaimRecord:
    rec = ClaimRecord(
        "W3-tangent-window",
        "nontrivial tangent cocycles (0, z^l u1^i u2^j, 0) on W_3 satisfy 3i-3-l-j < 0",
    )
    space = make_standard_space("W", 3)
    bundle = tangent_bundle(space)
    box = DegreeBox.make(-12, -1, 4, 2)
    engine = CechEngine(bundle)
    if engine.exact is None:
        rec.status = "failed"
        rec.notes.append("expected exact graded mode for W_3 tangent")
        return rec
    window = [
        (2, (l, i, j))
        for l in range(-12, 0)
        for i in range(0, 5)
        for j in range(0, 5)
        if 3 * i - 3 - l - j < 0
    ]
    # sigma_1 and sigma_2 are the (l, i, j) = (-1, 0, 0) and (-2, 0, 0) entries
    assert (2, (-1, 0, 0)) in window and (2, (-2, 0, 0)) in window
    independent = len(engine.split_independent([(c - 1, e) for c, e in window])[0])
    res = engine.h1(box)
    rec.artifacts = _h1_artifacts(res)
    rec.artifacts["windowClassCount"] = len(window)
    rec.artifacts["independentCount"] = independent
    extras = sorted(set(res.generator_keys()) - set(window))
    rec.artifacts["extraClasses"] = [
        {"component": c, "exponents": list(e)} for c, e in extras
    ]
    if independent != len(window) or not isinstance(res.certification, Exact):
        rec.status = "failed"
        rec.notes.append(
            f"only {independent} of {len(window)} window classes are jointly nontrivial"
        )
        return rec
    if extras:
        rec.status = "discrepancy-flagged"
        rec.notes.append(
            f"{len(extras)} classes outside the stated window (components 1/3); "
            "the stated description is partial and the full basis is attached"
        )
    else:
        rec.status = "verified"
    return rec


def claim_zminus1_classes() -> ClaimRecord:
    rec = ClaimRecord(
        "Zminus1-classes",
        "H^1(Z_(-1), O(-2)) contains z^l u^i for l = -2, -1 and i >= 1",
    )
    space = make_standard_space("Z", -1)
    bundle = line_bundle(space, -2)
    box = DegreeBox.make(-12, -1, 8, 1)
    engine = CechEngine(bundle)
    stated = [(1, (l, i)) for i in range(1, 9) for l in (-2, -1)]
    independent = len(engine.split_independent([(c - 1, e) for c, e in stated])[0])
    res = engine.h1(box)
    rec.artifacts = _h1_artifacts(res)
    got = set(res.generator_keys())
    expected_window = {
        (1, (l, i)) for i in range(0, 9) for l in range(-1 - i, 0) if -12 <= l
    }
    rec.artifacts["statedCount"] = len(stated)
    rec.artifacts["computedCount"] = len(got)
    difference = sorted(got - set(stated))
    rec.artifacts["beyondStated"] = [
        {"component": c, "exponents": list(e)} for c, e in difference
    ]
    if independent != len(stated):
        rec.status = "failed"
        rec.notes.append("a stated class failed nontriviality or independence")
        return rec
    if got != expected_window:
        rec.status = "failed"
        rec.notes.append(
            f"computed basis does not match the derived window: {sorted(got ^ expected_window)}"
        )
        return rec
    rec.status = "discrepancy-flagged"
    rec.notes.append(
        "computed basis is the window -1-i <= l <= -1 (i >= 0), strictly larger "
        "than the stated set {l = -2, -1; i >= 1}; both attached"
    )
    return rec


def claim_nonalgebraic_eu() -> ClaimRecord:
    rec = ClaimRecord(
        "Nonalgebraic-eu",
        "the extension class z^-2 e^u is non-polynomial on Z_(-1), splits on Z_1, "
        "and pulls back non-polynomially to W_3",
    )
    cutoff = 10
    zm1 = make_standard_space("Z", -1)
    z1 = make_standard_space("Z", 1)
    w3 = make_standard_space("W", 3)

    def series(space):
        ring = space.uring
        z = LaurentPoly.var(ring, 0)
        u = LaurentPoly.var(ring, 1)
        return z ** -2 * exp_trunc(u, cutoff)

    v1 = moduli.extension_verdict(zm1, -1, 1, series(zm1), cutoff)
    v2 = moduli.extension_verdict(z1, -1, 1, series(z1), cutoff)
    ring3 = w3.uring
    z3 = LaurentPoly.var(ring3, 0)
    u2 = LaurentPoly.var(ring3, 2)
    v3 = moduli.extension_verdict(w3, -1, 1, z3 ** -2 * exp_trunc(u2, cutoff), cutoff)
    # the pullback of the defining bundle exists and lands on W_3
    ext = extension_bundle(zm1, -1, 1, series(zm1))
    pulled = pullback_bundle(ext, w3, {1: 2})
    rec.artifacts = {
        "onZminus1": v1.as_dict(),
        "onZ1": v2.as_dict(),
        "onW3": v3.as_dict(),
        "pulledBundle": str(pulled),
    }
    ok = (
        v1.kind == "NonPolynomialUpTo"
        and v1.degree == cutoff
        and v2.kind == "SplitZero"
        and v3.kind == "NonPolynomialUpTo"
        and v3.degree == cutoff
    )
    rec.status = "verified" if ok else "failed"
    if not ok:
        rec.notes.append(f"verdicts: {v1.kind}, {v2.kind}, {v3.kind}")
    return rec


def claim_w2_end_infinite() -> ClaimRecord:
    rec = ClaimRecord(
        "W2-End-infinite",
        "H^1(W_2, End(TW_2)) contains z^-1 u1 u2^m and z^-i u2^m (i=1,2,3) at "
        "matrix entry (2,1) and z^-1 u2^m at entries (2,3) and (3,1), all m",
    )
    space = make_standard_space("W", 2)
    bundle = end_bundle(tangent_bundle(space))
    engine = CechEngine(bundle)
    if engine.exact is None:
        rec.status = "failed"
        rec.notes.append("End(TW_2) should be a monomial model")
        return rec
    stated = []
    for m in range(0, 6):
        stated.append((flat_index(3, 2, 1), (-1, 1, m)))
        for i in (1, 2, 3):
            stated.append((flat_index(3, 2, 1), (-i, 0, m)))
        stated.append((flat_index(3, 2, 3), (-1, 0, m)))
        stated.append((flat_index(3, 3, 1), (-1, 0, m)))
    independent, trivial = engine.split_independent([(c - 1, e) for c, e in stated])
    box = DegreeBox.make(-4, -1, (1, 5), 2)
    res = engine.h1(box)
    by_u2: Dict[int, int] = {}
    for comp, poly in res.generators:
        (exp,) = list(poly.terms)
        by_u2[exp[2]] = by_u2.get(exp[2], 0) + 1
    rec.artifacts = _h1_artifacts(res)
    rec.artifacts["dimsByU2Degree"] = [
        {"u2Degree": d, "dim": by_u2[d]} for d in sorted(by_u2)
    ]
    rec.artifacts["matrixEntryConvention"] = (
        "flat index = 3*(row-1) + col (row-major); positions 4, 6, 7 are "
        "entries (2,1), (2,3), (3,1)"
    )
    rec.artifacts["statedClassCount"] = len(stated)
    rec.artifacts["independentCount"] = len(independent)
    expected_trivial = {(flat_index(3, 2, 1) - 1, (-1, 1, m)) for m in range(0, 6)}
    if not trivial:
        rec.status = "verified"
        return rec
    if set(trivial) == expected_trivial and len(independent) == 30:
        # the u1-bearing family is exactly a coboundary; attach the witness
        witnesses = []
        for comp0, exp in sorted(trivial):
            cls = monomial_class(bundle, comp0 + 1, exp)
            ok, cert = engine.is_coboundary(
                cls, DegreeBox.make(-6, 2, (2, exp[2] + 1), 2)
            )
            if not (ok and verify_witness(bundle, cls, cert)):
                rec.status = "failed"
                rec.notes.append(f"no re-validated witness for {cls}")
                return rec
            witnesses.append(
                {
                    "class": str(cls.components[comp0]),
                    "entry": "(2,1)",
                    "alpha": [str(p) for p in cert.alpha if not p.is_zero()],
                    "beta": [str(p) for p in cert.beta if not p.is_zero()],
                }
            )
        rec.artifacts["statedButTrivial"] = witnesses
        rec.status = "discrepancy-flagged"
        rec.notes.append(
            "the stated family z^-1 u1 u2^m at entry (2,1) is an exact coboundary "
            "(witness attached: 1/2 u2^m E11 on U, -1/2 v2^m E11 on V); the computed "
            "basis is exactly the remaining five stated families, 5 classes per "
            "u2-degree, so the infinite-dimensionality statement stands"
        )
        rec.notes.append(
            "row-major flattening is the only convention matching the stated list "
            "(col-major and reversed conjugation orientation match 0 of 36)"
        )
        return rec
    rec.status = "failed"
    rec.notes.append(
        f"unexpected triviality pattern: {sorted(trivial)}; independent {len(independent)}"
    )
    return rec


def claim_moduli_dimensions() -> ClaimRecord:
    rec = ClaimRecord(
        "Moduli-dimensions",
        "generic moduli of splitting type (-j, j): dimension 4j-5 on W_k, "
        "2j-k-2 on Z_k",
    )
    grid = []
    ok = True
    for k in (1, 2, 3):
        space = make_standard_space("W", k)
        for j in range(2, 7):
            rep = generic_moduli_dim(space, j)
            grid.append(rep.as_dict())
            ok = ok and rep.agrees
    for k in (1, 2, 3):
        space = make_standard_space("Z", k)
        for j in range(1, 7):
            if 2 * j - k - 2 < 0:
                continue
            rep = generic_moduli_dim(space, j)
            grid.append(rep.as_dict())
            ok = ok and rep.agrees
    rec.artifacts = {"grid": grid}
    rec.status = "verified" if ok else "failed"
    if not ok:
        rec.notes.append("a grid point disagrees with the closed formula")
    return rec


def claim_nonaffine_w2_deformed() -> ClaimRecord:
    rec = ClaimRecord(
        "NonAffine-W2-deformed",
        "H^1 of O(-4) on the t1 = 1 deformation of W_2 contains z^-1; "
        "the deformation is not affine",
    )
    space = deform.standard_family("W", 2, {1: Fraction(1)}, jmax=1).perturbed
    bundle = line_bundle(space, -4)
    box = DegreeBox.make(-8, 8, 6, 2, escalation_step=4, stability_rounds=2)
    cls = monomial_class(bundle, 1, (-1, 0, 0))
    ok, cert = cech.is_coboundary(bundle, cls, box)
    rec.artifacts = {
        "space": str(space),
        "class": str(cls),
        "isCoboundary": ok,
        "certification": cert.as_dict(),
    }
    if (not ok) and isinstance(cert, StableInBox) and cert.rounds >= 2:
        rec.status = "verified"
    else:
        rec.status = "failed"
        rec.notes.append(f"expected stable non-coboundary, got {ok}, {cert}")
    return rec


def claim_affine_zk_deformed() -> ClaimRecord:
    rec = ClaimRecord(
        "Affine-Zk-deformed",
        "every probed window class on the t1 = 1 deformation of Z_2 is an "
        "explicit coboundary (degrees -1, -2, -3)",
    )
    space = deform.standard_family("Z", 2, {1: Fraction(1)}).perturbed
    box = DegreeBox.make(-6, 2, 6, 1)
    report = deform.affineness_probe(space, [-1, -2, -3], box)
    rec.artifacts = report.as_dict()
    probed = sum(len(p.witnesses) for p in report.probes)
    rec.artifacts["witnessCount"] = probed
    if report.verdict == "no obstruction found in box" and probed > 0:
        rec.status = "verified"
        rec.notes.append("every witness re-validated by substitution")
    else:
        rec.status = "failed"
        rec.notes.append(f"verdict: {report.verdict}")
    return rec


def claim_families_glue() -> ClaimRecord:
    rec = ClaimRecord(
        "Families-glue",
        "the deformation families (z^-1, z^2 u1 + sum t_j z u2^j, u2), "
        "(z^-1, z^3 u1 + t2 z^2 + t1 z, z^-1 u2) and "
        "(z^-1, z^k u + t_{k-1} z^{k-1} + ... + t_1 z) glue for symbolic t "
        "and recover the base transition at t = 0",
    )
    families = {
        name: deform.standard_family(name[0], int(name[1:]))
        for name in ("W2", "W3", "Z2", "Z3", "Z4")
    }
    rec.artifacts = {name: str(fam.perturbed) for name, fam in families.items()}
    for name, fam in families.items():
        at0 = fam.at_params([Fraction(0)] * len(fam.cocycles)).perturbed
        if at0.transition.forward != fam.base_space.transition.forward:
            rec.notes.append(f"the {name} family does not recover the base at t = 0")
    # W_3: t1 pairs with z^-2, t2 with z^-1
    w3 = families["W3"].perturbed
    z, u1, t1, t2 = (LaurentPoly.var(w3.uring, i) for i in (0, 1, 3, 4))
    if w3.transition.forward[1] != z ** 3 * u1 + t2 * z ** 2 + t1 * z:
        rec.notes.append(f"W3 family: {w3.transition.forward[1]}")
    rec.status = "failed" if rec.notes else "verified"
    return rec


def claim_hirzebruch() -> ClaimRecord:
    rec = ClaimRecord(
        "Hirzebruch-identities",
        "the z-shift family of Z_k satisfies the embedding identities "
        "l_0 (x_1..x_k) = l_1 (x_2 - t_1 x_0, ..., x_{k+1}) for symbolic t",
    )
    results = {}
    ok = True
    for k in (2, 3, 4, 5):
        res = hirzebruch_verify(k)
        results[f"k={k}"] = "ok" if res is None else f"residual {res}"
        ok = ok and res is None
    # mutation: dropping the t1 z term must produce a residual
    ring = RingSig(1, 1, "U")
    bad = hirzebruch_verify(
        2, perturbation=-(LaurentPoly.var(ring, 2) * LaurentPoly.var(ring, 0))
    )
    results["k=2 corrupted"] = "ok" if bad is None else "counterexample found"
    ok = ok and bad is not None
    rec.artifacts = results
    rec.status = "verified" if ok else "failed"
    return rec


def claim_cy_determinant() -> ClaimRecord:
    rec = ClaimRecord(
        "CY-determinant",
        "det of the W_k tangent transition is the constant -1; randomized "
        "property suites for the exact kernels",
    )
    ok = True
    dets = {}
    rng = random.Random(20240901)
    ks = [1, 2, 3] + [rng.randint(-5, 5) for _ in range(3)]
    for k in ks:
        space = make_standard_space("W", k)
        det = mat_det(tangent_bundle(space).M)
        dets[f"k={k}"] = str(det)
        ok = ok and det == LaurentPoly.const(space.uring, -1)

    # 1000 randomized ring-axiom cases
    ring = RingSig(2, 0, "U")

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exp = (rng.randint(-4, 4), rng.randint(0, 3), rng.randint(0, 3))
            terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return LaurentPoly(ring, terms)

    ring_cases = 0
    for _ in range(1000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ok = ok and (
            (a + b) + c == a + (b + c)
            and a * b == b * a
            and a * (b + c) == a * b + a * c
            and (a * b) * c == a * (b * c)
        )
        ring_cases += 1

    # rank-nullity and solve re-multiplication
    def mul(mat, vec):
        return [sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in mat]

    la_cases = 0
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        ok = ok and rank(mat) + len(cokernel_basis(mat)) == rows
        x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = mul(mat, x)
        y = solve(mat, b)
        ok = ok and mul(mat, y) == b
        la_cases += 1

    # splitting factorization re-multiplication on random triangular matrices
    zring = RingSig(0, 0, "U")
    z = LaurentPoly.var(zring, 0)
    fact_cases = 0
    for _ in range(60):
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        off = LaurentPoly(
            zring,
            {
                (rng.randint(-3, 3),): Fraction(rng.randint(-5, 5))
                for _ in range(rng.randint(0, 3))
            },
        )
        mat = ((z ** a, off), (LaurentPoly.zero(zring), z ** b))
        st, _witness = splitting_type(mat, with_witness=True)
        # det = z^{a+b}, so the type sums to -(a+b)
        ok = ok and sum(st.degrees) == -(a + b)
        fact_cases += 1

    rec.artifacts = {
        "determinants": dets,
        "ringAxiomCases": ring_cases,
        "linearAlgebraCases": la_cases,
        "factorizationCases": fact_cases,
    }
    rec.status = "verified" if ok else "failed"
    return rec


CLAIMS: Dict[str, Callable[[], ClaimRecord]] = {
    "W1-rigidity": claim_w1_rigidity,
    "W2-tangent-basis": claim_w2_tangent_basis,
    "W3-tangent-window": claim_w3_tangent_window,
    "Zminus1-classes": claim_zminus1_classes,
    "Nonalgebraic-eu": claim_nonalgebraic_eu,
    "W2-End-infinite": claim_w2_end_infinite,
    "Moduli-dimensions": claim_moduli_dimensions,
    "NonAffine-W2-deformed": claim_nonaffine_w2_deformed,
    "Affine-Zk-deformed": claim_affine_zk_deformed,
    "Families-glue": claim_families_glue,
    "Hirzebruch-identities": claim_hirzebruch,
    "CY-determinant": claim_cy_determinant,
}


class UnknownClaimError(InputError):
    pass


def run_claim_suite(selection: Optional[List[str]] = None) -> Tuple[int, List[ClaimRecord]]:
    """Run all (or the selected) claims; exit code 0 unless a claim failed.

    Discrepancy-flagged claims are documented disagreements between the
    stated generator lists and the computed bases; they exit 0 with a warning.
    """
    ids = list(CLAIMS) if selection is None else list(selection)
    for cid in ids:
        if cid not in CLAIMS:
            raise UnknownClaimError(f"unknown claim id {cid!r}")
    records = []
    for cid in ids:
        try:
            records.append(CLAIMS[cid]())
        except Exception as exc:  # a crash is a failure, not a silent skip
            records.append(
                ClaimRecord(cid, "", "failed", notes=[f"exception: {exc!r}"])
            )
    records.sort(key=lambda r: r.claim_id)
    exit_code = 1 if any(r.status == "failed" for r in records) else 0
    return exit_code, records
