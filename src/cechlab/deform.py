"""Deformation families, the standard family table and the affineness probe.

A family perturbs the U coordinates by a parameter combination of tangent
cocycles before applying the diagonal monomial transition:

    (xi, v_1..v_f) = diag * ( (z, u_1..u_f) + sum_s t_s * sigma_s )

Integrability here means literally: the perturbed two-chart gluing admits an
explicit polynomial inverse and both composites are the identity for all
parameter values, which is validated symbolically at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .bundles import line_bundle
from .cech import (
    CechClass,
    CechError,
    CechEngine,
    DegreeBox,
    WitnessFound,
    make_class,
    verify_witness,
    window_monomials,
)
from .ring import InputError, LaurentPoly, RingSig, U_FRAME, UsageError, V_FRAME
from .spaces import ChartMap, TwoChartSpace, make_standard_space


class NonInvertiblePerturbation(ValueError):
    """Triangular back-substitution failed to invert the perturbed map."""


@dataclass
class DeformationFamily:
    base_space: TwoChartSpace
    cocycles: List[Tuple[LaurentPoly, ...]]  # tangent-valued, U-frame, base ring
    labels: List[int]  # cocycle s is the direction of parameter t<labels[s]>
    param_values: Optional[List[Fraction]]  # None = symbolic
    perturbed: TwoChartSpace

    @property
    def symbolic(self) -> bool:
        return self.param_values is None

    def at_params(self, values: Sequence[Fraction]) -> "DeformationFamily":
        """Specialize a symbolic family to numeric parameter values."""
        if not self.symbolic:
            raise ValueError("family already numeric")
        return build_family(self.base_space, self.cocycles, list(values), self.labels)


def _diagonal_factors(space: TwoChartSpace) -> List[LaurentPoly]:
    """Monomials d_i with forward_i = d_i * coordinate_i."""
    ring = space.uring
    out = []
    for i, fwd in enumerate(space.transition.forward):
        coord = LaurentPoly.var(ring, i)
        if not fwd.is_monomial():
            raise NonInvertiblePerturbation(
                "family construction needs a monomial base transition"
            )
        (exp_f,) = list(fwd.terms)
        (exp_c,) = list(coord.terms)
        diff = tuple(a - b for a, b in zip(exp_f, exp_c))
        if any(e < 0 for e in diff[1:]):
            raise NonInvertiblePerturbation(
                f"forward image {fwd} is not a monomial multiple of coordinate {i}"
            )
        out.append(LaurentPoly.monomial(ring, diff, fwd.terms[exp_f]))
    return out


def build_family(
    space: TwoChartSpace,
    cocycles: Sequence[Sequence[LaurentPoly]],
    param_values: Optional[Sequence[Fraction]] = None,
    labels: Optional[Sequence[int]] = None,
) -> DeformationFamily:
    """Glue the family over the given tangent cocycles.

    ``param_values`` None keeps t_1..t_p symbolic, as positional ring
    variables; otherwise the parameters are fixed to the given rationals and
    the result is an ordinary space, named by the ``labels`` (default
    1..p) of its nonzero parameters.  Cocycles must have zero base component
    (the chart invariant xi = z^-1 is kept) and the perturbed fiber map must
    invert by triangular back-substitution.
    """
    if not space.params_numeric:
        raise NonInvertiblePerturbation("base space already carries parameters")
    p = len(cocycles)
    ncoords = 1 + space.fiber_count
    for sigma in cocycles:
        if len(sigma) != ncoords:
            raise ValueError("cocycle arity does not match the space")
        if not sigma[0].is_zero():
            raise NonInvertiblePerturbation(
                "cocycles with a nonzero base component would break the xi = z^-1 chart"
            )

    numeric = param_values is not None
    if numeric and len(param_values) != p:
        raise ValueError("parameter count mismatch")
    labels = list(range(1, p + 1)) if labels is None else list(labels)
    nparams = 0 if numeric else p
    uring = RingSig(space.fiber_count, nparams, U_FRAME)
    vring = RingSig(space.fiber_count, nparams, V_FRAME)

    def lift(poly: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(
            uring, {exp + (0,) * nparams: c for exp, c in poly.terms.items()}
        )

    diag = [lift(d) for d in _diagonal_factors(space)]
    if numeric:
        tvals = [LaurentPoly.const(uring, v) for v in param_values]
    else:
        tvals = [LaurentPoly.var(uring, 1 + space.fiber_count + s) for s in range(p)]

    forward: List[LaurentPoly] = []
    for i in range(ncoords):
        acc = lift(space.transition.forward[i])
        for s in range(p):
            acc = acc + diag[i] * tvals[s] * lift(cocycles[s][i])
        forward.append(acc)

    inverse = _invert_triangular(forward, uring, vring)
    chart = ChartMap(tuple(forward), tuple(inverse))
    if numeric:
        vals = ",".join(f"t{t}={v}" for t, v in zip(labels, param_values) if v != 0)
        name = f"{space.name}[{vals or 't=0'}]"
    else:
        name = f"{space.name}[family]"
    perturbed = TwoChartSpace(name, space.fiber_count, chart)
    return DeformationFamily(
        space,
        [tuple(c) for c in cocycles],
        labels,
        list(param_values) if numeric else None,
        perturbed,
    )


def standard_family(
    family: str,
    k: int,
    values: Optional[Mapping[int, Fraction]] = None,
    jmax: int = 4,
) -> DeformationFamily:
    """The standard deformation family of W_2, W_3 or Z_k (k >= 2).

    This is the one table of the standard families' tangent cocycles and
    parameter labels:

    * W_2: t_j pairs with (0, z^-1 u2^j, 0) for j = 0..jmax;
    * W_3: t1 pairs with (0, z^-2, 0) and t2 with (0, z^-1, 0);
    * Z_k: t_s pairs with (0, z^(s-k)) for s = 1..k-1.

    ``values`` maps labels to rationals, and a missing label is 0; None
    keeps the family symbolic, with positional ring variables t1..tp (so
    in the W_2 family ring variable t_(j+1) multiplies u2^j).  A label the
    family does not have, or a negative ``jmax``, is a UsageError.
    """
    if jmax < 0:
        raise UsageError(f"jmax must be >= 0, got {jmax}")
    base = make_standard_space(family, k)
    ring = base.uring
    z = LaurentPoly.var(ring, 0)
    zero = LaurentPoly.zero(ring)
    if family == "W" and k == 2:
        u2 = LaurentPoly.var(ring, 2)
        table = {j: (zero, z ** -1 * u2 ** j, zero) for j in range(jmax + 1)}
    elif family == "W" and k == 3:
        table = {1: (zero, z ** -2, zero), 2: (zero, z ** -1, zero)}
    elif family == "Z" and k >= 2:
        table = {s: (zero, z ** (s - k)) for s in range(1, k)}
    else:
        raise UsageError(f"no standard deformation family for {base.name}")
    if values is not None:
        unknown = sorted(set(values) - set(table))
        if unknown:
            names = ", ".join(f"t{t}" for t in table)
            raise UsageError(f"the {base.name} family has parameters {names}; no t{unknown[0]}")
        values = [values.get(t, Fraction(0)) for t in table]
    return build_family(base, list(table.values()), values, list(table))


def _invert_triangular(
    forward: Sequence[LaurentPoly], uring: RingSig, vring: RingSig
) -> List[LaurentPoly]:
    """Solve (z, u_i) in terms of (xi, v_i) by back-substitution.

    Each solvable coordinate i must appear in forward_i as a single diagonal
    term d * z^e * u_i, with every remaining term free of u_i and of the
    still-unsolved fibers; fails with NonInvertiblePerturbation when the
    dependency graph has a cycle.
    """
    f = uring.fibers
    xi = LaurentPoly.var(vring, 0)
    solved: Dict[int, LaurentPoly] = {0: xi ** -1}  # z = xi^-1
    pending = set(range(1, 1 + f))
    while pending:
        progress = False
        for i in sorted(pending):
            fwd = forward[i]
            diag = None  # (z power, coefficient)
            residual_terms = {}
            ok = True
            for exp, coeff in fwd.terms.items():
                if exp[i] == 0:
                    residual_terms[exp] = coeff
                    continue
                fiber_part = exp[1 : 1 + f]
                if (
                    exp[i] == 1
                    and sum(fiber_part) == 1
                    and all(exp[1 + f + s] == 0 for s in range(uring.params))
                    and diag is None
                ):
                    diag = (exp[0], coeff)
                else:
                    ok = False
                    break
            if not ok or diag is None:
                continue
            residual = LaurentPoly(uring, residual_terms)
            used = {
                j for exp in residual.terms for j in range(1, 1 + f) if exp[j] != 0
            }
            if not used.issubset(solved):
                continue
            images = dict(solved)
            for j in pending:
                if j != i:
                    images[j] = LaurentPoly.zero(vring)  # residual is free of these
            expr = residual.substitute(images, vring)
            e, d = diag
            v_i = LaurentPoly.var(vring, i)
            solved[i] = (v_i - expr) * (Fraction(1) / d) * xi ** e
            pending.discard(i)
            progress = True
            break
        if not progress:
            raise NonInvertiblePerturbation(
                "perturbed map is not triangular; cannot back-substitute"
            )
    return [solved[j] for j in range(1 + f)]


# -- affineness probe ----------------------------------------------------------


@dataclass
class DegreeProbe:
    degree: int
    verdict: str  # "not-affine" | "no-obstruction-in-box"
    certification: object
    witness_class: Optional[CechClass]
    witnesses: List[Tuple[CechClass, WitnessFound]]

    def as_dict(self):
        out = {
            "degree": self.degree,
            "verdict": self.verdict,
            "certification": self.certification.as_dict(),
        }
        if self.witness_class is not None:
            out["witnessClass"] = str(self.witness_class)
        out["coboundaryWitnesses"] = len(self.witnesses)
        return out


@dataclass
class AffinenessReport:
    space_name: str
    probes: List[DegreeProbe]

    @property
    def verdict(self) -> str:
        if any(p.verdict == "not-affine" for p in self.probes):
            return "not affine"
        return "no obstruction found in box"

    def as_dict(self):
        return {
            "space": self.space_name,
            "verdict": self.verdict,
            "probes": [p.as_dict() for p in self.probes],
        }


def affineness_probe(
    space: TwoChartSpace, degrees: Sequence[int], box: DegreeBox
) -> AffinenessReport:
    """Probe H^1(space, O(n)) for the given degrees.

    A certified-nonzero class proves non-affineness (affine spaces have no
    higher coherent cohomology); an all-zero window only reports that no
    obstruction was found, with an explicit coboundary witness per window
    class.  An empty ``degrees`` is an InputError, since it checks nothing.
    """
    if not degrees:
        raise InputError("no degree to probe")
    probes = []
    for n in degrees:
        bundle = line_bundle(space, n)
        engine = CechEngine(bundle)
        res = engine.h1(box)
        if res.generators:
            comp, mono = res.generators[0]
            witness_class = make_class(
                bundle,
                [
                    mono if c + 1 == comp else LaurentPoly.zero(space.uring)
                    for c in range(bundle.rank)
                ],
            )
            probes.append(
                DegreeProbe(n, "not-affine", res.certification, witness_class, [])
            )
            continue
        witnesses = []
        ring = space.uring
        for _, exp in window_monomials(box, 1):
            if exp[0] >= 0:
                continue
            cls = make_class(bundle, [LaurentPoly.monomial(ring, exp)])
            ok, cert = engine.is_coboundary(cls, box)
            if not ok:
                probes.append(DegreeProbe(n, "not-affine", cert, cls, []))
                break
            if not verify_witness(bundle, cls, cert):
                raise CechError(f"coboundary witness for {cls} failed re-validation")
            witnesses.append((cls, cert))
        else:
            probes.append(
                DegreeProbe(n, "no-obstruction-in-box", res.certification, None, witnesses)
            )
    return AffinenessReport(space.name, probes)
