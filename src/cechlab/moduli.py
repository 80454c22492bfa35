"""Splitting types, extension-class verdicts and moduli dimension counts.

The splitting type of a restricted transition matrix A(z) with unit-monomial
determinant is computed by an explicit factorization A = G * D * Q with G
invertible over polynomials in z^-1, D a diagonal of z powers and Q
unimodular over polynomials in z.  The algorithm clears denominators and
column-reduces the polynomial matrix; the sum of column degrees strictly
decreases at each step, so it terminates, and when the leading-column
coefficient matrix becomes invertible the z^-1-side factor falls out for
free.  The factorization witness is re-multiplied on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .bundles import Matrix, mat_mul
from .cech import CechClass, CechEngine, DegreeBox, make_class
from .bundles import line_bundle
from .linalg import nullspace
from .ring import InputError, LaurentPoly, RingSig
from .spaces import TwoChartSpace


class NonUnitDeterminant(InputError):
    """Splitting type needs an invertible matrix with monomial determinant."""


@dataclass(frozen=True)
class SplittingType:
    degrees: Tuple[int, ...]

    def __post_init__(self):
        if list(self.degrees) != sorted(self.degrees):
            raise ValueError("splitting type must be sorted nondecreasing")

    def __str__(self):
        return "(" + ", ".join(str(a) for a in self.degrees) + ")"


@dataclass(frozen=True)
class BirkhoffFactorization:
    """A = neg_factor * diag(z^{d_j}) * pos_factor, with neg_factor invertible
    over polynomials in z^-1 and pos_factor unimodular over polynomials in z."""

    neg_factor: Matrix
    diag_powers: Tuple[int, ...]
    pos_factor: Matrix


def _as_zmatrix(rows: Sequence[Sequence[LaurentPoly]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def splitting_type(matrix: Matrix, with_witness: bool = False):
    """Splitting exponents (a_1 <= ... <= a_r) of a z-only transition matrix,
    read off the diagonal z^{-a_i} of its factorization."""
    r = len(matrix)
    ring = matrix[0][0].ring
    if ring.fibers != 0:
        restricted = [[e.restrict_fibers_zero() for e in row] for row in matrix]
        zring = RingSig(0, ring.params, ring.frame)
        matrix = _as_zmatrix(
            [
                [
                    LaurentPoly(zring, {(exp[0],) + exp[1 + ring.fibers:]: c for exp, c in e.terms.items()})
                    for e in row
                ]
                for row in restricted
            ]
        )
        ring = zring
    if ring.params != 0:
        raise NonUnitDeterminant("splitting type needs numeric parameters")
    from .bundles import mat_det

    det = mat_det(matrix)
    if len(det.terms) != 1:
        raise NonUnitDeterminant(f"determinant {det} is not a unit monomial")

    # clear denominators: P = z^N * A is polynomial in z
    nmin = min(min(e.base_range()[0] for e in row if not e.is_zero()) for row in matrix)
    n_shift = max(0, -nmin)
    z = LaurentPoly.var(ring, 0)
    P = [[e * z ** n_shift for e in row] for row in matrix]

    # column reduction over C[z]: accumulated right factor starts as identity
    one = LaurentPoly.const(ring, 1)
    zero = LaurentPoly.zero(ring)
    Q = [[one if i == j else zero for j in range(r)] for i in range(r)]

    def col_deg(j: int) -> int:
        degs = [P[i][j].base_range()[1] for i in range(r) if not P[i][j].is_zero()]
        if not degs:
            raise NonUnitDeterminant("zero column during reduction")
        return max(degs)

    def lead_coeff(i: int, j: int, d: int) -> Fraction:
        return P[i][j].terms.get((d,) + (0,) * ring.params, Fraction(0))

    while True:
        degs = [col_deg(j) for j in range(r)]
        lead = [[lead_coeff(i, j, degs[j]) for j in range(r)] for i in range(r)]
        kernel = nullspace(lead)  # dependencies among the leading column vectors
        if not kernel:
            break
        v = kernel[0]
        support = [j for j in range(r) if v[j] != 0]
        jstar = max(support, key=lambda j: (degs[j], j))
        for j in support:
            if j == jstar:
                continue
            factor = v[j] / v[jstar]
            shift = z ** (degs[jstar] - degs[j])  # exponent >= 0 by choice of jstar
            for i in range(r):
                P[i][jstar] = P[i][jstar] + factor * shift * P[i][j]
                Q[i][jstar] = Q[i][jstar] + factor * shift * Q[i][j]
        new_deg = col_deg(jstar)
        if new_deg >= degs[jstar]:
            raise RuntimeError("column reduction failed to decrease the degree")

    degs = [col_deg(j) for j in range(r)]
    # diagonal entries are z^{c_j - N}; with the O(a) <-> z^{-a} convention
    # the splitting exponents are a_j = N - c_j
    result = SplittingType(tuple(sorted(n_shift - d for d in degs)))

    # neg factor G = P * diag(z^{-c_j}); polynomial in z^-1 with invertible
    # value at infinity by column-reducedness
    G = [[P[i][j] * z ** (-degs[j]) for j in range(r)] for i in range(r)]
    D = [[(z ** (degs[j] - n_shift) if i == j else zero) for j in range(r)] for i in range(r)]
    # re-multiply the factorization witness: A * Q == G * D exactly
    AQ = mat_mul(matrix, _as_zmatrix(Q))
    GD = mat_mul(_as_zmatrix(G), _as_zmatrix(D))
    if AQ != GD:
        raise RuntimeError("factorization re-multiplication failed")
    for row in G:
        for e in row:
            if not e.is_zero() and e.base_range()[1] > 0:
                raise RuntimeError("negative-side factor has positive powers")
    if not with_witness:
        return result
    fact = BirkhoffFactorization(
        _as_zmatrix(G), tuple(degs[j] - n_shift for j in range(r)), _as_zmatrix(Q)
    )
    return result, fact


# -- extension verdicts -------------------------------------------------------


@dataclass(frozen=True)
class ExtensionVerdict:
    kind: str  # SplitZero | PolynomialClass | NonPolynomialUpTo
    degree: Optional[int]
    supporting_reduction: CechClass
    certification: object

    def as_dict(self):
        out = {"kind": self.kind}
        if self.degree is not None:
            out["degree"] = self.degree
        out["reduction"] = [str(p) for p in self.supporting_reduction.components]
        return out


def extension_verdict(
    space: TwoChartSpace,
    sub_deg: int,
    quot_deg: int,
    class_rep: LaurentPoly,
    cutoff: int,
) -> ExtensionVerdict:
    """Classify the extension class p in H^1(space, O(sub_deg - quot_deg)).

    Reduces p to the canonical representative and inspects its graded fiber
    components up to ``cutoff``: zero reduction means the extension splits;
    nonzero components at every fiber degree 1..cutoff mean the class cannot
    be matched by any polynomial up to that degree; otherwise it is
    polynomial of the reported degree.
    """
    trunc = class_rep.truncate_fiber(cutoff)
    bundle = line_bundle(space, sub_deg - quot_deg)
    lo, hi = trunc.base_range()
    margin = abs(sub_deg - quot_deg) + cutoff + 2
    box = DegreeBox.make(min(lo, -margin), max(hi, 2), cutoff, space.fiber_count)
    cls = make_class(bundle, [trunc])
    res = CechEngine(bundle).reduce(cls, box)
    red = res.representative.components[0]
    nonzero_degrees = sorted(
        {red.fiber_degree(e) for e in red.terms}
    )
    if not nonzero_degrees:
        return ExtensionVerdict("SplitZero", None, res.representative, res.certification)
    if all(d in nonzero_degrees for d in range(1, cutoff + 1)):
        return ExtensionVerdict(
            "NonPolynomialUpTo", cutoff, res.representative, res.certification
        )
    return ExtensionVerdict(
        "PolynomialClass", max(nonzero_degrees), res.representative, res.certification
    )


# -- moduli dimensions --------------------------------------------------------


@dataclass(frozen=True)
class ModuliDimReport:
    space_name: str
    j: int
    first_neighborhood_dim: int
    quotient_convention_dim: int
    formula_value: int
    agrees: bool
    no_generic_part: bool

    def as_dict(self):
        return {
            "space": self.space_name,
            "j": self.j,
            "firstNeighborhoodDim": self.first_neighborhood_dim,
            "quotientConventionDim": self.quotient_convention_dim,
            "formulaValue": self.formula_value,
            "agrees": self.agrees,
            "noGenericPart": self.no_generic_part,
        }


def first_neighborhood_dim(space: TwoChartSpace, j: int) -> int:
    """Dimension of the classes in H^1(space, O(-2j)) with total fiber degree <= 1."""
    if j < 1:
        raise InputError("j must be >= 1")
    bundle = line_bundle(space, -2 * j)
    spread = max(
        abs(p.base_range()[0]) + abs(p.base_range()[1]) for p in space.transition.forward
    )
    box = DegreeBox.make(-(2 * j + spread + 2), 2, 1, space.fiber_count)
    res = CechEngine(bundle).h1(box)
    f = space.fiber_count
    count = 0
    for _, poly in res.generators:
        (exp,) = list(poly.terms)
        if sum(exp[1 : 1 + f]) <= 1:
            count += 1
    return count


def generic_moduli_dim(space: TwoChartSpace, j: int) -> ModuliDimReport:
    """First-neighborhood H^1 dimension minus 2j, compared against the closed
    formulas 4j-5 (threefolds) and 2j-k-2 (surfaces).

    The subtraction of 2j is a convention inferred from the surface case; the
    report shows both numbers rather than asserting a theorem.
    """
    fnd = first_neighborhood_dim(space, j)
    quotient = fnd - 2 * j
    k = _standard_degree(space)
    if space.fiber_count == 2:
        formula = 4 * j - 5
    else:
        if k is None:
            raise InputError("surface formula needs a standard Z_k space")
        formula = 2 * j - k - 2
    return ModuliDimReport(
        space.name,
        j,
        fnd,
        quotient,
        formula,
        agrees=(quotient == formula),
        no_generic_part=(formula < 0),
    )


def _standard_degree(space: TwoChartSpace) -> Optional[int]:
    """Recover k for a standard Z_k / W_k space from the first fiber rule."""
    rule = space.transition.forward[1]
    if len(rule.terms) != 1:
        return None
    (exp,) = list(rule.terms)
    return exp[0]
