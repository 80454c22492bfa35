"""Two-chart spaces: total spaces of line-bundle sums over the projective line.

A space is a pair of coordinate charts U = (z, u_1..u_f) and
V = (xi, v_1..v_f) glued over the punctured base by a forward map
(xi, v_i) = F(z, u) and an explicit inverse; both composites are validated as
exact polynomial identities at construction.  Deformation parameters t_1..t_p
may be carried symbolically (as extra nonnegative-degree variables) or fixed
to rational values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .linalg import nullspace
from .ring import InputError, LaurentPoly, RingSig, U_FRAME, V_FRAME


class CompositionError(InputError):
    """Chart composition is not the identity; carries the offending residual."""

    def __init__(self, message: str, residual: LaurentPoly):
        super().__init__(f"{message}: residual {residual}")
        self.residual = residual


@dataclass(frozen=True)
class ChartMap:
    """Mutually inverse transition pair between the two charts.

    ``forward`` lists (xi, v_1..v_f) as polynomials in U variables,
    ``inverse`` lists (z, u_1..u_f) as polynomials in V variables.  The base
    images are required to be exactly z^-1 and xi^-1.
    """

    forward: Tuple[LaurentPoly, ...]
    inverse: Tuple[LaurentPoly, ...]

    @property
    def uring(self) -> RingSig:
        return self.forward[0].ring

    @property
    def vring(self) -> RingSig:
        return self.inverse[0].ring

    def to_v_frame(self, poly: LaurentPoly) -> LaurentPoly:
        """Express a U-frame polynomial in V coordinates via the inverse map."""
        images = {i: img for i, img in enumerate(self.inverse)}
        return poly.substitute(images, self.vring)

    def to_u_frame(self, poly: LaurentPoly) -> LaurentPoly:
        """Express a V-frame polynomial in U coordinates via the forward map."""
        images = {i: img for i, img in enumerate(self.forward)}
        return poly.substitute(images, self.uring)


def validate_transition(chart: ChartMap) -> None:
    """Check forward o inverse = id and inverse o forward = id exactly."""
    uring, vring = chart.uring, chart.vring
    if vring != uring.opposite():
        raise CompositionError(
            "frame signatures do not match", LaurentPoly.zero(uring)
        )
    ncoords = 1 + uring.fibers
    if len(chart.forward) != ncoords or len(chart.inverse) != ncoords:
        raise ValueError("transition tuple arity does not match fiber count")
    base_fwd = chart.forward[0]
    if base_fwd != LaurentPoly.var(uring, 0, -1):
        raise CompositionError("forward base image must be z^-1", base_fwd)
    base_inv = chart.inverse[0]
    if base_inv != LaurentPoly.var(vring, 0, -1):
        raise CompositionError("inverse base image must be xi^-1", base_inv)
    for i in range(ncoords):
        got = chart.to_u_frame(chart.inverse[i])
        want = LaurentPoly.var(uring, i)
        if got != want:
            raise CompositionError(f"inverse o forward != id at coordinate {i}", got - want)
        got = chart.to_v_frame(chart.forward[i])
        want = LaurentPoly.var(vring, i)
        if got != want:
            raise CompositionError(f"forward o inverse != id at coordinate {i}", got - want)


@dataclass(frozen=True)
class GradingVector:
    """Integer weights, one per U coordinate (z, u_1..u_f).

    Every monomial of every transition entry is homogeneous with respect to
    each vector of the conserved lattice; the induced V weights are the
    weights of the forward images.
    """

    weights: Tuple[int, ...]

    def weight_of(self, exp: Sequence[int]) -> int:
        # exp is a (1 + fibers [+ params]) exponent tuple; params carry weight 0
        return sum(w * e for w, e in zip(self.weights, exp))


@dataclass
class TwoChartSpace:
    name: str
    fiber_count: int
    transition: ChartMap
    _gradings: Optional[List[GradingVector]] = field(default=None, repr=False)

    def __post_init__(self):
        validate_transition(self.transition)

    @property
    def uring(self) -> RingSig:
        return self.transition.uring

    @property
    def vring(self) -> RingSig:
        return self.transition.vring

    @property
    def params_numeric(self) -> bool:
        return self.uring.params == 0

    def gradings(self) -> List[GradingVector]:
        if self._gradings is None:
            self._gradings = grading_lattice(self)
        return self._gradings

    def __str__(self):
        fwd = ", ".join(str(p) for p in self.transition.forward)
        return f"{self.name}: (xi, v...) = ({fwd})"


def _space_name(family: str, k: int) -> str:
    return f"{family}({k})" if k < 0 else f"{family}{k}"


def make_standard_space(family: str, k: int) -> TwoChartSpace:
    """Standard model: Z_k with v = z^k u, W_k with (v1, v2) = (z^k u1, z^{2-k} u2)."""
    if family == "Z":
        uring = RingSig(1, 0, U_FRAME)
        vring = RingSig(1, 0, V_FRAME)
        z = LaurentPoly.var(uring, 0)
        u = LaurentPoly.var(uring, 1)
        xi = LaurentPoly.var(vring, 0)
        v = LaurentPoly.var(vring, 1)
        chart = ChartMap(
            forward=(z ** -1, z ** k * u),
            inverse=(xi ** -1, xi ** k * v),
        )
        return TwoChartSpace(_space_name("Z", k), 1, chart)
    if family == "W":
        uring = RingSig(2, 0, U_FRAME)
        vring = RingSig(2, 0, V_FRAME)
        z = LaurentPoly.var(uring, 0)
        u1 = LaurentPoly.var(uring, 1)
        u2 = LaurentPoly.var(uring, 2)
        xi = LaurentPoly.var(vring, 0)
        v1 = LaurentPoly.var(vring, 1)
        v2 = LaurentPoly.var(vring, 2)
        chart = ChartMap(
            forward=(z ** -1, z ** k * u1, z ** (2 - k) * u2),
            inverse=(xi ** -1, xi ** k * v1, xi ** (2 - k) * v2),
        )
        return TwoChartSpace(_space_name("W", k), 2, chart)
    raise ValueError(f"unknown family {family!r}; expected 'Z' or 'W'")


def grading_lattice(space: TwoChartSpace) -> List[GradingVector]:
    """Basis of integer weight vectors making every transition monomial homogeneous.

    For each forward image all exponent differences between its terms must
    be annihilated; parameters carry weight zero.  The inverse images add no
    constraint: in U coordinates each is a bare variable, as
    ``validate_transition`` checks.  The result is deterministic (reduced
    basis scaled to primitive integer vectors).
    """
    nv = 1 + space.fiber_count
    constraints: List[List[Fraction]] = []
    for poly in space.transition.forward:
        exps = [e[: nv] for e in poly.terms]
        for other in exps[1:]:
            constraints.append([Fraction(a - b) for a, b in zip(exps[0], other)])

    if not constraints:
        basis = [[Fraction(int(i == j)) for j in range(nv)] for i in range(nv)]
    else:
        basis = nullspace(constraints)
    out = []
    for vec in basis:
        mult = lcm(*(x.denominator for x in vec))
        ints = [int(x * mult) for x in vec]
        g = gcd(*ints)
        if g > 1:
            ints = [x // g for x in ints]
        # sign normalization: first nonzero entry positive
        for x in ints:
            if x != 0:
                if x < 0:
                    ints = [-y for y in ints]
                break
        out.append(GradingVector(tuple(ints)))
    return out


# -- Hirzebruch-embedding identity verifier ---------------------------------


def hirzebruch_verify(k: int, perturbation: Optional[LaurentPoly] = None):
    """Check that the z-shift family of Z_k embeds into the standard
    degenerating family of the degree-k ruled surface.

    Substitutes both chart images of the embedding into the k defining
    equations of the target family, with all parameters symbolic, and also
    checks the two images agree projectively under the Z_k transition.
    Returns None on success; returns the first nonzero residual otherwise.
    k = 1 has no parameters and is vacuously ok.

    ``perturbation`` is added to the first embedding coordinate; a nonzero
    perturbation must make the check fail (mutation testing hook).
    """
    if k < 1:
        raise InputError("k must be >= 1")
    if k == 1:
        return None
    p = k - 1
    uring = RingSig(1, p, U_FRAME)
    z = LaurentPoly.var(uring, 0)
    u = LaurentPoly.var(uring, 1)
    t = [LaurentPoly.var(uring, 2 + s) for s in range(p)]  # t[s] is t_{s+1}

    # U-chart image: l = [1, z], x = [-1, z_1, ..., z_k, u]
    def z_i(i: int) -> LaurentPoly:
        acc = z ** (k + 1 - i) * u
        for s in range(i, k):  # t_s z^{s+1-i}
            acc = acc + t[s - 1] * z ** (s + 1 - i)
        return acc

    l_u = [LaurentPoly.const(uring, 1), z]
    x_u = [LaurentPoly.const(uring, -1)] + [z_i(i) for i in range(1, k + 1)] + [u]
    if perturbation is not None:
        x_u[1] = x_u[1] + perturbation

    # V-chart image: l = [xi, 1], x = [-1, v, xi_2, ..., xi_{k+1}]
    vring = RingSig(1, p, V_FRAME)
    xi = LaurentPoly.var(vring, 0)
    v = LaurentPoly.var(vring, 1)
    tv = [LaurentPoly.var(vring, 2 + s) for s in range(p)]

    def xi_i(i: int) -> LaurentPoly:
        # xi_i = xi^{i-1} v - sum_{s <= min(i-1, k-1)} t_s xi^{i-1-s}
        acc = xi ** (i - 1) * v
        for s in range(1, min(i, k)):
            acc = acc - tv[s - 1] * xi ** (i - 1 - s)
        return acc

    l_v = [xi, LaurentPoly.const(vring, 1)]
    x_v = [LaurentPoly.const(vring, -1), v] + [xi_i(i) for i in range(2, k + 2)]

    def equations(l, x, ts):
        # l0 * x_i = l1 * (x_{i+1} - t_i * x0) for i < k; l0 * x_k = l1 * x_{k+1}
        residuals = []
        for i in range(1, k):
            residuals.append(l[0] * x[i] - l[1] * (x[i + 1] - ts[i - 1] * x[0]))
        residuals.append(l[0] * x[k] - l[1] * x[k + 1])
        return residuals

    for res in equations(l_u, x_u, t):
        if not res.is_zero():
            return res
    for res in equations(l_v, x_v, tv):
        if not res.is_zero():
            return res

    # Chart agreement: substitute the Z_k family transition into the V image
    # and compare with the U image projectively (all 2x2 minors vanish).
    fwd_v = z ** k * u
    for s in range(p):
        fwd_v = fwd_v + t[s] * z ** (s + 1)
    images = {0: z ** -1, 1: fwd_v}
    images.update({2 + s: t[s] for s in range(p)})
    l_vu = [poly.substitute(images, uring) for poly in l_v]
    x_vu = [poly.substitute(images, uring) for poly in x_v]
    for a in range(2):
        for b in range(a + 1, 2):
            res = l_vu[a] * l_u[b] - l_vu[b] * l_u[a]
            if not res.is_zero():
                return res
    for a in range(len(x_u)):
        for b in range(a + 1, len(x_u)):
            res = x_vu[a] * x_u[b] - x_vu[b] * x_u[a]
            if not res.is_zero():
                return res
    return None
