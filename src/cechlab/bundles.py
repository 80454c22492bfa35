"""Coefficient bundles as invertible transition matrices over the chart overlap.

A rank-r bundle is a pair (M, Minv) of r x r matrices of U-frame Laurent
polynomials with M * Minv = Minv * M = I, exactly.  The orientation
convention: a section written s_U in the U frame reads
s_V = M * s_U, re-expressed in V coordinates, so the line bundle of degree m
has M = [z^-m].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .ring import LaurentPoly, RingSig
from .spaces import TwoChartSpace

Matrix = Tuple[Tuple[LaurentPoly, ...], ...]


class IncompatibleTransition(ValueError):
    """Pullback variable map does not restrict the target transition rule."""


def _mat(rows: List[List[LaurentPoly]]) -> Matrix:
    return tuple(tuple(r) for r in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    m = len(b[0])
    inner = len(b)
    ring = a[0][0].ring
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = LaurentPoly.zero(ring)
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return _mat(out)


def mat_identity(ring: RingSig, n: int) -> Matrix:
    one = LaurentPoly.const(ring, 1)
    zero = LaurentPoly.zero(ring)
    return _mat([[one if i == j else zero for j in range(n)] for i in range(n)])


def mat_det(m: Matrix) -> LaurentPoly:
    n = len(m)
    if n == 1:
        return m[0][0]
    ring = m[0][0].ring
    acc = LaurentPoly.zero(ring)
    for j in range(n):
        minor = _mat([[m[i][c] for c in range(n) if c != j] for i in range(1, n)])
        term = m[0][j] * mat_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


@dataclass(frozen=True)
class TransitionBundle:
    rank: int
    M: Matrix
    Minv: Matrix
    space: TwoChartSpace
    name: str = ""

    def __post_init__(self):
        ring = self.space.uring
        ident = mat_identity(ring, self.rank)
        if mat_mul(self.M, self.Minv) != ident or mat_mul(self.Minv, self.M) != ident:
            raise ValueError(f"transition matrix of {self.name or 'bundle'} is not invertible")

    def is_monomial_model(self) -> bool:
        """Single-term transition entries and a single-term chart map."""
        for row in list(self.M) + list(self.Minv):
            for entry in row:
                if len(entry.terms) > 1:
                    return False
        return all(len(p.terms) == 1 for p in self.space.transition.forward)

    def __str__(self):
        rows = "; ".join(", ".join(str(e) for e in row) for row in self.M)
        return f"{self.name or 'bundle'} rank {self.rank} on {self.space.name}: [{rows}]"


def line_bundle(space: TwoChartSpace, m: int) -> TransitionBundle:
    """O(m): transition [z^-m]."""
    ring = space.uring
    z = LaurentPoly.var(ring, 0)
    return TransitionBundle(
        1, _mat([[z ** (-m)]]), _mat([[z ** m]]), space, name=f"O({m})"
    )


def tangent_bundle(space: TwoChartSpace) -> TransitionBundle:
    """Jacobian of the forward transition; inverse by the chain rule."""
    ring = space.uring
    n = 1 + space.fiber_count
    fwd = space.transition.forward
    M = _mat([[fwd[i].partial(j) for j in range(n)] for i in range(n)])
    inv = space.transition.inverse
    Minv_v = [[inv[i].partial(j) for j in range(n)] for i in range(n)]
    Minv = _mat([[space.transition.to_u_frame(e) for e in row] for row in Minv_v])
    return TransitionBundle(n, M, Minv, space, name=f"T{space.name}")


def flat_index(rank: int, row: int, col: int) -> int:
    """Row-major flattening of matrix sections, 1-based on both sides."""
    return rank * (row - 1) + col


def end_bundle(bundle: TransitionBundle) -> TransitionBundle:
    """Endomorphism bundle acting by s -> M s Minv on matrix sections.

    Sections are flattened row-major: entry (row, col) sits at flat index
    rank*(row-1) + col.
    """
    r = bundle.rank
    ring = bundle.space.uring
    zero = LaurentPoly.zero(ring)

    def kron(left: Matrix, right: Matrix) -> Matrix:
        # (out * vec(s))_{(i,j)} = sum_{k,l} left[i][k] s[k][l] right[l][j]
        rows = []
        for i in range(r):
            for j in range(r):
                row = []
                for k in range(r):
                    for l in range(r):
                        entry = left[i][k] * right[l][j]
                        row.append(entry if not entry.is_zero() else zero)
                rows.append(row)
        return _mat(rows)

    M = kron(bundle.M, bundle.Minv)
    Minv = kron(bundle.Minv, bundle.M)
    return TransitionBundle(r * r, M, Minv, bundle.space, name=f"End({bundle.name})")


def extension_bundle(
    space: TwoChartSpace, sub_deg: int, quot_deg: int, class_rep: LaurentPoly
) -> TransitionBundle:
    """Rank-2 extension with sub-bundle degree b, quotient degree a and
    off-diagonal z^-b * p; p represents the class in H^1(space, O(b-a))."""
    ring = space.uring
    if class_rep.ring != ring:
        raise ValueError("class representative must be a U-frame overlap function")
    z = LaurentPoly.var(ring, 0)
    b, a = sub_deg, quot_deg
    zero = LaurentPoly.zero(ring)
    M = _mat([[z ** (-b), z ** (-b) * class_rep], [zero, z ** (-a)]])
    Minv = _mat([[z ** b, -(z ** a) * class_rep], [zero, z ** a]])
    return TransitionBundle(2, M, Minv, space, name=f"ext(O({b}),O({a}))")


def pullback_bundle(
    bundle: TransitionBundle,
    target: TwoChartSpace,
    fiber_map: Dict[int, int],
) -> TransitionBundle:
    """Pull a bundle back along the projection of ``target`` onto the source
    space, sending source fiber variable i to target fiber variable
    ``fiber_map[i]`` (1-based on both sides).

    Requires the source transition rule to be the restriction of the target
    rule on the mapped fibers.
    """
    src = bundle.space
    for i_src, i_tgt in fiber_map.items():
        rule_src = src.transition.forward[i_src]
        rule_tgt = target.transition.forward[i_tgt]
        # both must be the same monomial rule after renaming the fiber variable
        renamed = _rename_fibers(rule_src, src.uring, target.uring, fiber_map)
        if renamed != rule_tgt:
            raise IncompatibleTransition(
                f"fiber {i_src} rule {rule_src} does not match target rule {rule_tgt}"
            )

    def push(entry: LaurentPoly) -> LaurentPoly:
        return _rename_fibers(entry, src.uring, target.uring, fiber_map)

    M = _mat([[push(e) for e in row] for row in bundle.M])
    Minv = _mat([[push(e) for e in row] for row in bundle.Minv])
    return TransitionBundle(
        bundle.rank, M, Minv, target, name=f"{bundle.name} pulled to {target.name}"
    )


def _rename_fibers(
    poly: LaurentPoly, src: RingSig, tgt: RingSig, fiber_map: Dict[int, int]
) -> LaurentPoly:
    images = {0: LaurentPoly.var(tgt, 0)}
    for i in range(1, src.fibers + 1):
        if i not in fiber_map:
            raise IncompatibleTransition(f"fiber variable {i} has no image")
        images[i] = LaurentPoly.var(tgt, fiber_map[i])
    return poly.substitute(images, tgt)


def restrict_to_line(bundle: TransitionBundle) -> Matrix:
    """Transition of the restriction to the zero section: fiber variables to 0."""
    return _mat([[e.restrict_fibers_zero() for e in row] for row in bundle.M])


# -- plain bundle algebra ----------------------------------------------------


def dual(bundle: TransitionBundle) -> TransitionBundle:
    r = bundle.rank
    Mt = _mat([[bundle.Minv[j][i] for j in range(r)] for i in range(r)])
    Mti = _mat([[bundle.M[j][i] for j in range(r)] for i in range(r)])
    return TransitionBundle(r, Mt, Mti, bundle.space, name=f"dual({bundle.name})")


def tensor(b1: TransitionBundle, b2: TransitionBundle) -> TransitionBundle:
    if b1.space is not b2.space and b1.space.name != b2.space.name:
        raise ValueError("tensor factors live on different spaces")
    r1, r2 = b1.rank, b2.rank

    def kron(a: Matrix, b: Matrix) -> Matrix:
        rows = []
        for i1 in range(r1):
            for i2 in range(r2):
                row = []
                for j1 in range(r1):
                    for j2 in range(r2):
                        row.append(a[i1][j1] * b[i2][j2])
                rows.append(row)
        return _mat(rows)

    return TransitionBundle(
        r1 * r2, kron(b1.M, b2.M), kron(b1.Minv, b2.Minv), b1.space,
        name=f"{b1.name}(x){b2.name}",
    )


def direct_sum(b1: TransitionBundle, b2: TransitionBundle) -> TransitionBundle:
    if b1.space is not b2.space and b1.space.name != b2.space.name:
        raise ValueError("summands live on different spaces")
    ring = b1.space.uring
    zero = LaurentPoly.zero(ring)
    r = b1.rank + b2.rank

    def block(a: Matrix, b: Matrix) -> Matrix:
        rows = []
        for i in range(b1.rank):
            rows.append(list(a[i]) + [zero] * b2.rank)
        for i in range(b2.rank):
            rows.append([zero] * b1.rank + list(b[i]))
        return _mat(rows)

    return TransitionBundle(
        r, block(b1.M, b2.M), block(b1.Minv, b2.Minv), b1.space,
        name=f"{b1.name}(+){b2.name}",
    )
