"""Independent oracles for cross-checking the engine.

These deliberately avoid the engine's slicing machinery: plain window
enumeration, dict-based Gaussian elimination over Fraction, and global
section counting for splitting types.  ``FractionSpan`` is the rational
reference for the integer-row ``IncrementalSpan``, ``plain_rank`` the
dense row-reduction reference for the ``cechlab.linalg`` kernels,
``poly_slice_generators`` the polynomial reference for the closed-form
``_ExactModel.slice_generators``, and ``brute_v_generators`` the
term-by-term reference for the degree-pruned ``_BoxModel.v_generators``.
"""

from fractions import Fraction
from itertools import product

from cechlab.cech import DegreeBox
from cechlab.ring import LaurentPoly


def _reduce_rows(rows, vec):
    vec = dict(vec)
    for pivot, row in rows.items():
        if vec.get(pivot):
            factor = vec[pivot] / row[pivot]
            for k, v in row.items():
                vec[k] = vec.get(k, Fraction(0)) - factor * v
    return {k: v for k, v in vec.items() if v != 0}


def _insert(rows, vec):
    vec = _reduce_rows(rows, vec)
    if not vec:
        return False
    rows[min(vec)] = vec
    return True


class FractionSpan:
    """Reference for ``cechlab.linalg.IncrementalSpan``: the same least-pivot
    sparse elimination with witness tracking, done directly in ``Fraction``
    arithmetic on rational rows and tag combinations."""

    def __init__(self):
        self._rows = {}  # pivot -> (vector, combo)

    def _reduce(self, vec, combo):
        vec = dict(vec)
        combo = dict(combo)
        while True:
            live = [k for k, v in vec.items() if v != 0]
            if not live:
                return {}, combo
            pivot = min(live)
            if pivot not in self._rows:
                return ({k: v for k, v in vec.items() if v != 0}, combo)
            row, row_combo = self._rows[pivot]
            factor = vec[pivot] / row[pivot]
            for k, v in row.items():
                vec[k] = vec.get(k, Fraction(0)) - factor * v
            for t, v in row_combo.items():
                combo[t] = combo.get(t, Fraction(0)) - factor * v
            vec = {k: v for k, v in vec.items() if v != 0}

    def insert(self, vec, tag):
        residual, combo = self._reduce(vec, {tag: Fraction(1)})
        if not residual:
            return False
        self._rows[min(residual)] = (residual, combo)
        return True

    def contains(self, vec):
        residual, _ = self._reduce(vec, {})
        return not residual

    def decompose(self, vec):
        residual, combo = self._reduce(vec, {})
        if residual:
            return None
        return {t: -v for t, v in combo.items() if v != 0}

    @property
    def dim(self):
        return len(self._rows)


def plain_rank(rows):
    """Rank of a list of rows by plain ``Fraction`` Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                for j in range(c, ncols):
                    rows[i][j] -= f * rows[r][j]
        r += 1
    return r


def poly_slice_generators(model, chi):
    """Reference for ``_ExactModel.slice_generators``: each V generator is
    built as the product Minv[c][c'] * z^-m * prod_i (v_i o forward)^beta_i
    of ``LaurentPoly`` values, with beta the decomposition of the target
    over the columns of G (the fiber weights of the v-images) in a
    ``FractionSpan``."""
    bundle = model.bundle
    nv = model.nv
    f = nv - 1
    ring = bundle.space.uring
    fwd = bundle.space.transition.forward
    v_weights = [next(iter(p.terms))[:nv] for p in fwd]
    g = FractionSpan()
    for i in range(f):
        g.insert({j: Fraction(v_weights[1 + i][1 + j]) for j in range(f)}, i)
    gens = []
    for c, exp in model.slice_members(chi):
        if exp[0] >= 0:
            gens.append((("U", c, exp), {(c, exp): Fraction(1)}))
    for cp in range(model.r):
        target = tuple(x - d for x, d in zip(chi, model.offsets_v[cp]))
        coeffs = g.decompose({j: Fraction(t) for j, t in enumerate(target[1:])})
        beta = [coeffs.get(i, Fraction(0)) for i in range(f)]
        if any(b.denominator != 1 or b < 0 for b in beta):
            continue
        beta = [int(b) for b in beta]
        m = sum(b * v_weights[1 + i][0] for i, b in enumerate(beta)) - target[0]
        if m < 0:
            continue
        factor = LaurentPoly.var(ring, 0, -m)
        for i, b in enumerate(beta):
            if b:
                factor = factor * fwd[1 + i] ** b
        vec = {}
        for c in range(model.r):
            entry = bundle.Minv[c][cp]
            if entry.is_zero():
                continue
            poly = entry * factor
            for exp, coeff in poly.terms.items():
                vec[(c, exp)] = coeff
        if vec:
            gens.append((("V", cp, m, tuple(beta)), vec))
    return gens


def brute_v_generators(bundle, window):
    """Reference for ``_BoxModel.v_generators``: the (tag, vector) pairs of
    every Minv * (xi^m v^beta o forward) whose support lies in the window,
    in the order c', then beta with beta_0 slowest, then m rising.

    Each product is formed from ``LaurentPoly`` powers and every term is
    checked against the window.  beta_i runs up to the largest fiber cap:
    every fiber image has positive degree in some fiber variable (the chart
    maps are mutually inverse), so a larger beta_i leaves the window.  For
    each beta the xi power only shifts the support, so its range is read off
    the support bounds instead of looped over.
    """
    space = bundle.space
    ring = space.uring
    f = space.fiber_count
    r = bundle.rank
    fwd = space.transition.forward
    lo, hi, fmax = window.base_lo, window.base_hi, window.fiber_max

    def inside(exp):
        return lo <= exp[0] <= hi and all(exp[1 + j] <= fmax[j] for j in range(f))

    gens = []
    for cp in range(r):
        cols = [c for c in range(r) if not bundle.Minv[c][cp].is_zero()]
        for beta in product(range(max(fmax) + 1), repeat=f):
            factor = LaurentPoly.const(ring, 1)
            for i, b in enumerate(beta):
                if b:
                    factor = factor * fwd[1 + i] ** b
            polys = {c: bundle.Minv[c][cp] * factor for c in cols}
            zmax = max(p.base_range()[1] for p in polys.values())
            zmin = min(p.base_range()[0] for p in polys.values())
            for m in range(max(0, zmax - hi), zmin - lo + 1):
                vec = {
                    (c, (exp[0] - m,) + exp[1:]): coeff
                    for c, p in polys.items()
                    for exp, coeff in p.terms.items()
                }
                if all(inside(exp) for _, exp in vec):
                    gens.append((("V", cp, m, beta), vec))
    return gens


def brute_h1_keys(bundle, lo, hi, fmax, margin=8):
    """H1-in-box basis keys by brute force over an enlarged working window.

    U generators: all working-window monomials with l >= 0.  V generators:
    ``brute_v_generators`` of the working window (inner box enlarged by
    ``margin``).  Then a greedy sweep over the inner-box monomials.
    """
    f = bundle.space.fiber_count
    r = bundle.rank
    if isinstance(fmax, int):
        fmax = (fmax,) * f
    wlo, whi = lo - margin, hi + margin
    wfib = tuple(fm + margin for fm in fmax)

    rows = {}
    # U side
    for c in range(r):
        for combo in product(
            range(max(0, wlo), whi + 1), *[range(0, fm + 1) for fm in wfib]
        ):
            _insert(rows, {(c, tuple(combo)): Fraction(1)})
    for _, vec in brute_v_generators(bundle, DegreeBox(wlo, whi, wfib)):
        _insert(rows, vec)
    basis = []
    for c in range(r):
        for combo in product(range(lo, hi + 1), *[range(0, fm + 1) for fm in fmax]):
            key = (c, tuple(combo))
            if _insert(rows, {key: Fraction(1)}):
                basis.append(key)
    return sorted(basis)


def h0_dim(matrix, twist, deg_cap=None):
    """dim H^0 of the bundle E(twist) on the line, for a z-only transition.

    Sections are pairs (s_U polynomial, s_V = z^-twist M s_U polynomial in
    z^-1); counts the solution space by elimination on coefficients.
    """
    r = len(matrix)
    spread = 0
    for row in matrix:
        for e in row:
            if not e.is_zero():
                zmin, zmax = e.base_range()
                spread = max(spread, abs(zmin), abs(zmax))
    if deg_cap is None:
        deg_cap = max(0, twist + r * spread + 2)
    # unknowns: coefficient of z^d in s_U[c] for 0 <= d <= deg_cap
    unknowns = [(c, d) for c in range(r) for d in range(deg_cap + 1)]
    idx = {u: i for i, u in enumerate(unknowns)}
    # constraints: every positive z power of z^-twist * (M s_U) vanishes
    rows = {}
    constraints = {}
    for c_out in range(r):
        for (c_in, d) in unknowns:
            entry = matrix[c_out][c_in]
            for exp, coeff in entry.terms.items():
                power = exp[0] + d - twist
                if power > 0:
                    key = (c_out, power)
                    constraints.setdefault(key, {})[idx[(c_in, d)]] = constraints.setdefault(
                        key, {}
                    ).get(idx[(c_in, d)], Fraction(0)) + coeff
    rank_rows = {}
    rank = 0
    for key in sorted(constraints):
        if _insert(rank_rows, constraints[key]):
            rank += 1
    return len(unknowns) - rank


def splitting_by_h0(matrix, bound=8):
    """Recover the splitting multiset from h0 jumps of twists."""
    r = len(matrix)
    dims = {n: h0_dim(matrix, n) for n in range(-bound - 1, bound + 1)}
    degrees = []
    for n in range(-bound, bound + 1):
        jump = dims[n] - dims[n - 1]
        # jump = #{a_i >= -n}; new entries at this n have a_i = -n
        new = jump - sum(1 for a in degrees if a >= -n + 1)
        degrees.extend([-n] * new)
    return tuple(sorted(degrees))
