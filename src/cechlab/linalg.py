"""Exact dense linear algebra over the rationals.

Dense elimination is fraction-free (Bareiss one-step division scheme) on an
integer-scaled copy of the matrix, with a fixed first-nonzero pivot rule, so
rank, solutions and complement bases are deterministic.  A sparse incremental
eliminator with witness tracking backs the cohomology engine.  It is
fraction-free too: its rows are primitive integer vectors, and each row's
witness is an integer tag combination over one positive denominator, turned
into ``Fraction`` coefficients only when ``decompose`` returns them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, List, Optional, Sequence, Tuple


class QMatrix:
    """Dense rational matrix; rows of Fractions."""

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        self.rows = [[Fraction(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.ncols for r in self.rows):
            raise ValueError("ragged matrix")

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def transpose(self) -> "QMatrix":
        return QMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def mul_vec(self, vec: Sequence[Fraction]) -> List[Fraction]:
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum((r[j] * vec[j] for j in range(self.ncols)), Fraction(0)) for r in self.rows]


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> List[List[int]]:
    out = []
    for row in rows:
        mult = 1
        for x in row:
            d = Fraction(x).denominator
            mult = mult * d // gcd(mult, d)
        out.append([int(Fraction(x) * mult) for x in row])
    return out


def _bareiss(rows: List[List[int]]) -> Tuple[List[List[int]], List[int]]:
    """Fraction-free row echelon; returns (echelon rows, pivot column list)."""
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):  # fixed first-nonzero pivot rule
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (piv * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(mat: QMatrix) -> int:
    _, pivots = _bareiss(_integer_rows(mat.rows))
    return len(pivots)


class NoSolution(Exception):
    """The linear system has no solution."""


def solve(mat: QMatrix, b: Sequence[Fraction]) -> List[Fraction]:
    """One exact solution of mat * x = b, or raise :class:`NoSolution`.

    Free variables, if any, are set to zero (deterministic).
    """
    if len(b) != mat.nrows:
        raise ValueError("dimension mismatch")
    aug = [list(row) + [Fraction(v)] for row, v in zip(mat.rows, b)]
    ech, pivots = _bareiss(_integer_rows(aug))
    n = mat.ncols
    if n in pivots:
        raise NoSolution("inconsistent system")
    x = [Fraction(0)] * n
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        s = Fraction(ech[r][n])
        for j in range(c + 1, n):
            s -= ech[r][j] * x[j]
        x[c] = s / ech[r][c]
    # rows beyond the pivot count must be consistent
    for r in range(len(pivots), len(ech)):
        if ech[r][n] != 0:
            raise NoSolution("inconsistent system")
    return x


def nullspace(mat: QMatrix) -> List[List[Fraction]]:
    """Deterministic basis of the right kernel."""
    ech, pivots = _bareiss(_integer_rows(mat.rows))
    n = mat.ncols
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = Fraction(0)
            for j in range(c + 1, n):
                s -= ech[r][j] * x[j]
            x[c] = s / ech[r][c]
        basis.append(x)
    return basis


def cokernel_basis(mat: QMatrix) -> List[List[Fraction]]:
    """Standard basis vectors spanning a complement of the column space.

    Eliminates the columns (rows of the transpose); the non-pivot coordinates
    of the ambient space index the complement.  rank + len(result) = nrows.
    """
    _, pivots = _bareiss(_integer_rows(mat.transpose().rows))
    out = []
    for i in range(mat.nrows):
        if i not in pivots:
            e = [Fraction(0)] * mat.nrows
            e[i] = Fraction(1)
            out.append(e)
    return out


class IncrementalSpan:
    """Sparse exact span with membership witnesses.

    Vectors are dicts coordinate -> rational (``int`` or ``Fraction``) over
    orderable coordinate keys.  Each inserted vector is tagged;
    ``decompose`` returns the combination of tags expressing a member, which
    the cohomology engine turns into explicit coboundary witnesses.

    Rows are primitive integer vectors keyed by their pivot, the least live
    coordinate.  Each row keeps its tag combination as integers over one
    positive denominator, ``den * row = sum(combo[t] * inserted[t])``.
    Reduction is fraction-free cross-multiplication, ``b*v - a*row`` with
    ``gcd(a, b)`` divided out, and no ``Fraction`` is formed until
    ``decompose`` returns its coefficients.  With the least-pivot rule every
    row is a scalar multiple of the row that rational elimination stores, so
    ``insert``, ``dim`` and ``decompose`` give exactly the rational answers.
    """

    def __init__(self):
        # pivot -> (primitive integer row, integer tag combination, denominator)
        self._rows: Dict[Hashable, Tuple[Dict, Dict, int]] = {}

    def _reduce(self, vec: Dict, tag: Hashable) -> Tuple[Dict, Dict, int]:
        """Reduce ``vec`` against the rows.

        Returns ``(v, combo, den)``: the primitive integer residual ``v`` and
        integer coefficients with ``den * v = sum(combo[t] * gen[t])``, where
        ``gen[tag]`` is ``vec`` itself.
        """
        dens = [x.denominator for x in vec.values()]
        scale = lcm(*dens)
        v = {k: x.numerator * (scale // d) for (k, x), d in zip(vec.items(), dens) if x}
        den = gcd(*v.values()) or 1
        if den != 1:
            for k in v:
                v[k] //= den
        combo = {tag: scale}
        rows = self._rows
        while v:
            pivot = min(v)
            entry = rows.get(pivot)
            if entry is None:
                break
            row, row_combo, row_den = entry
            a, b = v[pivot], row[pivot]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b < 0:
                a, b = -a, -b
            # v <- b*v - a*row cancels the pivot
            if b != 1:
                for k in v:
                    v[k] *= b
            for k, x in row.items():
                y = v.get(k, 0) - a * x
                if y:
                    v[k] = y
                else:
                    del v[k]
            mul, sub = b * row_den, a * den
            if mul != 1:
                for t in combo:
                    combo[t] *= mul
            for t, x in row_combo.items():
                combo[t] = combo.get(t, 0) - sub * x
            den *= row_den
            if v:
                g = gcd(*v.values())
                if g != 1:
                    for k in v:
                        v[k] //= g
                    den *= g
        return v, combo, den

    def insert(self, vec: Dict, tag: Hashable) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        residual, combo, den = self._reduce(vec, tag)
        if not residual:
            return False
        g = gcd(den, *combo.values())
        if g != 1:
            combo = {t: c // g for t, c in combo.items()}
            den //= g
        self._rows[min(residual)] = (residual, combo, den)
        return True

    def decompose(self, vec: Dict) -> Optional[Dict]:
        """Coefficients {tag: c} with vec = sum c * inserted[tag], or None."""
        own = object()  # the tag of ``vec`` itself
        residual, combo, _ = self._reduce(vec, own)
        if residual:
            return None
        # 0 = combo[own] * vec + sum of combo[t] * inserted[t]
        scale = combo.pop(own)
        return {t: Fraction(-c, scale) for t, c in combo.items() if c}

    @property
    def dim(self) -> int:
        return len(self._rows)
