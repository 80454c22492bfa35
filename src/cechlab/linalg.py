"""Exact linear algebra over the rationals, on one sparse eliminator.

``IncrementalSpan`` is fraction-free: its rows are primitive integer
vectors, and each row's witness is an integer tag combination over one
positive denominator, turned into ``Fraction`` coefficients only when
``decompose`` returns them.  It backs the cohomology engine, and the dense
kernels below run on it too: they take a matrix as a list of rows and
insert its columns (for ``cokernel_basis``, its rows) in order, tagged by
index.  The independent ones are then the first maximal independent set in
that order, the pivot columns of row reduction, and free variables are set
to zero, so every result is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

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


# -- dense kernels -----------------------------------------------------------

Rows = Sequence[Sequence[Fraction]]


def _column_span(rows: Rows) -> Tuple[IncrementalSpan, int]:
    """The span of the columns, each tagged by its index, and their number."""
    span = IncrementalSpan()
    cols = list(zip(*rows))
    for j, col in enumerate(cols):
        span.insert(dict(enumerate(col)), j)
    return span, len(cols)


def rank(rows: Rows) -> int:
    return _column_span(rows)[0].dim


class NoSolution(Exception):
    """The linear system has no solution."""


def solve(rows: Rows, b: Sequence[Fraction]) -> List[Fraction]:
    """One exact solution of rows * x = b, or raise :class:`NoSolution`.

    Free variables, if any, are set to zero (deterministic).
    """
    if len(b) != len(rows):
        raise ValueError("dimension mismatch")
    span, ncols = _column_span(rows)
    coeffs = span.decompose(dict(enumerate(b)))
    if coeffs is None:
        raise NoSolution("inconsistent system")
    return [coeffs.get(j, Fraction(0)) for j in range(ncols)]


def nullspace(rows: Rows) -> List[List[Fraction]]:
    """Basis of the right kernel: one vector per column j that depends on
    the columns before it, in column order.

    The vector is e_j minus the decomposition of column j over the
    independent columns, so it is 1 at j and 0 at every other dependent
    column and at every column after j.
    """
    cols = [dict(enumerate(col)) for col in zip(*rows)]
    span = IncrementalSpan()
    basis = []
    for j, col in enumerate(cols):
        if span.insert(col, j):
            continue
        x = [Fraction(0)] * len(cols)
        x[j] = Fraction(1)
        for t, c in span.decompose(col).items():
            x[t] = -c
        basis.append(x)
    return basis


def cokernel_basis(rows: Rows) -> List[List[Fraction]]:
    """Standard basis vectors spanning a complement of the column space:
    e_i for each row i that depends on the rows before it.

    rank + len(result) = len(rows).
    """
    span = IncrementalSpan()
    out = []
    for i, row in enumerate(rows):
        if not span.insert(dict(enumerate(row)), i):
            e = [Fraction(0)] * len(rows)
            e[i] = Fraction(1)
            out.append(e)
    return out
