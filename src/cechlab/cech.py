"""The H1 engine on the two-chart cover.

On a two-set cover every overlap section is a 1-cocycle; a class is trivial
iff it splits as alpha + Minv * (beta o forward) with alpha holomorphic on U
and beta holomorphic on V.  The engine supports two certification tiers:

* Exact: the bundle is a monomial model (single-term transition and matrix
  entries) and the full torus acts; every character slice of the cochain
  space is finite, is enumerated completely, and the answer carries no
  truncation loss.  "Not a coboundary" is a proof in this mode, even against
  infinite holomorphic witnesses, because any witness splits into slices.
  Every coboundary generator is then one monomial per component, so a
  slice's generators are built in closed form from exponent sums and
  coefficient products, with the fiber weight matrix inverted once as an
  integer matrix over one denominator (see ``_ExactModel``).
* StableInBox: truncated windows with escalation; "is a coboundary" answers
  always come with an explicit witness (exact by construction), "is not"
  answers are stable under the configured number of window enlargements.

Both tiers run on one graded elimination core.  Component offsets come from
one solver (``_solve_offsets``) over the relations D[c] - D'[c'] = weight,
with the full exponent vector as weight on the exact tier and one scalar
weight per conserved grading on the box tier.  Coboundaries never mix the
parts these weights cut out, so every part is eliminated on its own:
``_greedy_basis`` finds the H1 basis and ``_decompose_parts`` the witnesses.
``CechEngine`` writes ``h1``, ``is_coboundary`` and ``reduce`` once, and the
tier decides four things: a monomial's part (its torus character, or its
grading bucket); the span source (closed-form finite slices, or all
generators of a window); the escalation rounds a basis must repeat for
(none, or ``stability_rounds``); and the certificate (Exact, or StableInBox).
A basis with no rounds to repeat is certified part by part, so ``reduce``
then builds only the parts its class meets; a box-tier basis is certified
by the whole window repeating, so there ``reduce`` builds every part.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .bundles import TransitionBundle
from .linalg import IncrementalSpan, NoSolution, solve
from .ring import InputError, LaurentPoly
from .spaces import TwoChartSpace


class CechError(Exception):
    pass


class NonFiniteSlice(CechError):
    """No usable grading and box escalation cannot certify the window."""


class CellLimitError(CechError):
    """Window matrix would exceed CECH_MAX_CELLS entries."""


class SymbolicParameterError(CechError):
    """Cohomology requires numeric deformation parameters."""


class BoxError(CechError, InputError):
    """Class support escapes the degree box."""


class EscalationBudgetError(NonFiniteSlice, BoxError):
    """The box asks for more stability rounds than MAX_ESCALATIONS window
    enlargements can give, so no window could certify it."""


# enlargements a box-tier basis may take to repeat ``stability_rounds`` times
MAX_ESCALATIONS = 8


def _max_cells() -> int:
    raw = os.environ.get("CECH_MAX_CELLS", "4000000")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"CECH_MAX_CELLS must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class DegreeBox:
    """Exponent window: base range, per-fiber caps, escalation protocol."""

    base_lo: int
    base_hi: int
    fiber_max: Tuple[int, ...]
    escalation_step: int = 4
    stability_rounds: int = 2

    def __post_init__(self):
        if self.base_lo > self.base_hi:
            raise ValueError("base_lo must be <= base_hi")
        if any(f < 0 for f in self.fiber_max):
            raise ValueError("fiber_max entries must be >= 0")
        # a window that cannot grow would certify itself as "stable"
        if self.escalation_step < 1:
            raise ValueError("escalation_step must be >= 1")
        if self.stability_rounds < 1:
            raise ValueError("stability_rounds must be >= 1")

    @staticmethod
    def make(base_lo: int, base_hi: int, fiber_max, fibers: int, **kw) -> "DegreeBox":
        if isinstance(fiber_max, int):
            fiber_max = (fiber_max,) * fibers
        return DegreeBox(base_lo, base_hi, tuple(fiber_max), **kw)

    def escalate(self) -> "DegreeBox":
        s = self.escalation_step
        return replace(
            self,
            base_lo=self.base_lo - s,
            base_hi=self.base_hi + s,
            fiber_max=tuple(f + s for f in self.fiber_max),
        )

    def contains_exp(self, exp: Sequence[int]) -> bool:
        if not self.base_lo <= exp[0] <= self.base_hi:
            return False
        return all(exp[1 + j] <= fm for j, fm in enumerate(self.fiber_max))

    def as_dict(self) -> Dict:
        return {
            "lLo": self.base_lo,
            "lHi": self.base_hi,
            "fiberMax": list(self.fiber_max),
        }


@dataclass(frozen=True)
class CechClass:
    """Vector-valued overlap function in the U frame."""

    space: TwoChartSpace
    bundle: TransitionBundle
    components: Tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.components) != self.bundle.rank:
            raise ValueError("component count does not match bundle rank")
        for p in self.components:
            if p.ring != self.space.uring:
                raise ValueError("cocycle components must be U-frame overlap functions")

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.components) + ")"


def make_class(bundle: TransitionBundle, components: Sequence[LaurentPoly]) -> CechClass:
    return CechClass(bundle.space, bundle, tuple(components))


def monomial_class(bundle: TransitionBundle, component: int, exp, coeff=1) -> CechClass:
    """Single-monomial cocycle; ``component`` is 1-based."""
    ring = bundle.space.uring
    comps = [LaurentPoly.zero(ring) for _ in range(bundle.rank)]
    comps[component - 1] = LaurentPoly.monomial(ring, exp, coeff)
    return make_class(bundle, comps)


# -- certifications ----------------------------------------------------------


@dataclass(frozen=True)
class Exact:
    kind: str = "Exact"

    def as_dict(self):
        return {"kind": "Exact"}


@dataclass(frozen=True)
class StableInBox:
    box: DegreeBox
    rounds: int
    kind: str = "StableInBox"

    def as_dict(self):
        return {"kind": "StableInBox", "box": self.box.as_dict(), "rounds": self.rounds}


@dataclass(frozen=True)
class WitnessFound:
    """Explicit decomposition sigma = alpha + Minv * (beta o forward)."""

    alpha: Tuple[LaurentPoly, ...]
    beta: Tuple[LaurentPoly, ...]
    kind: str = "WitnessFound"

    def as_dict(self):
        return {
            "kind": "WitnessFound",
            "alpha": [str(p) for p in self.alpha],
            "beta": [str(p) for p in self.beta],
        }


@dataclass
class H1Result:
    generators: List[Tuple[int, LaurentPoly]]  # (1-based component, monomial)
    dims_by_fiber_degree: Dict[int, int]
    certification: object
    box: DegreeBox
    pattern: Optional[str] = None

    def generator_keys(self) -> List[Tuple[int, Tuple[int, ...]]]:
        return [(c, next(iter(p.terms))) for c, p in self.generators]

    @property
    def dim(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class ReduceResult:
    representative: CechClass
    witness: WitnessFound
    certification: object


# -- helpers -----------------------------------------------------------------

Key = Tuple[int, Tuple[int, ...]]  # (component 0-based, exponent tuple)
Vec = Dict[Key, Fraction]


def _class_to_vec(cls: CechClass) -> Vec:
    out: Vec = {}
    for c, poly in enumerate(cls.components):
        for exp, coeff in poly.terms.items():
            out[(c, exp)] = coeff
    return out


def _vec_to_class(bundle: TransitionBundle, vec: Vec) -> CechClass:
    ring = bundle.space.uring
    comps = [dict() for _ in range(bundle.rank)]
    for (c, exp), coeff in vec.items():
        comps[c][exp] = coeff
    return make_class(bundle, [LaurentPoly(ring, t) for t in comps])


def _check_in_box(vec: Vec, box: DegreeBox) -> None:
    for key in vec:
        if not box.contains_exp(key[1]):
            raise BoxError(f"class monomial {key} outside the degree box")


def _split(vec: Vec, part_of) -> Dict[Tuple[int, ...], Vec]:
    """Group a vector's coordinates by slice or bucket."""
    parts: Dict[Tuple[int, ...], Vec] = {}
    for key, coeff in vec.items():
        parts.setdefault(part_of(key), {})[key] = coeff
    return parts


def _decompose_parts(parts: Dict[Tuple[int, ...], Vec], span_of) -> Optional[Dict]:
    """Decompose each part in its own span, in sorted part order; the summed
    tag coefficients, or None at the first part that has no span or is not
    in it."""
    coeffs: Dict = {}
    for part_key, part in sorted(parts.items()):
        span = span_of(part_key)
        dec = span.decompose(part) if span is not None else None
        if dec is None:
            return None
        for tag, c in dec.items():
            coeffs[tag] = coeffs.get(tag, Fraction(0)) + c
    return coeffs


def _greedy_basis(keys: Sequence[Key], part_of, span_of):
    """Greedy monomial basis modulo coboundaries.

    Parts in sorted order, the keys of a part in sorted order; a key joins
    the basis when its ("B", key) row enlarges the span ``span_of(part)``
    (an empty span when that is None).  Returns the basis and, per part met,
    its span with the B rows inserted.
    """
    by_part: Dict[Tuple[int, ...], List[Key]] = {}
    for key in keys:
        by_part.setdefault(part_of(key), []).append(key)
    basis: List[Key] = []
    spans: Dict[Tuple[int, ...], IncrementalSpan] = {}
    for part in sorted(by_part):
        span = spans[part] = span_of(part) or IncrementalSpan()
        for key in sorted(by_part[part]):
            if span.insert({key: Fraction(1)}, ("B", key)):
                basis.append(key)
    return basis, spans


def _transition_relations(bundle: TransitionBundle, weight):
    """Relations (c, c', w) meaning D[c] - D'[c'] = w, one per nonzero entry:
    w = weight(M[c'][c]) and w = -weight(Minv[c][c']).  ``weight`` maps an
    entry to a tuple, or to None when the entry is not homogeneous; then there
    are no relations and the result is None."""
    relations = []
    for cp in range(bundle.rank):
        for c in range(bundle.rank):
            for entry, sign in ((bundle.M[cp][c], 1), (bundle.Minv[c][cp], -1)):
                if entry.is_zero():
                    continue
                w = weight(entry)
                if w is None:
                    return None
                relations.append((c, cp, tuple(sign * x for x in w)))
    return relations


def _solve_offsets(rank: int, dim: int, relations):
    """Component offsets (D, D') with D[c] - D'[c'] = w for every relation
    (c, c', w), weights being ``dim``-tuples, or None when they conflict.

    Each connected group of components is fixed by giving its first node
    (U components before V components) the offset zero.
    """
    adj: Dict[Tuple[str, int], List] = {}
    for c, cp, w in relations:
        adj.setdefault(("U", c), []).append((("V", cp), tuple(-x for x in w)))
        adj.setdefault(("V", cp), []).append((("U", c), w))
    assign: Dict[Tuple[str, int], Tuple[int, ...]] = {}
    for start in [("U", c) for c in range(rank)] + [("V", c) for c in range(rank)]:
        if start in assign:
            continue
        assign[start] = (0,) * dim
        queue = [start]
        while queue:
            node = queue.pop()
            for other, step in adj.get(node, []):
                val = tuple(a + b for a, b in zip(assign[node], step))
                if other not in assign:
                    assign[other] = val
                    queue.append(other)
                elif assign[other] != val:
                    return None
    return (
        [assign[("U", c)] for c in range(rank)],
        [assign[("V", c)] for c in range(rank)],
    )


def window_monomials(box: DegreeBox, rank: int) -> List[Key]:
    """All cochain monomials inside the window, in sorted order."""
    ranges = [range(box.base_lo, box.base_hi + 1)] + [range(fm + 1) for fm in box.fiber_max]
    return [(c, exp) for c in range(rank) for exp in product(*ranges)]


def validate_numeric(space: TwoChartSpace):
    if not space.params_numeric:
        raise SymbolicParameterError(
            "cohomology computations require numeric deformation parameters"
        )


# -- exact graded model ------------------------------------------------------


def _term_weight(poly: LaurentPoly, nv: int) -> Tuple[int, ...]:
    """Base and fiber exponents of a single-term polynomial."""
    (exp,) = list(poly.terms)
    return exp[:nv]


def _single_term(poly: LaurentPoly) -> Tuple[Tuple[int, ...], Fraction]:
    """The (exponent, coefficient) of a single-term polynomial."""
    ((exp, coeff),) = poly.terms.items()
    return exp, coeff


class _ExactModel:
    """Full-torus character bookkeeping for monomial-model bundles.

    Component offsets D (U side) and D' (V side) satisfy, for every nonzero
    single-term entry, weight(M[c'][c]) = D[c] - D'[c'] and
    weight(Minv[c][c']) = D'[c'] - D[c]; then every coboundary generator is
    homogeneous and each character slice holds at most rank-many monomials.

    Slices are built in closed form, by exponent and integer arithmetic
    alone.  In component c the V generator for (c', m, beta) is the single
    term Minv[c][c'] * z^-m * prod_i (v_i o forward)^beta_i: its exponent is
    the sum of the factors' exponents and its coefficient the product of
    their coefficients, beta_i times for the i-th fiber image.  beta solves
    G * beta = the fiber part of chi - D'[c'], G being the fiber weight
    matrix of the v-images, and is kept only when it is a nonnegative
    integer vector; the model holds G^-1 as an integer matrix over one
    positive denominator, so that test is a divisibility and a sign check.
    """

    def __init__(self, bundle: TransitionBundle, offsets, g_inv: Sequence[Sequence[Fraction]]):
        self.bundle = bundle
        self.nv = 1 + bundle.space.fiber_count
        self.r = bundle.rank
        self.offsets_u, self.offsets_v = offsets
        # exponent zeros of every variable after the base
        self.zeros_after_base = (0,) * (bundle.space.uring.nvars - 1)
        # (exponent, coefficient) of each fiber image v_i o forward
        self.fwd_terms = [_single_term(p) for p in bundle.space.transition.forward[1:]]
        # per V component c', (c, exponent, coefficient) of each nonzero Minv[c][c']
        self.minv_terms = [
            [(c, *_single_term(bundle.Minv[c][cp])) for c in range(self.r)
             if not bundle.Minv[c][cp].is_zero()]
            for cp in range(self.r)
        ]
        # G^-1 = g_num / g_den with g_den the lcm of its denominators
        self.g_den = lcm(*[x.denominator for row in g_inv for x in row])
        self.g_num = [[int(x * self.g_den) for x in row] for row in g_inv]

    @staticmethod
    def build(bundle: TransitionBundle) -> Optional["_ExactModel"]:
        if not bundle.is_monomial_model():
            return None
        nv = 1 + bundle.space.fiber_count
        relations = _transition_relations(bundle, lambda p: _term_weight(p, nv))
        offsets = _solve_offsets(bundle.rank, nv, relations)
        if offsets is None:  # the bundle is not torus-equivariant
            return None
        # G[j][i] is the u_j-exponent of v_i o forward; the character map is
        # inverted through G, so G must be nonsingular
        fwd = bundle.space.transition.forward
        f = nv - 1
        g = [[_term_weight(fwd[1 + i], nv)[1 + j] for i in range(f)] for j in range(f)]
        try:
            g_inv_cols = [solve(g, [int(i == j) for i in range(f)]) for j in range(f)]
        except NoSolution:
            return None
        return _ExactModel(bundle, offsets, list(zip(*g_inv_cols)))

    def slice_of(self, key: Key) -> Tuple[int, ...]:
        c, exp = key
        return tuple(e + d for e, d in zip(exp[: self.nv], self.offsets_u[c]))

    def slice_members(self, chi: Tuple[int, ...]) -> List[Key]:
        out = []
        for c in range(self.r):
            exp = tuple(x - d for x, d in zip(chi, self.offsets_u[c]))
            if all(e >= 0 for e in exp[1:]):
                out.append((c, exp))
        return out

    def slice_generators(self, chi: Tuple[int, ...]):
        """All coboundary generators meeting the slice: (tag, vector) pairs."""
        gens = []
        for c, exp in self.slice_members(chi):
            if exp[0] >= 0:
                gens.append((("U", c, exp), {(c, exp): Fraction(1)}))
        for cp, column in enumerate(self.minv_terms):
            target = [x - d for x, d in zip(chi, self.offsets_v[cp])]
            scaled = [sum(a * t for a, t in zip(row, target[1:])) for row in self.g_num]
            if any(s < 0 or s % self.g_den for s in scaled):
                continue
            beta = [s // self.g_den for s in scaled]
            m = sum(b * exp[0] for b, (exp, _) in zip(beta, self.fwd_terms)) - target[0]
            if m < 0:
                continue
            # the factor z^-m * prod_i (v_i o forward)^beta_i
            factor_exp = (-m,) + self.zeros_after_base
            factor_coeff = Fraction(1)
            for b, (exp, coeff) in zip(beta, self.fwd_terms):
                if b:
                    factor_exp = tuple(x + b * y for x, y in zip(factor_exp, exp))
                    factor_coeff *= coeff ** b
            vec: Vec = {
                (c, tuple(x + y for x, y in zip(exp, factor_exp))): coeff * factor_coeff
                for c, exp, coeff in column
            }
            if vec:
                gens.append((("V", cp, m, tuple(beta)), vec))
        return gens

    def slice_span(self, chi: Tuple[int, ...]) -> IncrementalSpan:
        """Span of the coboundary generators meeting the slice."""
        span = IncrementalSpan()
        for tag, vec in self.slice_generators(chi):
            span.insert(vec, tag)
        return span


# -- box window model --------------------------------------------------------


class _BoxModel:
    """Window-truncated coboundary space with conserved-grading bucketing."""

    def __init__(self, bundle: TransitionBundle):
        self.bundle = bundle
        self.space = bundle.space
        self.r = bundle.rank
        self.nv = 1 + self.space.fiber_count
        self.gradings = self._usable_gradings()

    def _usable_gradings(self):
        """Conserved lattice vectors under which all bundle entries are
        homogeneous, each with its consistent U-side component offsets."""

        def weight(g, entry):
            ws = {g.weight_of(e[: self.nv]) for e in entry.terms}
            return (ws.pop(),) if len(ws) == 1 else None

        usable = []
        for g in self.space.gradings():
            relations = _transition_relations(self.bundle, lambda entry: weight(g, entry))
            offsets = None if relations is None else _solve_offsets(self.r, 1, relations)
            if offsets is not None:
                usable.append((g, [d for (d,) in offsets[0]]))
        return usable

    def bucket_of(self, key: Key) -> Tuple[int, ...]:
        c, exp = key
        return tuple(g.weight_of(exp[: self.nv]) + du[c] for g, du in self.gradings)

    def u_generators(self, box: DegreeBox):
        return [
            (("U", c, exp), {(c, exp): Fraction(1)})
            for c, exp in window_monomials(box, self.r)
            if exp[0] >= 0
        ]

    def v_generators(self, box: DegreeBox):
        """V-side generators Minv * (V-monomial o forward) whose support lies
        inside the window: tags (c', m, beta) in the order c', then beta with
        beta_0 slowest, then m rising.

        Window membership is decided by integer arithmetic on degrees before
        any product is formed.  The Laurent ring is a domain, so the least and
        greatest base exponent of a product, and its greatest exponent in
        each fiber variable, are the sums of its factors' (the coordinate
        extents of a Minkowski sum of Newton polytopes).  Let lo, hi and
        top[j] be these extents of the column Minv[.][c'] times
        prod_i (v_i o forward)^beta_i; xi^m shifts the base by -m.  The
        vector lies in the window iff top[j] <= fiber_max[j] for every j and
        max(hi - base_hi, 0) <= m <= lo - base_lo, which needs
        hi - lo <= base_hi - base_lo.  A step of beta_i adds the width and
        tops of v_i o forward, all >= 0, so a beta prefix failing the width
        or a fiber test cannot be extended.  The walk ends because every
        fiber image has positive degree in some fiber variable:
        ``validate_transition`` rejects an image without one, since
        inverse o forward could not then be the identity.
        """
        f = self.space.fiber_count
        fwd = self.space.transition.forward[1:]
        width = box.base_hi - box.base_lo

        def extents(polys):
            exps = [e for p in polys for e in p.terms]
            return (
                min(e[0] for e in exps),
                max(e[0] for e in exps),
                [max(e[1 + j] for e in exps) for j in range(f)],
            )

        steps = [extents([p]) for p in fwd]
        minv = self.bundle.Minv
        gens = []
        for cp in range(self.r):
            col = [(c, minv[c][cp]) for c in range(self.r) if not minv[c][cp].is_zero()]

            def walk(i, beta, factor, lo, hi, top):
                if i == f:
                    ms = range(max(hi - box.base_hi, 0), lo - box.base_lo + 1)
                    polys = [(c, entry * factor) for c, entry in col] if ms else []
                    for m in ms:
                        vec: Vec = {
                            (c, (e[0] - m,) + e[1:]): coeff
                            for c, p in polys for e, coeff in p.terms.items()
                        }
                        gens.append((("V", cp, m, beta), vec))
                    return
                step_lo, step_hi, step_top = steps[i]
                b = 0
                while hi - lo <= width and all(t <= fm for t, fm in zip(top, box.fiber_max)):
                    if b:
                        factor = factor * fwd[i]
                    walk(i + 1, beta + (b,), factor, lo, hi, top)
                    lo, hi, b = lo + step_lo, hi + step_hi, b + 1
                    top = [t + s for t, s in zip(top, step_top)]

            walk(0, (), LaurentPoly.const(self.space.uring, 1), *extents(p for _, p in col))
        return gens


# -- witnesses ---------------------------------------------------------------


def _witness_from_tags(bundle: TransitionBundle, coeffs: Dict) -> WitnessFound:
    space = bundle.space
    uring = space.uring
    vring = space.vring
    alpha = [LaurentPoly.zero(uring) for _ in range(bundle.rank)]
    beta = [LaurentPoly.zero(vring) for _ in range(bundle.rank)]
    for tag, coeff in coeffs.items():
        if tag[0] == "U":
            _, c, exp = tag
            alpha[c] = alpha[c] + LaurentPoly.monomial(uring, exp, coeff)
        elif tag[0] == "V":
            _, cp, m, bts = tag
            # the V monomial xi^m v^beta; its forward image is z^-m (v o fwd)^beta
            exp = (m,) + tuple(bts) + (0,) * vring.params
            beta[cp] = beta[cp] + LaurentPoly.monomial(vring, exp, coeff)
        else:
            raise ValueError(f"unexpected generator tag {tag}")
    return WitnessFound(tuple(alpha), tuple(beta))


def verify_witness(bundle: TransitionBundle, cls: CechClass, witness: WitnessFound) -> bool:
    """Recompute alpha + Minv * (beta o forward) and compare with the class."""
    space = bundle.space
    chart = space.transition
    ring = space.uring
    beta_u = [chart.to_u_frame(b) for b in witness.beta]
    for c in range(bundle.rank):
        acc = witness.alpha[c]
        for cp in range(bundle.rank):
            acc = acc + bundle.Minv[c][cp] * beta_u[cp]
        if acc != cls.components[c]:
            return False
    return True


# -- the engine --------------------------------------------------------------


class CechEngine:
    """H1, coboundary and reduce queries on one bundle, on either tier.

    The queries are written once; the tier decides four things only:

    * the part key of a monomial: its character slice or its grading bucket;
    * the span source of a window: character slices built on demand, or
      every bucket of the window built at once;
    * the escalation rounds a basis must repeat for: 0, or the box's
      ``stability_rounds``;
    * the certificate: ``Exact()`` or ``StableInBox(window, rounds)``.
    """

    def __init__(self, bundle: TransitionBundle):
        validate_numeric(bundle.space)
        self.bundle = bundle
        self.exact = _ExactModel.build(bundle)
        self.box_model = None if self.exact else _BoxModel(bundle)
        # Pristine span sources by window extents (base_lo, base_hi,
        # fiber_max).  Decompose never mutates a span.  A source is kept only
        # once it has decomposed a class: an escalation that never answers
        # would otherwise pin every window it passed through.  On the exact
        # tier the source builds each slice on demand and holds no span.
        self._window_spans: Dict[Tuple, Callable] = {}

    # ---- the tier ----

    @property
    def _part_of(self):
        return self.exact.slice_of if self.exact else self.box_model.bucket_of

    def _span_source(self, window: DegreeBox):
        """Part key -> span of the coboundary generators in that part, or
        None when there are none."""
        if self.exact:
            return self.exact.slice_span
        return self._box_spans(window).get

    def _rounds(self, box: DegreeBox) -> int:
        return 0 if self.exact else box.stability_rounds

    def _certificate(self, window: DegreeBox, box: DegreeBox):
        return Exact() if self.exact else StableInBox(window, box.stability_rounds)

    # ---- elimination ----

    def _box_spans(self, box: DegreeBox):
        """Per-bucket spans of all window coboundary generators."""
        bm = self.box_model
        gens = bm.u_generators(box) + bm.v_generators(box)
        buckets: Dict[Tuple[int, ...], IncrementalSpan] = {}
        sizes: Dict[Tuple[int, ...], int] = {}
        for tag, vec in gens:
            key = bm.bucket_of(next(iter(vec)))
            sizes[key] = sizes.get(key, 0) + len(vec)
        mono_buckets: Dict[Tuple[int, ...], int] = {}
        for key in window_monomials(box, bm.r):
            b = bm.bucket_of(key)
            mono_buckets[b] = mono_buckets.get(b, 0) + 1
        cells = sum(
            mono_buckets.get(b, 0) * max(1, sizes.get(b, 0)) for b in set(mono_buckets) | set(sizes)
        )
        if cells > _max_cells():
            raise CellLimitError(
                f"window needs ~{cells} cells; raise CECH_MAX_CELLS to allow"
            )
        for tag, vec in gens:
            keys = {bm.bucket_of(k) for k in vec}
            assert len(keys) == 1, f"generator {tag} not grading-homogeneous"
            buckets.setdefault(keys.pop(), IncrementalSpan()).insert(vec, tag)
        return buckets

    def _stable_basis(self, box: DegreeBox, parts=None):
        """Greedy basis of the box's monomials modulo the coboundaries of a
        window that starts at the box and escalates until the basis repeats
        ``self._rounds(box)`` times, within MAX_ESCALATIONS enlargements.

        Returns the basis, the final window's spans of the parts the box
        meets, which carry a ("B", key) row for every box monomial, and the
        certificate.  Given ``parts`` and no rounds to repeat, only the box
        monomials in those parts are eliminated: ``_greedy_basis`` treats
        each part on its own, so their spans come out as in the full box.
        """
        if self._rounds(box) > MAX_ESCALATIONS:
            raise EscalationBudgetError(
                f"stability_rounds {box.stability_rounds} needs more than the "
                f"{MAX_ESCALATIONS} window enlargements allowed"
            )
        part_of = self._part_of
        keys = window_monomials(box, self.bundle.rank)
        if parts is not None and self._rounds(box) == 0:
            keys = [key for key in keys if part_of(key) in parts]
        window, basis, rounds = box, None, 0
        for _ in range(MAX_ESCALATIONS + 1):
            new_basis, spans = _greedy_basis(keys, part_of, self._span_source(window))
            rounds = rounds + 1 if new_basis == basis else 0
            basis = new_basis
            if rounds == self._rounds(box):
                return basis, spans, self._certificate(window, box)
            window = window.escalate()
        raise NonFiniteSlice("window basis did not stabilize within the escalation budget")

    def _decompose(self, vec: Vec, window: DegreeBox):
        """Decompose into coboundary tags; None if some part obstructs."""
        extents = (window.base_lo, window.base_hi, window.fiber_max)
        span_of = self._window_spans.get(extents)
        fresh = span_of is None
        if fresh:
            span_of = self._span_source(window)
        coeffs = _decompose_parts(_split(vec, self._part_of), span_of)
        if fresh and coeffs is not None:
            self._window_spans[extents] = span_of
        return coeffs

    def split_independent(self, keys: Sequence[Key]) -> Tuple[List[Key], List[Key]]:
        """Exact tier: split monomial classes, given as (0-based component,
        exponent) keys, into those independent modulo coboundaries and the
        dependent rest.

        A key is independent when it enlarges the span of its slice's
        coboundaries and the keys before it (see ``_greedy_basis``).
        """
        if self.exact is None:
            raise CechError("independence of stated classes needs the exact tier")
        independent, _ = _greedy_basis(keys, self.exact.slice_of, self.exact.slice_span)
        kept = set(independent)
        return independent, [key for key in keys if key not in kept]

    # ---- public operations ----

    def h1(self, box: DegreeBox) -> H1Result:
        basis, _, cert = self._stable_basis(box)
        return _make_h1_result(self.bundle, sorted(basis), cert, box)

    def is_coboundary(self, cls: CechClass, box: DegreeBox):
        vec = _class_to_vec(cls)
        if not vec:
            ring = self.bundle.space.uring
            vring = self.bundle.space.vring
            zeros_u = tuple(LaurentPoly.zero(ring) for _ in range(self.bundle.rank))
            zeros_v = tuple(LaurentPoly.zero(vring) for _ in range(self.bundle.rank))
            return True, WitnessFound(zeros_u, zeros_v)
        _check_in_box(vec, box)
        window = box
        coeffs = self._decompose(vec, window)
        rounds = 0
        while coeffs is None and rounds < self._rounds(box):
            window = window.escalate()
            coeffs = self._decompose(vec, window)
            rounds += 1
        if coeffs is None:
            return False, self._certificate(window, box)
        return True, _witness_from_tags(self.bundle, coeffs)

    def reduce(self, cls: CechClass, box: DegreeBox) -> ReduceResult:
        vec = _class_to_vec(cls)
        _check_in_box(vec, box)
        parts = _split(vec, self._part_of)
        _, spans, cert = self._stable_basis(box, parts)
        coeffs = _decompose_parts(parts, spans.get)
        assert coeffs is not None  # the spans carry a B row for every class key
        rep_vec: Vec = {}
        wit_coeffs: Dict = {}
        for tag, c in coeffs.items():
            if tag[0] == "B":
                rep_vec[tag[1]] = rep_vec.get(tag[1], Fraction(0)) + c
            else:
                wit_coeffs[tag] = wit_coeffs.get(tag, Fraction(0)) + c
        representative = _vec_to_class(self.bundle, {k: v for k, v in rep_vec.items() if v != 0})
        witness = _witness_from_tags(self.bundle, wit_coeffs)
        return ReduceResult(representative, witness, cert)

    def coboundary_generators(self, box: DegreeBox):
        """List the window coboundary generators that meet the box: those
        enumerated inside the box enlarged by one escalation step whose
        support intersects the box."""
        bm = self.box_model if self.box_model else _BoxModel(self.bundle)
        gens = bm.u_generators(box)
        for tag, vec in bm.v_generators(box.escalate()):
            if any(box.contains_exp(key[1]) for key in vec):
                gens.append((tag, vec))
        return [(_tag_public(tag), _vec_to_class(self.bundle, vec)) for tag, vec in gens]


def _tag_public(tag):
    if tag[0] == "U":
        return {"side": "U", "component": tag[1] + 1, "exponents": list(tag[2])}
    return {
        "side": "V",
        "component": tag[1] + 1,
        "xi_power": tag[2],
        "v_exponents": list(tag[3]),
    }


def _make_h1_result(bundle, basis_keys, certification, box) -> H1Result:
    ring = bundle.space.uring
    gens = [
        (c + 1, LaurentPoly.monomial(ring, exp)) for c, exp in basis_keys
    ]
    f = bundle.space.fiber_count
    dims: Dict[int, int] = {}
    for c, exp in basis_keys:
        d = sum(exp[1 : 1 + f])
        dims[d] = dims.get(d, 0) + 1
    pattern = None
    if dims:
        degs = sorted(dims)
        counts = {dims[d] for d in degs}
        if len(counts) == 1 and len(degs) == degs[-1] - degs[0] + 1 and len(degs) > 2:
            pattern = f"{counts.pop()} classes per fiber degree ({degs[0]}..{degs[-1]})"
    return H1Result(gens, dims, certification, box, pattern)


# -- module-level operations --------------------------------------------------


def h1(bundle: TransitionBundle, box: DegreeBox) -> H1Result:
    return CechEngine(bundle).h1(box)


def is_coboundary(bundle: TransitionBundle, cls: CechClass, box: DegreeBox):
    return CechEngine(bundle).is_coboundary(cls, box)


def reduce_class(bundle: TransitionBundle, cls: CechClass, box: DegreeBox) -> ReduceResult:
    return CechEngine(bundle).reduce(cls, box)


def coboundary_generators(bundle: TransitionBundle, box: DegreeBox):
    return CechEngine(bundle).coboundary_generators(box)
