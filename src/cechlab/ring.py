"""Exact multivariate Laurent polynomial arithmetic over the rationals.

A polynomial lives in a ring with one base variable (z in the U frame, xi in
the V frame) that may carry negative exponents, ``fibers`` fiber variables
(u1..uf / v1..vf) and ``params`` deformation parameters (t1..tp), both
restricted to nonnegative exponents.  Terms are stored as a dict mapping flat
exponent tuples ``(base, fib_1..fib_f, par_1..par_p)`` to ``Fraction``
coefficients; zero coefficients are never stored, so structural equality is
polynomial equality.

Coefficients are exact rationals throughout.  No floating point enters any
computation in this package.

``LaurentPoly(ring, terms)`` validates its input: no floats, the ring's
arity, nonnegative fiber and parameter exponents, and zero coefficients
dropped.  Results of operations that are closed on valid polynomials (``+``,
unary ``-``, ``*``, ``**``, ``substitute``, ``partial`` and
``truncate_fiber``) are built by ``LaurentPoly._unchecked``, which skips
those checks; such a result must already be a dict of ``Fraction``
coefficients without zeros, keyed by exponent tuples of the right arity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Dict, Mapping, Optional, Sequence, Tuple

Exponent = Tuple[int, ...]

U_FRAME = "U"
V_FRAME = "V"


class InputError(ValueError):
    """Bad user input: the command line reports it in one line and exits 2."""


class UsageError(InputError):
    """A malformed argument, or a space, family or parameter that does not exist."""


class SignatureError(ValueError):
    """Mixed-ring or mixed-frame arithmetic."""


class NonUnitSubstitution(ValueError):
    """Base variable substituted by something other than an invertible monomial."""


class SeriesDomainError(InputError):
    """Series expansion argument outside the truncatable domain."""


@dataclass(frozen=True)
class RingSig:
    """Ring signature: fiber count, parameter count and chart frame tag.

    The frame tag makes cross-frame arithmetic a type error instead of a
    silent reinterpretation; the chart maps are the only sanctioned bridge.
    """

    fibers: int
    params: int = 0
    frame: str = U_FRAME

    def __post_init__(self):
        if self.fibers < 0 or self.params < 0:
            raise ValueError("fiber and parameter counts must be >= 0")
        if self.frame not in (U_FRAME, V_FRAME):
            raise ValueError(f"unknown frame {self.frame!r}")

    @property
    def nvars(self) -> int:
        return 1 + self.fibers + self.params

    def var_names(self) -> Tuple[str, ...]:
        if self.frame == U_FRAME:
            base = "z"
            fib = ["u"] if self.fibers == 1 else [f"u{i+1}" for i in range(self.fibers)]
        else:
            base = "xi"
            fib = ["v"] if self.fibers == 1 else [f"v{i+1}" for i in range(self.fibers)]
        par = [f"t{i+1}" for i in range(self.params)]
        return tuple([base] + fib + par)

    def var_index(self, name: str) -> int:
        try:
            return self.var_names().index(name)
        except ValueError:
            raise KeyError(f"variable {name!r} not in ring {self}") from None

    def opposite(self) -> "RingSig":
        other = V_FRAME if self.frame == U_FRAME else U_FRAME
        return RingSig(self.fibers, self.params, other)


def _accumulate(out: Dict[Exponent, Fraction], terms: Mapping[Exponent, Fraction]) -> None:
    """Add ``terms`` into ``out`` in place, deleting the sums that vanish."""
    for exp, c in terms.items():
        prev = out.get(exp)
        if prev is None:
            out[exp] = c
        else:
            c = prev + c
            if c:
                out[exp] = c
            else:
                del out[exp]


def _over_common_denominator(terms: Mapping[Exponent, Fraction]):
    """``(d, [(exp, n)])`` with every coefficient equal to ``n / d``."""
    den = lcm(*[c.denominator for c in terms.values()])
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


def _as_fraction(c) -> Fraction:
    if isinstance(c, float):
        raise TypeError("floating point coefficients are forbidden")
    return Fraction(c)


class LaurentPoly:
    """Immutable exact Laurent polynomial attached to a :class:`RingSig`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSig, terms: Mapping[Exponent, Fraction]):
        clean: Dict[Exponent, Fraction] = {}
        n = ring.nvars
        for exp, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(exp) != n:
                raise ValueError(f"exponent tuple {exp} has wrong arity for {ring}")
            if any(e < 0 for e in exp[1:]):
                raise ValueError(f"negative fiber/parameter exponent in {exp}")
            clean[tuple(exp)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, ring: RingSig, terms: Dict[Exponent, Fraction]) -> "LaurentPoly":
        """A result of a closed operation: ``terms`` is valid as it stands
        (see the module docstring) and is kept, not copied."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "ring", ring)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, *a):  # immutability guard
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring: RingSig) -> "LaurentPoly":
        return LaurentPoly(ring, {})

    @staticmethod
    def const(ring: RingSig, c) -> "LaurentPoly":
        return LaurentPoly(ring, {(0,) * ring.nvars: _as_fraction(c)})

    @staticmethod
    def monomial(ring: RingSig, exp: Sequence[int], coeff=1) -> "LaurentPoly":
        return LaurentPoly(ring, {tuple(exp): _as_fraction(coeff)})

    @staticmethod
    def var(ring: RingSig, name_or_index, power: int = 1) -> "LaurentPoly":
        idx = name_or_index if isinstance(name_or_index, int) else ring.var_index(name_or_index)
        exp = [0] * ring.nvars
        exp[idx] = power
        return LaurentPoly.monomial(ring, exp)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if other.ring != self.ring:
            raise SignatureError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ring, other)
        self._check(other)
        out = dict(self.terms)
        _accumulate(out, other.terms)
        return LaurentPoly._unchecked(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._unchecked(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            terms = {e: c * v for e, v in self.terms.items()} if c else {}
            return LaurentPoly._unchecked(self.ring, terms)
        self._check(other)
        if len(self.terms) == 1 == len(other.terms):
            ((e1, c1),) = self.terms.items()
            ((e2, c2),) = other.terms.items()
            return LaurentPoly._unchecked(self.ring, {tuple(map(add, e1, e2)): c1 * c2})
        # integer convolution over the product of the common denominators;
        # one Fraction per result term
        d1, left = _over_common_denominator(self.terms)
        d2, right = _over_common_denominator(other.terms)
        acc: Dict[Exponent, int] = {}
        get = acc.get
        for e1, n1 in left:
            for e2, n2 in right:
                e = tuple(map(add, e1, e2))
                prev = get(e)
                acc[e] = n1 * n2 if prev is None else prev + n1 * n2
        den = d1 * d2
        if den == 1:
            out = {e: Fraction(n) for e, n in acc.items() if n}
        else:
            out = {e: Fraction(n, den) for e, n in acc.items() if n}
        return LaurentPoly._unchecked(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if not self.is_unit():
                raise NonUnitSubstitution("negative power of a non-unit polynomial")
            (exp, coeff), = self.terms.items()
            return LaurentPoly._unchecked(
                self.ring, {tuple(e * n for e in exp): Fraction(1) / coeff ** (-n)}
            )
        result = LaurentPoly._unchecked(self.ring, {(0,) * self.ring.nvars: Fraction(1)})
        square = self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if n:
                square = square * square
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.ring, other)
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- structure queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def is_unit(self) -> bool:
        """Single term with no fiber or parameter content (invertible)."""
        if len(self.terms) != 1:
            return False
        (exp,) = list(self.terms)
        return all(e == 0 for e in exp[1:])

    def sorted_terms(self):
        """Terms in the canonical monomial order: lex on (base, fibers, params)."""
        return sorted(self.terms.items())

    def base_range(self) -> Tuple[int, int]:
        """(min, max) base-variable exponent; (0, 0) for the zero polynomial."""
        if not self.terms:
            return (0, 0)
        exps = [e[0] for e in self.terms]
        return (min(exps), max(exps))

    def fiber_degree(self, exp: Exponent) -> int:
        f = self.ring.fibers
        return sum(exp[1 : 1 + f])

    def truncate_fiber(self, cutoff: int) -> "LaurentPoly":
        return LaurentPoly._unchecked(
            self.ring,
            {e: c for e, c in self.terms.items() if self.fiber_degree(e) <= cutoff},
        )

    # -- homomorphisms -----------------------------------------------------

    def substitute(
        self, images: Mapping[int, "LaurentPoly"], target: Optional[RingSig] = None
    ) -> "LaurentPoly":
        """Apply the ring homomorphism sending variable i to ``images[i]``.

        The base variable image must be a unit (an invertible monomial),
        because base exponents may be negative.  Unmapped variables are sent
        to the same-index variable of the target ring.
        """
        if target is None:
            rings = {p.ring for p in images.values()}
            if len(rings) != 1:
                raise SignatureError("cannot infer target ring for substitution")
            target = rings.pop()
        full: Dict[int, LaurentPoly] = {}
        for i in range(self.ring.nvars):
            if i in images:
                img = images[i]
                if img.ring != target:
                    raise SignatureError("substitution image in wrong ring")
                full[i] = img
            else:
                if i >= target.nvars:
                    raise SignatureError("variable has no image in target ring")
                full[i] = LaurentPoly.var(target, i)
        if not full[0].is_unit():
            raise NonUnitSubstitution(
                f"base variable image must be an invertible monomial, got {full[0]}"
            )
        out: Dict[Exponent, Fraction] = {}
        one = (0,) * target.nvars
        power_cache: Dict[Tuple[int, int], LaurentPoly] = {}

        def pw(i: int, e: int) -> LaurentPoly:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = full[i] ** e
            return power_cache[key]

        for exp, coeff in self.terms.items():
            term = LaurentPoly._unchecked(target, {one: coeff})
            for i, e in enumerate(exp):
                if e != 0:
                    term = term * pw(i, e)
            _accumulate(out, term.terms)
        return LaurentPoly._unchecked(target, out)

    def partial(self, idx: int) -> "LaurentPoly":
        """Exact partial derivative with respect to variable ``idx``."""
        out: Dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            e = exp[idx]
            if e == 0:
                continue
            if idx > 0 and e - 1 < 0:  # cannot happen: fiber exponents >= 0
                raise ValueError("derivative produced a negative fiber exponent")
            new = list(exp)
            new[idx] = e - 1
            out[tuple(new)] = coeff * e  # distinct exponents stay distinct
        return LaurentPoly._unchecked(self.ring, out)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        """Exact evaluation; base value must be nonzero."""
        vals = [_as_fraction(v) for v in values]
        if len(vals) != self.ring.nvars:
            raise ValueError("wrong number of evaluation values")
        if vals[0] == 0:
            raise ZeroDivisionError("base variable evaluated at 0")
        total = Fraction(0)
        for exp, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, exp):
                if e:
                    term *= v ** e
            total += term
        return total

    def restrict_fibers_zero(self) -> "LaurentPoly":
        """Set every fiber variable to zero (keep base and parameters)."""
        f = self.ring.fibers
        out: Dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            if any(exp[1 + i] for i in range(f)):
                continue
            out[exp] = coeff
        return LaurentPoly(self.ring, out)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.var_names()
        pieces = []
        for exp, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exp):
                if e == 0:
                    continue
                factors.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(factors)
            c = coeff
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<{self.ring.frame}:{self}>"


def exp_trunc(arg: LaurentPoly, fiber_cutoff: int) -> LaurentPoly:
    """Truncated exponential series sum_{n<=N} arg^n / n!.

    Every term of ``arg`` must have total fiber degree >= 1 and a nonnegative
    base exponent; then arg^n has fiber degree >= n and the truncation to
    total fiber degree <= ``fiber_cutoff`` is exact.
    """
    if fiber_cutoff < 0:
        raise SeriesDomainError("series cutoff must be >= 0")
    for exp in arg.terms:
        if arg.fiber_degree(exp) < 1:
            raise SeriesDomainError(
                "series argument has a fiber-free term; truncation undefined"
            )
        if exp[0] < 0:
            raise SeriesDomainError("series argument has a negative base exponent")
    result = LaurentPoly.const(arg.ring, 1)
    power = LaurentPoly.const(arg.ring, 1)
    factorial = 1
    for n in range(1, fiber_cutoff + 1):
        power = (power * arg).truncate_fiber(fiber_cutoff)
        factorial *= n
        result = result + power * Fraction(1, factorial)
    return result
