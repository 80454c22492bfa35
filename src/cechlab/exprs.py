"""Tiny expression language for cocycles and transition rules.

Grammar (whitespace insensitive):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | var ('^' int)? | 'exp(' expr ')' | '(' expr ')'
    rational := int ('/' int)?

Variables: z, xi, u, v, u1, u2, ..., v1, v2, ..., t1, t2, ...  Exponents may
be negative on the base variable only; exp(...) expands at evaluation time
against a fiber-degree cutoff.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .ring import InputError, LaurentPoly, RingSig, exp_trunc


class ExprSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at column {position}")
        self.position = position


class UnknownVariableError(InputError):
    pass


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Pow:
    name: str
    exponent: int


@dataclass(frozen=True)
class ExpCall:
    arg: "Expr"


@dataclass(frozen=True)
class Mul:
    factors: Tuple["Expr", ...]


@dataclass(frozen=True)
class Add:
    terms: Tuple[Tuple[int, "Expr"], ...]  # (sign, term)


Expr = Union[Num, Var, Pow, ExpCall, Mul, Add]


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[a-zA-Z]+\d*)|(?P<op>[-+*/^()]))"
)
_VAR = re.compile(r"^(z|xi|u\d*|v\d*|t\d+)$")


def _tokenize(text: str):
    pos = 0
    tokens: List[Tuple[str, str, int]] = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
            break
        if m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num") + 1))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        expr = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {val!r}", pos)
        return expr

    def expr(self) -> Expr:
        terms: List[Tuple[int, Expr]] = []
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
        terms.append((sign, self.term()))
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                terms.append((1 if val == "+" else -1, self.term()))
            else:
                break
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        return Add(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                factors.append(self.factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Mul(tuple(factors))

    def factor(self) -> Expr:
        kind, val, pos = self.take()
        if kind == "num":
            value = Fraction(int(val))
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "/":
                self.take()
                dkind, dval, dpos = self.take()
                if dkind != "num":
                    raise ExprSyntaxError("expected denominator", dpos)
                if int(dval) == 0:
                    raise ExprSyntaxError("zero denominator", dpos)
                value = value / int(dval)
            return Num(value)
        if kind == "name":
            if val == "exp":
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ExpCall(arg)
            if not _VAR.match(val):
                raise ExprSyntaxError(f"unknown variable {val!r}", pos)
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "^":
                self.take()
                return Pow(val, self._int_exponent())
            return Var(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", pos)

    def _int_exponent(self) -> int:
        kind, val, pos = self.take()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.take()
        if kind != "num":
            raise ExprSyntaxError("expected integer exponent", pos)
        return sign * int(val)


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


def print_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        v = expr.value
        return str(v) if v.denominator != 1 or v >= 0 else f"({v})"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Pow):
        return f"{expr.name}^{expr.exponent}"
    if isinstance(expr, ExpCall):
        return f"exp({print_expr(expr.arg)})"
    if isinstance(expr, Mul):
        return "*".join(
            f"({print_expr(f)})" if isinstance(f, Add) else print_expr(f)
            for f in expr.factors
        )
    if isinstance(expr, Add):
        parts = []
        for idx, (sign, term) in enumerate(expr.terms):
            body = print_expr(term)
            if idx == 0:
                parts.append(body if sign > 0 else f"-{body}")
            else:
                parts.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(parts)
    raise TypeError(f"not an expression: {expr!r}")


def eval_expr(expr: Expr, ring: RingSig, exp_cutoff: int = 8) -> LaurentPoly:
    """Evaluate to an exact polynomial; exp(...) is truncated to total fiber
    degree <= ``exp_cutoff``.  Negative exponents on fiber or parameter
    variables are rejected."""
    if isinstance(expr, Num):
        return LaurentPoly.const(ring, expr.value)
    if isinstance(expr, Var):
        return LaurentPoly.var(ring, _lookup(ring, expr.name))
    if isinstance(expr, Pow):
        idx = _lookup(ring, expr.name)
        if idx != 0 and expr.exponent < 0:
            raise UnknownVariableError(
                f"negative exponent on non-base variable {expr.name!r}"
            )
        return LaurentPoly.var(ring, idx, expr.exponent)
    if isinstance(expr, ExpCall):
        return exp_trunc(eval_expr(expr.arg, ring, exp_cutoff), exp_cutoff)
    if isinstance(expr, Mul):
        acc = LaurentPoly.const(ring, 1)
        for f in expr.factors:
            acc = acc * eval_expr(f, ring, exp_cutoff)
        return acc
    if isinstance(expr, Add):
        acc = LaurentPoly.zero(ring)
        for sign, term in expr.terms:
            val = eval_expr(term, ring, exp_cutoff)
            acc = acc + (val if sign > 0 else -val)
        return acc
    raise TypeError(f"not an expression: {expr!r}")


def _lookup(ring: RingSig, name: str) -> int:
    try:
        return ring.var_index(name)
    except KeyError:
        raise UnknownVariableError(
            f"variable {name!r} is not defined in this chart "
            f"(expected one of {', '.join(ring.var_names())})"
        ) from None


def parse_poly(text: str, ring: RingSig, exp_cutoff: int = 8) -> LaurentPoly:
    return eval_expr(parse_expr(text), ring, exp_cutoff)
