"""Dynamics expressions: parsing, evaluation, interval enclosure.

The grammar covers variables x1..xn, decimal constants, + - * /, integer
powers via ^, and the functions sin, cos, tanh, exp, ln.  Precedence is
^ > unary minus > * / > + - with left-associative binary operators; the
exponent of ^ must be a non-negative integer literal.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, ExpressionSyntaxError, UnknownIdentifier,
                     VariableOutOfRange)

FUNCTIONS = ("sin", "cos", "tanh", "exp", "ln")


class Expr:
    """Base class for expression nodes."""
    __slots__ = ()


@dataclass(frozen=True)
class Var(Expr):
    index: int          # zero-based


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Func(Expr):
    name: str
    arg: Expr


# -- parsing -------------------------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {val!r}", pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.unary()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        e = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                nkind, nval, npos = self.peek()
                if nkind != "num" or not re.fullmatch(r"\d+", nval):
                    raise ExpressionSyntaxError(
                        "exponent must be a non-negative integer literal", npos)
                self.advance()
                e = Pow(e, int(nval))
            else:
                return e

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(float(val))
        if kind == "ident":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {val!r} at position {pos}")
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Func(val, arg)
            m = re.fullmatch(r"x(\d+)", val)
            if m is None:
                raise UnknownIdentifier(f"unknown identifier {val!r} at position {pos}")
            idx = int(m.group(1))
            if not 1 <= idx <= self.dim:
                raise VariableOutOfRange(
                    f"variable {val} outside x1..x{self.dim} at position {pos}")
            return Var(idx - 1)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExpressionSyntaxError(f"unexpected {val!r}", pos)


def parse_expression(text: str, dim: int) -> Expr:
    """Parse expression text over variables x1..x<dim>."""
    return _Parser(text, dim).parse()


# -- evaluation ----------------------------------------------------------------

def evaluate(e: Expr, x):
    """Evaluate over the rows of x, (m, n) -> (m,); a point (n,) is a
    one-row batch and gives a float.

    Wherever e is undefined (division by zero, ln of a non-positive value)
    the value is NaN, at a point as in a batch; overflow gives inf.  No
    RuntimeWarning escapes: every caller reads inf and NaN.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        val = _eval(e, np.atleast_2d(x))
    return val if x.ndim == 2 else float(val[0])


def _eval(e, x):
    if isinstance(e, Var):
        return x[:, e.index]
    if isinstance(e, Const):
        return np.full(x.shape[0], e.value)
    if isinstance(e, Neg):
        return -_eval(e.arg, x)
    if isinstance(e, Add):
        return _eval(e.left, x) + _eval(e.right, x)
    if isinstance(e, Sub):
        return _eval(e.left, x) - _eval(e.right, x)
    if isinstance(e, Mul):
        return _eval(e.left, x) * _eval(e.right, x)
    if isinstance(e, Div):
        num, den = _eval(e.left, x), _eval(e.right, x)
        return np.divide(num, den, out=np.full(len(den), np.nan), where=den != 0.0)
    if isinstance(e, Pow):
        base = _eval(e.base, x)
        if e.exponent == 0:
            return np.where(np.isnan(base), np.nan, 1.0)   # NaN**0 is 1
        return base ** e.exponent
    if isinstance(e, Func):
        v = _eval(e.arg, x)
        if e.name == "ln":
            return np.log(v, out=np.full(len(v), np.nan), where=v > 0.0)
        return {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "exp": np.exp}[e.name](v)
    raise TypeError(f"not an expression node: {e!r}")


# -- interval arithmetic ---------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, v, slack: float = 0.0) -> bool:
        return self.lo - slack <= v <= self.hi + slack

    def __iter__(self):
        return iter((self.lo, self.hi))


_TWO_PI = 2.0 * math.pi


def _has_multiple_of(period_offset, lo, hi):
    """Is there an integer k with period_offset + 2*pi*k in [lo, hi]?"""
    k_lo = math.ceil((lo - period_offset) / _TWO_PI)
    return period_offset + _TWO_PI * k_lo <= hi


def _iv_sin(lo, hi):
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    out_hi = 1.0 if _has_multiple_of(math.pi / 2.0, lo, hi) else max(math.sin(lo), math.sin(hi))
    out_lo = -1.0 if _has_multiple_of(-math.pi / 2.0, lo, hi) else min(math.sin(lo), math.sin(hi))
    return (out_lo, out_hi)


def _iv_cos(lo, hi):
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    out_hi = 1.0 if _has_multiple_of(0.0, lo, hi) else max(math.cos(lo), math.cos(hi))
    out_lo = -1.0 if _has_multiple_of(math.pi, lo, hi) else min(math.cos(lo), math.cos(hi))
    return (out_lo, out_hi)


def _iv_pow(lo, hi, k):
    if k == 0:
        return (1.0, 1.0)
    if k % 2 == 1:
        return (lo ** k, hi ** k)
    top = max(lo ** k, hi ** k)
    if lo <= 0.0 <= hi:
        return (0.0, top)
    return (min(lo ** k, hi ** k), top)


def _iv(e, box):
    if isinstance(e, Var):
        return (box[e.index, 0], box[e.index, 1])
    if isinstance(e, Const):
        return (e.value, e.value)
    if isinstance(e, Neg):
        lo, hi = _iv(e.arg, box)
        return (-hi, -lo)
    if isinstance(e, Add):
        a, b = _iv(e.left, box), _iv(e.right, box)
        return (a[0] + b[0], a[1] + b[1])
    if isinstance(e, Sub):
        a, b = _iv(e.left, box), _iv(e.right, box)
        return (a[0] - b[1], a[1] - b[0])
    if isinstance(e, Mul):
        (al, ah), (bl, bh) = _iv(e.left, box), _iv(e.right, box)
        prods = (al * bl, al * bh, ah * bl, ah * bh)
        return (min(prods), max(prods))
    if isinstance(e, Div):
        (al, ah), (bl, bh) = _iv(e.left, box), _iv(e.right, box)
        if bl <= 0.0 <= bh:
            raise DomainError("interval division by an interval containing zero")
        quots = (al / bl, al / bh, ah / bl, ah / bh)
        return (min(quots), max(quots))
    if isinstance(e, Pow):
        lo, hi = _iv(e.base, box)
        return _iv_pow(lo, hi, e.exponent)
    if isinstance(e, Func):
        lo, hi = _iv(e.arg, box)
        if e.name == "sin":
            return _iv_sin(lo, hi)
        if e.name == "cos":
            return _iv_cos(lo, hi)
        if e.name == "tanh":
            return (math.tanh(lo), math.tanh(hi))
        if e.name == "exp":
            return (math.exp(lo), math.exp(hi))
        if e.name == "ln":
            if lo <= 0.0:
                raise DomainError("ln over an interval reaching <= 0")
            return (math.log(lo), math.log(hi))
    raise TypeError(f"not an expression node: {e!r}")


def interval_evaluate(e: Expr, box) -> Interval:
    """Natural interval extension of e over a box given as an (n, 2) array.

    Monotone functions use exact endpoint images; sin/cos detect interior
    extrema; even powers account for the minimum at zero.  An enclosure
    that overflows or turns NaN (inf - inf, 0 * inf) raises DomainError.
    """
    box = np.asarray(box, dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise"):
            lo, hi = _iv(e, box)
    except (OverflowError, FloatingPointError, ValueError) as exc:
        raise DomainError(f"overflow or NaN in the enclosure ({exc})") from None
    if not lo <= hi:
        raise DomainError(f"overflow or NaN in the enclosure ([{lo}, {hi}])")
    return Interval(float(lo), float(hi))


# -- structure ----------------------------------------------------------------

def _linear_form(e, dim):
    """(coeffs, const) when e is degree <= 1 and every number of the form is
    finite, else None."""
    with np.errstate(all="ignore"):
        form = _affine_form(e, dim)
    return form if form is not None and np.isfinite(np.append(*form)).all() else None


def _affine_form(e, dim):
    """(coeffs, const) when e is degree <= 1, else None; its numbers may
    overflow to inf or NaN."""
    if isinstance(e, Var):
        c = np.zeros(dim)
        c[e.index] = 1.0
        return c, 0.0
    if isinstance(e, Const):
        return np.zeros(dim), e.value
    if isinstance(e, Neg):
        f = _affine_form(e.arg, dim)
        return None if f is None else (-f[0], -f[1])
    if isinstance(e, (Add, Sub)):
        a = _affine_form(e.left, dim)
        b = _affine_form(e.right, dim)
        if a is None or b is None:
            return None
        if isinstance(e, Add):
            return a[0] + b[0], a[1] + b[1]
        return a[0] - b[0], a[1] - b[1]
    if isinstance(e, Mul):
        a = _affine_form(e.left, dim)
        b = _affine_form(e.right, dim)
        if a is None or b is None:
            return None
        if not a[0].any():
            return a[1] * b[0], a[1] * b[1]
        if not b[0].any():
            return b[1] * a[0], b[1] * a[1]
        return None
    if isinstance(e, Div):
        a = _affine_form(e.left, dim)
        b = _affine_form(e.right, dim)
        if a is None or b is None or b[0].any() or b[1] == 0.0:
            return None
        return a[0] / b[1], a[1] / b[1]
    if isinstance(e, Pow):
        if e.exponent == 1:
            return _affine_form(e.base, dim)
        f = _affine_form(e.base, dim)
        if e.exponent == 0:
            return np.zeros(dim), 1.0
        if f is not None and not f[0].any():
            return np.zeros(dim), np.float64(f[1]) ** e.exponent   # inf, not OverflowError
        return None
    if isinstance(e, Func):
        f = _affine_form(e.arg, dim)
        if f is None or f[0].any():
            return None
        return np.zeros(dim), evaluate(e, np.zeros(dim))
    raise TypeError(f"not an expression node: {e!r}")


def weighted_sum(coefs, exprs) -> Expr:
    """sum_i coefs[i] * exprs[i] as one expression: Mul(Const(c), e) terms
    joined by Add from the left.  Zero coefficients are left out; an empty
    sum is Const(0.0)."""
    terms = [Mul(Const(float(c)), e) for c, e in zip(coefs, exprs) if c != 0.0]
    return functools.reduce(Add, terms) if terms else Const(0.0)


# -- systems -------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsSystem:
    """x' = f(x) with one expression per component."""

    exprs: tuple[Expr, ...]
    dim: int

    @classmethod
    def parse(cls, components, dim: int | None = None) -> "DynamicsSystem":
        components = list(components)
        if dim is None:
            dim = len(components)
        exprs = tuple(parse_expression(t, dim) for t in components)
        return cls(exprs=exprs, dim=dim)

    def __call__(self, x) -> np.ndarray:
        return np.array([evaluate(e, x) for e in self.exprs])
