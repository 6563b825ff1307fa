"""Dynamics expressions: parsing, evaluation, interval enclosure.

The grammar covers variables x1..xn, decimal constants, + - * /, integer
powers via ^, and the functions sin, cos, tanh, exp, ln.  Precedence is
^ > unary minus > * / > + - with left-associative binary operators; the
exponent of ^ must be a non-negative integer literal.  Text outside the
grammar, an unknown identifier and a variable outside x1..xn raise
ExpressionSyntaxError with the offending position.

A tree has five node kinds: `Var`, `Const`, `Unary(name, arg)` for negation
("-") and the functions, `Binary(op, left, right)` for + - * /, and
`Pow(base, exponent)`.  A `Unary` name and a `Binary` op are also the
node's SMT-LIB symbol."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionSyntaxError

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
class Unary(Expr):
    name: str           # "-" or one of FUNCTIONS
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str             # one of "+ - * /"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


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

    def left_assoc(self, ops, operand):
        """operand (op operand)* over ops, joined from the left."""
        e = operand()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in ops:
                return e
            self.advance()
            e = Binary(val, e, operand())

    def expr(self):
        return self.left_assoc("+-", self.term)

    def term(self):
        return self.left_assoc("*/", self.unary)

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Unary("-", self.unary())
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
                    raise ExpressionSyntaxError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(val, arg)
            m = re.fullmatch(r"x(\d+)", val)
            if m is None:
                raise ExpressionSyntaxError(f"unknown identifier {val!r}", pos)
            idx = int(m.group(1))
            if not 1 <= idx <= self.dim:
                raise ExpressionSyntaxError(f"variable {val} outside x1..x{self.dim}", pos)
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


_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "sin": np.sin,
           "cos": np.cos, "tanh": np.tanh, "exp": np.exp}


def _eval(e, x):
    if isinstance(e, Var):
        return x[:, e.index].copy()   # not a view: callers may write to the result
    if isinstance(e, Const):
        return np.full(x.shape[0], e.value)
    if isinstance(e, Binary):
        left, right = _eval(e.left, x), _eval(e.right, x)
        if e.op == "/":
            return np.divide(left, right, out=np.full(len(right), np.nan),
                             where=right != 0.0)
        return _UFUNCS[e.op](left, right)
    if isinstance(e, Unary):
        v = _eval(e.arg, x)
        if e.name == "-":
            return -v
        if e.name == "ln":
            return np.log(v, out=np.full(len(v), np.nan), where=v > 0.0)
        return _UFUNCS[e.name](v)
    if isinstance(e, Pow):
        base = _eval(e.base, x)
        if e.exponent == 0:
            return np.where(np.isnan(base), np.nan, 1.0)   # NaN**0 is 1
        return base ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


# -- interval arithmetic ---------------------------------------------------------

_TWO_PI = 2.0 * math.pi


def _first(better, *xs):
    """Python's min (better = np.less) or max (np.greater) of each box's xs."""
    out = xs[0]
    for x in xs[1:]:
        out = np.where(better(x, out), x, out)
    return out


def _failed(lo, hi):
    """(lo, hi), NaN at each box where an end is not finite; later nodes keep the NaN."""
    ok = np.isfinite(lo) & np.isfinite(hi)
    return np.where(ok, lo, np.nan), np.where(ok, hi, np.nan)


def _reaches(offset, lo, hi):
    """Does [lo, hi] hold offset + 2 pi k for some integer k?"""
    return offset + _TWO_PI * np.ceil((lo - offset) / _TWO_PI) <= hi


def _iv_periodic(f, lo, hi, peak, trough):
    full = hi - lo >= _TWO_PI
    ends = f(lo), f(hi)
    return (np.where(full | _reaches(trough, lo, hi), -1.0, _first(np.less, *ends)),
            np.where(full | _reaches(peak, lo, hi), 1.0, _first(np.greater, *ends)))


def _iv(e, boxes):
    """(lo, hi) of e over each box, NaN where the enclosure fails."""
    if isinstance(e, Var):
        return boxes[:, e.index, 0], boxes[:, e.index, 1]
    if isinstance(e, Const):
        value = np.full(len(boxes), e.value)
        return value, value
    if isinstance(e, Binary):
        (al, ah), (bl, bh) = _iv(e.left, boxes), _iv(e.right, boxes)
        if e.op == "+":
            return _failed(al + bl, ah + bh)
        if e.op == "-":
            return _failed(al - bh, ah - bl)
        if e.op == "/":
            bl = np.where((bl <= 0.0) & (bh >= 0.0), np.nan, bl)
        f = np.divide if e.op == "/" else np.multiply
        ends = (f(al, bl), f(al, bh), f(ah, bl), f(ah, bh))
        return _failed(_first(np.less, *ends), _first(np.greater, *ends))   # NaN where al or bl is
    if isinstance(e, Unary):
        lo, hi = _iv(e.arg, boxes)
        if e.name == "-":
            return -hi, -lo
        if e.name == "sin":
            return _iv_periodic(np.sin, lo, hi, math.pi / 2.0, -math.pi / 2.0)
        if e.name == "cos":
            return _iv_periodic(np.cos, lo, hi, 0.0, math.pi)
        f = _UFUNCS.get(e.name, np.log)
        if e.name == "ln":
            lo = np.where(lo > 0.0, lo, np.nan)
        return _failed(f(lo), f(hi))
    if isinstance(e, Pow):
        lo, hi = _iv(e.base, boxes)
        if e.exponent == 0:
            one = np.where(np.isnan(lo), np.nan, 1.0)
            return one, one
        ends = lo ** e.exponent, hi ** e.exponent
        if e.exponent % 2 == 1:
            return _failed(*ends)
        return _failed(np.where((lo <= 0.0) & (hi >= 0.0), 0.0, _first(np.less, *ends)),
                       _first(np.greater, *ends))
    raise TypeError(f"not an expression node: {e!r}")


def interval_evaluate(e: Expr, boxes) -> np.ndarray:
    """Natural interval extension of e over boxes (s, n, 2): the (s, 2)
    enclosures [lo, hi], one array operation per node.  Monotone functions
    use exact endpoint images; sin/cos detect interior extrema; even powers
    account for the minimum at zero.  A box's enclosure is NaN where a node
    overflows or turns NaN (inf - inf, 0 * inf) there, even if a later node
    would hide it (tanh of inf), divides by an interval holding 0, or takes
    ln of one reaching <= 0.  No RuntimeWarning escapes.
    """
    boxes = np.asarray(boxes, dtype=float)
    with np.errstate(all="ignore"):
        return np.column_stack(_iv(e, boxes))


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
    if isinstance(e, Binary):
        a = _affine_form(e.left, dim)
        b = _affine_form(e.right, dim)
        if a is None or b is None:
            return None
        if e.op == "+":
            return a[0] + b[0], a[1] + b[1]
        if e.op == "-":
            return a[0] - b[0], a[1] - b[1]
        if e.op == "*":
            if not a[0].any():
                return a[1] * b[0], a[1] * b[1]
            if not b[0].any():
                return b[1] * a[0], b[1] * a[1]
            return None
        if b[0].any() or b[1] == 0.0:
            return None
        return a[0] / b[1], a[1] / b[1]
    if isinstance(e, Unary):
        f = _affine_form(e.arg, dim)
        if f is None:
            return None
        if e.name == "-":
            return -f[0], -f[1]
        if f[0].any():
            return None
        return np.zeros(dim), evaluate(e, np.zeros(dim))
    if isinstance(e, Pow):
        f = _affine_form(e.base, dim)
        if e.exponent == 1 or f is None:
            return f
        if e.exponent == 0:   # 1 only where the base is defined
            return (np.zeros(dim), 1.0) if np.isfinite(np.append(*f)).all() else None
        if not f[0].any():
            return np.zeros(dim), np.float64(f[1]) ** e.exponent   # inf, not OverflowError
        return None
    raise TypeError(f"not an expression node: {e!r}")


def _weighted(fn, exprs, coefs, rows) -> np.ndarray:
    """The (m, 2) values of sum_j coefs[i, j] * exprs[j] over each row i of
    rows: fn is `interval_evaluate` over boxes, or `evaluate` at points,
    each value v entered as [v, v].  Each expression is evaluated once,
    over the rows whose coefficient on it is nonzero; terms are added from
    the left, zero coefficients skipped, so each row gets float for float
    what fn gives for the sum as one expression (``c * e`` terms joined by
    ``+`` from the left), or NaN where that is not finite."""
    lo, hi = np.zeros(len(rows)), np.zeros(len(rows))   # the empty sum
    started = np.zeros(len(rows), dtype=bool)
    with np.errstate(all="ignore"):
        for e, c in zip(exprs, np.transpose(coefs)):
            use = c != 0.0
            if use.any():
                part = fn(e, rows if use.all() else rows[use]).reshape(np.count_nonzero(use), -1)
                ends = c[use] * part[:, 0], c[use] * part[:, -1]
                least, most = _first(np.less, *ends), _first(np.greater, *ends)
                lo[use] = np.where(started[use], lo[use] + least, least)
                hi[use] = np.where(started[use], hi[use] + most, most)
                started |= use
    return np.column_stack(_failed(lo, hi))


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
