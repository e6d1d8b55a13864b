"""Expression trees for radial profile functions.

Single-variable expressions in ``r`` with exact rational constants,
a small parser, and symbolic differentiation up to second order.
Profile functions and their first two derivatives are evaluated
symbolically so that no finite-difference error enters the closed-form
curvature formulas.

There is deliberately no simplifier beyond constant folding and the
neutral-element identities applied by the smart constructors; whether a
derivative tree is "simple" is irrelevant, its numerical agreement with
central differences is what the test suite checks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Neg",
    "Mul",
    "Div",
    "Pow",
    "Sin",
    "Cos",
    "Exp",
    "ExprError",
    "ParseError",
    "DomainError",
    "parse",
    "diff",
    "evaluate",
    "evaluate_grid",
    "to_text",
]

Scalar = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax or identifier error, with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation outside a node's domain (division by zero, even root of a negative)."""

    def __init__(self, message: str, node: "Expr"):
        super().__init__(f"{message} in subexpression {to_text(node)!r}")
        self.node = node


@dataclass(frozen=True)
class Expr:
    """Base node. Trees are immutable and safe to share between workers."""


@dataclass(frozen=True)
class Const(Expr):
    value: Scalar


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


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
    """Power with an exact rational exponent."""

    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


R = Var()

_ZERO = Const(Fraction(0))
_ONE = Const(Fraction(1))


def _const_value(e: Expr):
    return e.value if isinstance(e, Const) else None


def _is_const(e: Expr, v) -> bool:
    return isinstance(e, Const) and e.value == v


# Smart constructors. They fold literal subtrees and neutral elements so
# derivative trees stay a manageable size; they never fold a division by
# a zero constant (left to evaluation, which reports the node).


def frac(x: Union[Fraction, int, str, float]) -> Fraction:
    """The exact-rational coercion: a Fraction, an int, a string such as
    "3/4", or a float with an integral value. Any other float raises
    TypeError, since its binary value is rarely the rational meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    raise TypeError(f"exponents must be exact rationals, got {x!r}")


def const(v: Scalar) -> Const:
    if isinstance(v, bool):
        raise TypeError("boolean is not a valid constant")
    if isinstance(v, int):
        v = Fraction(v)
    return Const(v)


def add(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if va is not None and vb is not None:
        return Const(va + vb)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if va is not None and vb is not None:
        return Const(va - vb)
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return neg(b)
    return Sub(a, b)


def neg(a: Expr) -> Expr:
    va = _const_value(a)
    if va is not None:
        return Const(-va)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def mul(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if va is not None and vb is not None:
        return Const(va * vb)
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    va, vb = _const_value(a), _const_value(b)
    if va is not None and vb is not None and vb != 0:
        if isinstance(va, Fraction) and isinstance(vb, Fraction):
            return Const(va / vb)
        return Const(float(va) / float(vb))
    if _is_const(b, 1):
        return a
    return Div(a, b)


def pow_(base: Expr, exponent: Scalar) -> Expr:
    q = exponent if isinstance(exponent, Fraction) else Fraction(exponent)
    if q == 0:
        return _ONE
    if q == 1:
        return base
    vb = _const_value(base)
    if vb is not None and q.denominator == 1 and isinstance(vb, Fraction):
        if not (vb == 0 and q < 0):
            return Const(vb ** int(q))
    return Pow(base, q)


def sin(a: Expr) -> Expr:
    return Sin(a)


def cos(a: Expr) -> Expr:
    return Cos(a)


def sqrt(a: Expr) -> Expr:
    return pow_(a, Fraction(1, 2))


def exp(a: Expr) -> Expr:
    return Exp(a)


# --- evaluation ---------------------------------------------------------


def evaluate(e: Expr, r: float) -> float:
    """Evaluate the tree at a scalar r in IEEE double precision.

    A negative base b with exponent n/d in lowest terms and d odd takes
    the real root: b^(n/d) = (-1)^n |b|^(n/d). Raises DomainError naming
    the offending node on division by zero, an even root of a negative
    number, a negative power of zero, or overflow.
    """
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Var):
        return float(r)
    if isinstance(e, Add):
        return evaluate(e.left, r) + evaluate(e.right, r)
    if isinstance(e, Sub):
        return evaluate(e.left, r) - evaluate(e.right, r)
    if isinstance(e, Neg):
        return -evaluate(e.arg, r)
    if isinstance(e, Mul):
        return evaluate(e.left, r) * evaluate(e.right, r)
    if isinstance(e, Div):
        den = evaluate(e.right, r)
        if den == 0.0:
            raise DomainError("division by zero", e)
        return evaluate(e.left, r) / den
    if isinstance(e, Pow):
        return _eval_pow(e, evaluate(e.base, r))
    if isinstance(e, Sin):
        return math.sin(evaluate(e.arg, r))
    if isinstance(e, Cos):
        return math.cos(evaluate(e.arg, r))
    if isinstance(e, Exp):
        v = evaluate(e.arg, r)
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainError("overflow in exp", e) from None
    raise TypeError(f"unknown node {type(e).__name__}")


def _eval_pow(node: Pow, b: float) -> float:
    q = node.exponent
    try:
        if q.denominator == 1:
            if b == 0.0 and q < 0:
                raise DomainError("zero raised to a negative power", node)
            return math.pow(b, int(q))
        if b > 0.0:
            return math.pow(b, float(q))
        if b == 0.0:
            if q < 0:
                raise DomainError("zero raised to a negative power", node)
            return 0.0
        if q.denominator % 2 == 0:
            raise DomainError("even root of a negative number", node)
        sign = -1.0 if q.numerator % 2 else 1.0
        return sign * math.pow(-b, float(q))
    except OverflowError:
        raise DomainError("overflow in power", node) from None


def evaluate_grid(e: Expr, rs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation on an array of r values.

    Follows the rules of evaluate, including real odd roots of negative
    bases; a domain violation anywhere on the grid raises DomainError for
    the offending node.
    """
    rs = np.asarray(rs, dtype=float)

    def ev(node: Expr) -> np.ndarray:
        if isinstance(node, Const):
            return np.full(rs.shape, float(node.value))
        if isinstance(node, Var):
            return rs
        if isinstance(node, Add):
            return ev(node.left) + ev(node.right)
        if isinstance(node, Sub):
            return ev(node.left) - ev(node.right)
        if isinstance(node, Neg):
            return -ev(node.arg)
        if isinstance(node, Mul):
            return ev(node.left) * ev(node.right)
        if isinstance(node, Div):
            den = ev(node.right)
            if np.any(den == 0.0):
                raise DomainError("division by zero", node)
            return ev(node.left) / den
        if isinstance(node, Pow):
            b = ev(node.base)
            q = node.exponent
            if q < 0 and np.any(b == 0.0):
                raise DomainError("zero raised to a negative power", node)
            if q.denominator == 1:
                return b ** int(q)
            if not np.any(b < 0.0):
                return b ** float(q)
            if q.denominator % 2 == 0:
                raise DomainError("even root of a negative number", node)
            out = np.abs(b) ** float(q)
            return np.where(b < 0.0, -out, out) if q.numerator % 2 else out
        if isinstance(node, Sin):
            return np.sin(ev(node.arg))
        if isinstance(node, Cos):
            return np.cos(ev(node.arg))
        if isinstance(node, Exp):
            with np.errstate(over="raise"):
                try:
                    return np.exp(ev(node.arg))
                except FloatingPointError:
                    raise DomainError("overflow in exp", node) from None
        raise TypeError(f"unknown node {type(node).__name__}")

    out = ev(e)
    if not np.all(np.isfinite(out)):
        bad = rs[~np.isfinite(out)][0] if out.shape == rs.shape else None
        raise DomainError(f"non-finite value on grid (first bad r={bad})", e)
    return out


# --- differentiation ----------------------------------------------------


def diff(e: Expr, order: int = 1) -> Expr:
    """Symbolic derivative of the given order (1 or 2)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    out = _d(e)
    if order == 2:
        out = _d(out)
    return out


def _d(e: Expr) -> Expr:
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE
    if isinstance(e, Add):
        return add(_d(e.left), _d(e.right))
    if isinstance(e, Sub):
        return sub(_d(e.left), _d(e.right))
    if isinstance(e, Neg):
        return neg(_d(e.arg))
    if isinstance(e, Mul):
        return add(mul(_d(e.left), e.right), mul(e.left, _d(e.right)))
    if isinstance(e, Div):
        num = sub(mul(_d(e.left), e.right), mul(e.left, _d(e.right)))
        return div(num, pow_(e.right, 2))
    if isinstance(e, Pow):
        q = e.exponent
        return mul(mul(const(q), pow_(e.base, q - 1)), _d(e.base))
    if isinstance(e, Sin):
        return mul(cos(e.arg), _d(e.arg))
    if isinstance(e, Cos):
        return mul(neg(sin(e.arg)), _d(e.arg))
    if isinstance(e, Exp):
        return mul(exp(e.arg), _d(e.arg))
    raise TypeError(f"unknown node {type(e).__name__}")


# --- printing -----------------------------------------------------------

# Precedence levels: + - (1), * / (2), unary minus (2.5), ^ (3), atoms (4).


def _prec(e: Expr) -> float:
    if isinstance(e, (Add, Sub)):
        return 1.0
    if isinstance(e, (Mul, Div)):
        return 2.0
    if isinstance(e, Neg):
        return 2.5
    if isinstance(e, Pow):
        return 3.0
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            if v.denominator != 1:
                return 2.0  # prints as n/d
            if v < 0:
                return 2.5  # prints with a leading minus
            return 4.0
        return 4.0 if v >= 0 else 2.5
    return 4.0


def _wrap(e: Expr, minimum: float) -> str:
    text = to_text(e)
    if _prec(e) < minimum:
        return f"({text})"
    return text


def to_text(e: Expr) -> str:
    """Print the tree; parsing the result reproduces the tree structure."""
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        return repr(float(v))
    if isinstance(e, Var):
        return "r"
    if isinstance(e, Add):
        return f"{_wrap(e.left, 1.0)} + {_wrap(e.right, 1.5)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, 1.0)} - {_wrap(e.right, 1.5)}"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, 3.0)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, 2.0)}*{_wrap(e.right, 2.5)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, 2.0)}/{_wrap(e.right, 2.5)}"
    if isinstance(e, Pow):
        base = _wrap(e.base, 4.0)
        q = e.exponent
        if q.denominator == 1 and q >= 0:
            return f"{base}^{q.numerator}"
        if q.denominator == 1:
            return f"{base}^({q.numerator})"
        return f"{base}^({q.numerator}/{q.denominator})"
    if isinstance(e, Sin):
        return f"sin({to_text(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({to_text(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({to_text(e.arg)})"
    raise TypeError(f"unknown node {type(e).__name__}")


# --- parsing ------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"sin": sin, "cos": cos, "sqrt": sqrt, "exp": exp}


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = pos
                while stripped < len(text) and text[stripped].isspace():
                    stripped += 1
                raise ParseError(f"unexpected character {text[stripped]!r}", stripped)
            if m.group("number") is not None:
                self.items.append(("number", m.group("number"), m.start("number")))
            elif m.group("ident") is not None:
                self.items.append(("ident", m.group("ident"), m.start("ident")))
            else:
                self.items.append(("op", m.group("op"), m.start("op")))
            pos = m.end()
        self.items.append(("end", "", len(text)))
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.items[self.index]
        self.index += 1
        return tok


def parse(text: str) -> Expr:
    """Parse an expression in the variable r.

    Precedence is ^ above unary minus above * and / above + and -, with
    ^ right-associative. Exponents must fold to exact rational constants.
    """
    tokens = _Tokens(text)
    tree = _parse_sum(tokens)
    kind, value, offset = tokens.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", offset)
    return tree


def _parse_sum(tokens: _Tokens) -> Expr:
    node = _parse_term(tokens)
    while True:
        kind, value, _ = tokens.peek()
        if kind == "op" and value in "+-":
            tokens.next()
            rhs = _parse_term(tokens)
            node = add(node, rhs) if value == "+" else sub(node, rhs)
        else:
            return node


def _parse_term(tokens: _Tokens) -> Expr:
    node = _parse_unary(tokens)
    while True:
        kind, value, _ = tokens.peek()
        if kind == "op" and value in "*/":
            tokens.next()
            rhs = _parse_unary(tokens)
            node = mul(node, rhs) if value == "*" else div(node, rhs)
        else:
            return node


def _parse_unary(tokens: _Tokens) -> Expr:
    kind, value, _ = tokens.peek()
    if kind == "op" and value == "-":
        tokens.next()
        return neg(_parse_unary(tokens))
    if kind == "op" and value == "+":
        tokens.next()
        return _parse_unary(tokens)
    return _parse_power(tokens)


def _parse_power(tokens: _Tokens) -> Expr:
    base = _parse_atom(tokens)
    kind, value, offset = tokens.peek()
    if kind == "op" and value == "^":
        tokens.next()
        exponent = _parse_unary(tokens)
        if not (isinstance(exponent, Const) and isinstance(exponent.value, Fraction)):
            raise ParseError("exponent must be a rational constant", offset)
        return pow_(base, exponent.value)
    return base


def _parse_atom(tokens: _Tokens) -> Expr:
    kind, value, offset = tokens.next()
    if kind == "number":
        return Const(Fraction(value))
    if kind == "ident":
        if value == "r":
            return R
        if value in _FUNCTIONS:
            kind2, value2, offset2 = tokens.next()
            if not (kind2 == "op" and value2 == "("):
                raise ParseError(f"expected '(' after {value!r}", offset2)
            arg = _parse_sum(tokens)
            kind3, value3, offset3 = tokens.next()
            if not (kind3 == "op" and value3 == ")"):
                raise ParseError("expected ')'", offset3)
            return _FUNCTIONS[value](arg)
        raise ParseError(f"unknown identifier {value!r}", offset)
    if kind == "op" and value == "(":
        node = _parse_sum(tokens)
        kind2, value2, offset2 = tokens.next()
        if not (kind2 == "op" and value2 == ")"):
            raise ParseError("expected ')'", offset2)
        return node
    raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)
