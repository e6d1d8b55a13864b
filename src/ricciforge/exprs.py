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

import functools
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Union

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
    "compile_scalar",
    "compile_grid",
    "evaluate_grid",
    "to_text",
]

# every per-process cache (parse, _compile, and warped's _profile, _lie and
# _positive) keeps at most this many entries, dropping the least recently used
CACHE_SIZE = 256


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


def _node(cls):
    """A frozen dataclass node that stores its hash, hash(tuple of its fields),
    when first hashed. As with the generated hash, a first hash takes one
    frame per tree level, and a failure stores nothing."""
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(tuple([getattr(self, n) for n in names]))
            object.__setattr__(self, "_hash", h)
        return h

    cls.__hash__ = __hash__
    return cls


@_node
class Expr:
    """Base node. Trees are immutable and safe to share between workers."""

    _hash = None  # not a field: the stored hash, set on first use


@_node
class Const(Expr):
    """An exact rational constant; the value is coerced by frac."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", frac(self.value))


@_node
class Var(Expr):
    pass


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Neg(Expr):
    arg: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Pow(Expr):
    """Power with an exact rational exponent."""

    base: Expr
    exponent: Fraction


@_node
class Sin(Expr):
    arg: Expr


@_node
class Cos(Expr):
    arg: Expr


@_node
class Exp(Expr):
    arg: Expr


R = Var()


def _const_value(e: Expr):
    return e.value if isinstance(e, Const) else None


def _is_const(e: Expr, v) -> bool:
    return isinstance(e, Const) and e.value == v


# Smart constructors. They fold literal subtrees and neutral elements so
# derivative trees stay a manageable size; they never fold a division by
# a zero constant, nor a power whose numerator or denominator would pass
# float range (both left to evaluation, which reports the node).

_MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def frac(x: Union[Fraction, int, str, float]) -> Fraction:
    """The exact-rational coercion: a Fraction, an int, a string such as
    "3/4" or "1.5e-3", or a float with an integral value. A bool or any other
    float raises TypeError, since its value is rarely the rational meant;
    a string with a zero denominator or exponent past +-1000 raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and (m := _DECIMAL_EXPONENT.search(x)) and abs(int(m[1])) > _MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent of {x!r} is past +-{_MAX_DECIMAL_EXPONENT}")
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r} has a zero denominator") from None
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    raise TypeError(f"exponents must be exact rationals, got {x!r}")


def integer(x) -> int:
    """The integer coercion of spec and plan fields: an int, or a float with
    an integral value, as frac allows. Anything else, such as a bool, a
    string, null or another float, raises TypeError naming itself."""
    if type(x) is int:
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise TypeError(f"expected an integer, got {x!r}")


def real(x) -> float:
    """The real coercion of spec and plan numbers: an int or a float, as JSON
    reads a number, returned as a float. Any other type, such as a bool or a
    string, raises TypeError naming itself; an int past float range raises
    OverflowError, and nan and infinity pass for the caller to refuse."""
    if type(x) in (int, float):
        return float(x)
    raise TypeError(f"expected a number, got {x!r}")


_ZERO = Const(Fraction(0))
_ONE = Const(Fraction(1))


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
        return Const(va / vb)
    if _is_const(b, 1):
        return a
    return Div(a, b)


def pow_(base: Expr, exponent: Union[Fraction, int]) -> Expr:
    q = frac(exponent)
    if q == 0:
        return _ONE
    if q == 1:
        return base
    vb = _const_value(base)
    if vb is not None and q.denominator == 1 and not (vb == 0 and q < 0):
        top = max(abs(vb.numerator), vb.denominator)
        if top == 1 or abs(q) < 1024 / math.log2(top):
            return Const(vb ** int(q))
    return Pow(base, q)


def sqrt(a: Expr) -> Expr:
    return pow_(a, Fraction(1, 2))


# --- grammar ------------------------------------------------------------

# + - * / by precedence level, loosest first, each as (symbol, smart
# constructor, node class, printed separator); the parser, the printer and
# the statement tables read it. Unary minus binds at 2.5, ^ at 3, atoms at 4.
_BINARY = (
    (("+", add, Add, " + "), ("-", sub, Sub, " - ")),
    (("*", mul, Mul, "*"), ("/", div, Div, "/")),
)
_BINARY_BY_SYMBOL = {sym: (level, make) for level, ops in enumerate(_BINARY, 1) for sym, make, _, _ in ops}
_BINARY_BY_NODE = {node: (level, sep) for level, ops in enumerate(_BINARY, 1) for _, _, node, sep in ops}

# Function names, for parsing and printing; sqrt parses to a power.
_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp, "sqrt": sqrt}
_FUNCTION_NAMES = {make: name for name, make in _FUNCTIONS.items()}

# After optional whitespace: a number, an identifier, an operator, any
# other character (an error) or the end of the text.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<error>.)|(?P<end>\Z))"
)


# --- evaluation ---------------------------------------------------------


def evaluate(e: Expr, r: float) -> float:
    """The tree's value at a scalar r, by the rules of compile_scalar."""
    return compile_scalar((e,))(r)[0]


def evaluate_grid(e: Expr, rs: np.ndarray) -> np.ndarray:
    """The tree's value on the array rs, read as complex or float, by the rules of compile_grid."""
    return compile_grid((e,))(np.asarray(rs, dtype=complex if np.iscomplexobj(rs) else float))[0]


# the word an overflow error uses for each node whose own operation can
# overflow; sin and cos can on a complex grid, with a large imaginary part
_OVERFLOW_OPERATION = {Add: "sum", Sub: "difference", Mul: "product", Div: "quotient",
                       Pow: "power", Sin: "sin", Cos: "cos", Exp: "exp"}

# by node class, the statements giving its local v from operands a, b, node n
# and exponent q; {overflow} raises the node's overflow error, and "zero" is
# a denominator b's check. Every operand is finite, so v - v is nonzero,
# being nan, exactly when v overflowed.
_SCALAR_STATEMENTS = {
    Var: "{v} = _float(r)\nif {v} - {v}: raise DomainError('non-finite value %r' % {v}, {n})",
    Neg: "{v} = -{a}",
    **{node: "{v} = {a}%s{b}\nif {v} - {v}: {overflow}" % sep for node, (_, sep) in _BINARY_BY_NODE.items()},
    Pow: "try: {v} = _pow({a}, {q}) if {a} > 0.0 else _eval_pow({n}, {a}, {q})\n"
    "except OverflowError: {overflow} from None",
    Exp: "try: {v} = _exp({a})\nexcept OverflowError: {overflow} from None",
    Sin: "{v} = _sin({a})",
    Cos: "{v} = _cos({a})",
    "zero": "if {b} == 0.0: raise DomainError('division by zero', {n})",
}

# the same over arrays, run under np.errstate(over="raise"), so that each
# operation that can overflow, wrapped as _compile wraps it, raises
# FloatingPointError; every check goes by the real part. A power whose base
# has a positive real part everywhere, vacuously on an empty grid, is
# b ** q; _grid_pow decides the rest
_GRID_STATEMENTS = {
    Var: "{v} = r",
    Neg: "{v} = -{a}",
    **{node: "{v} = {a}%s{b}" % sep for node, (_, sep) in _BINARY_BY_NODE.items()},
    Pow: "{v} = {a} ** {q} if {a}.real.min(initial=_inf) > 0.0 else _grid_pow({n}, {a})",
    Exp: "{v} = _np.exp({a})",
    Sin: "{v} = _np.sin({a})",
    Cos: "{v} = _np.cos({a})",
    "zero": "if _np.any({b}.real == 0.0): raise DomainError('division by zero', {n})",
}

def compile_scalar(trees: tuple) -> Callable[[float], tuple]:
    """Compile a tuple of trees into one function r -> tuple of their
    values in IEEE double precision, cached for the last CACHE_SIZE
    tuples: straight-line code computing each structurally distinct subtree
    once, where a recursive evaluation of the trees in turn first reaches
    it (children left to right, a quotient's denominator and its zero check
    first), so the first domain violation met is the one that recursion
    raises. Constants, as floats, and nodes are bound into its namespace;
    no text of a tree enters its source. A negative base b with exponent
    n/d in lowest terms and d odd takes the real root (-1)^n |b|^(n/d).
    DomainError names the node of a division by zero, an even root of a
    negative number, a negative power of zero, or an overflow in a sum,
    difference, product, quotient, power or exp, and names r when r is not
    finite. So every value is finite. compile_grid's statements come from
    the same walk, so a failure names the node the grid names on [r].
    """
    return _compile(tuple(trees), False)


def compile_grid(trees: tuple) -> Callable[[np.ndarray], tuple]:
    """compile_scalar's function over a float or complex array rs, each
    value an array of the shape and dtype of rs. A non-finite r names the
    first tree; then, under one np.errstate(over="raise"), an overflow on
    the grid names the innermost node whose own operation failed, with no
    numpy warning, and a tree left non-finite is named before the next runs.
    A complex grid, such as the oracle's complex-step points, takes each
    rule's holomorphic extension, with every check by the real part of r.
    """
    return _compile(tuple(trees), True)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _compile(trees: tuple, grid: bool) -> Callable:
    statements = _GRID_STATEMENTS if grid else _SCALAR_STATEMENTS
    env = {"DomainError": DomainError, "_float": float, "_pow": math.pow, "_exp": math.exp, "_sin": math.sin,
           "_cos": math.cos, "_eval_pow": _eval_pow, "_np": np, "_FPE": FloatingPointError,
           "_grid_pow": _grid_pow, "_check_grid": _check_grid, "_inf": math.inf}
    names: dict[tuple, str] = {}  # (class, operands, exponent or value) -> name; (Div, b) -> check

    def bind(value) -> str:
        env[f"k{len(env)}"] = value
        return f"k{len(env) - 1}"

    lines = [f"_check_grid(r, r, {bind(trees[0])})"] if grid else []  # r is checked first

    def visit(e: Expr) -> str:
        if isinstance(e, Const):
            if (Const, e.value) not in names:  # a float, or on a grid an array of the grid's dtype
                k = bind(float(e.value))
                names[Const, e.value] = f"v{len(names)}" if grid else k
                if grid:
                    lines.append(f"{names[Const, e.value]} = _np.full(r.shape, {k}, r.dtype)")
            return names[Const, e.value]
        if type(e) not in statements:
            raise TypeError(f"unknown node {type(e).__name__}")
        if isinstance(e, Div):
            b = visit(e.right)
            if (Div, b) not in names:  # the first quotient by b checks it, before its numerator
                names[Div, b] = bind(e)
                lines.append(statements["zero"].format(b=b, n=names[Div, b]))
            operands = (visit(e.left), b)
        else:
            operands = tuple(visit(getattr(e, f)) for f in ("left", "right", "arg", "base") if hasattr(e, f))
        key = (type(e), *operands, getattr(e, "exponent", None))
        if key not in names:
            names[key] = v = f"v{len(names)}"
            n = bind(e)
            q = getattr(e, "exponent", None)  # a float; on a grid an int when integral: numpy's integer power
            q = q is not None and bind(int(q) if grid and q.denominator == 1 else float(q))
            overflow = f"raise DomainError('overflow in {_OVERFLOW_OPERATION.get(type(e))}', {n})"
            text = statements[type(e)].format(**dict(zip("ab", operands), v=v, n=n, q=q, overflow=overflow))
            if grid and type(e) in _OVERFLOW_OPERATION:
                text = f"try: {text}\nexcept _FPE: {overflow} from None"
            lines.extend(text.split("\n"))
        return names[key]

    outs = []
    for e in trees:
        outs.append(visit(e))
        if grid:
            lines.append(f"_check_grid(r, {outs[-1]}, {bind(e)})")
    del visit  # it calls itself through its own cell, a cycle the collector would free
    if grid:  # the trees run under one errstate
        lines = [lines[0], "with _np.errstate(over='raise'):", *("    " + line for line in lines[1:])]
    body = "".join(f"    {line}\n" for line in lines)
    exec(f"def run(r):\n{body}    return ({''.join(o + ', ' for o in outs)})\n", env)
    return env.pop("run")  # run's globals are env, so env keeps no reference back


def _eval_pow(node: Pow, b: float, qf: float) -> float:
    """b^q for a base b <= 0 and the node's exponent q, given qf = float(q) (exact for an integral q)."""
    q = node.exponent
    if b == 0.0 and q < 0:
        raise DomainError("zero raised to a negative power", node)
    if q.denominator == 1:
        return math.pow(b, qf)
    if b == 0.0:
        return 0.0
    if q.denominator % 2 == 0:
        raise DomainError("even root of a negative number", node)
    return (-1.0 if q.numerator % 2 else 1.0) * math.pow(-b, qf)


def _grid_pow(node: Pow, b: np.ndarray) -> np.ndarray:
    """b^q on a grid by the rules of _eval_pow, the checks and root branch by the real part of b."""
    q = node.exponent
    if q < 0 and np.any(b.real == 0.0):
        raise DomainError("zero raised to a negative power", node)
    if q.denominator == 1:
        return b ** int(q)
    negative = b.real < 0.0
    if not np.any(negative):
        return b ** float(q)
    if q.denominator % 2 == 0:
        raise DomainError("even root of a negative number", node)
    out = np.where(negative, -b, b) ** float(q)
    return np.where(negative, -out, out) if q.numerator % 2 else out


def _check_grid(rs: np.ndarray, values: np.ndarray, node: Expr) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        raise DomainError(f"non-finite value on grid (first bad r={rs.real[~finite][0]})", node)


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
        return mul(mul(Const(q), pow_(e.base, q - 1)), _d(e.base))
    if isinstance(e, Sin):
        return mul(Cos(e.arg), _d(e.arg))
    if isinstance(e, Cos):
        return mul(neg(Sin(e.arg)), _d(e.arg))
    if isinstance(e, Exp):
        return mul(Exp(e.arg), _d(e.arg))
    raise TypeError(f"unknown node {type(e).__name__}")


# --- printing -----------------------------------------------------------


def _prec(e: Expr) -> float:
    if type(e) in _BINARY_BY_NODE:
        return _BINARY_BY_NODE[type(e)][0]
    if isinstance(e, Neg):
        return 2.5
    if isinstance(e, Pow):
        return 3.0
    if isinstance(e, Const):  # n/d binds as a quotient, a leading minus as a negation
        text = _const_text(e.value)
        return 2.0 if "/" in text else 2.5 if text[0] == "-" else 4.0
    return 4.0


def _const_text(v: Fraction) -> str:
    """n or n/d. A constant m*10^k whose n/d text is longer than 17
    characters prints as mek where that is shorter; frac reads it back."""
    text = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    shift = v.denominator.bit_length()  # 10^shift is a multiple of each 2^a 5^b <= d
    m, rest = divmod(v.numerator * 10**shift, v.denominator)
    digits = str(m).rstrip("0")
    k = len(str(m)) - len(digits) - shift
    short = len(text) > 17 and not rest and abs(k) <= _MAX_DECIMAL_EXPONENT and f"{digits}e{k}"
    return short if short and len(short) < len(text) else text


def _wrap(e: Expr, minimum: float) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) < minimum else text


def to_text(e: Expr) -> str:
    """Print the tree; parsing the result reproduces the tree structure."""
    if type(e) in _BINARY_BY_NODE:
        level, separator = _BINARY_BY_NODE[type(e)]
        return f"{_wrap(e.left, level)}{separator}{_wrap(e.right, level + 0.5)}"
    if type(e) in _FUNCTION_NAMES:
        return f"{_FUNCTION_NAMES[type(e)]}({to_text(e.arg)})"
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Var):
        return "r"
    if isinstance(e, Neg):
        return f"-{_wrap(e.arg, 3.0)}"
    if isinstance(e, Pow):
        base = _wrap(e.base, 4.0)
        q = e.exponent
        if q.denominator == 1 and q >= 0:
            return f"{base}^{q.numerator}"
        if q.denominator == 1:
            return f"{base}^({q.numerator})"
        return f"{base}^({q.numerator}/{q.denominator})"
    raise TypeError(f"unknown node {type(e).__name__}")


# --- parsing ------------------------------------------------------------


def parse(text: str) -> Expr:
    """Parse an expression in the variable r.

    Precedence is ^ above unary minus above * and / above + and -, with
    ^ right-associative. Exponents must fold to exact rational constants.
    Trees are immutable, so the tree of a str is cached by its text, for
    the last CACHE_SIZE texts, and equal texts give the same tree
    object. A failed parse is not cached; any other argument goes to the
    parser uncached and raises what it raises there.
    """
    if isinstance(text, str):
        return _parse_cached(text)
    return _parse(text)


def _parse(text: str) -> Expr:
    tokens, pos = [], 0
    while not tokens or tokens[-1][0] != "end":
        m = _TOKEN_RE.match(text, pos)
        kind, pos = m.lastgroup, m.end()
        if kind == "error":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.reverse()  # the next token is the last
    tree = _parse_binary(tokens, 1)
    kind, value, offset = tokens[-1]
    if kind != "end":
        raise ParseError(f"unexpected token {value!r}", offset)
    return tree


_parse_cached = functools.lru_cache(maxsize=CACHE_SIZE)(_parse)


def _parse_binary(tokens: list, level: int) -> Expr:
    """A chain of left-associative operators of _BINARY at level and above."""
    node = _parse_unary(tokens)
    while tokens[-1][1] in _BINARY_BY_SYMBOL:
        op_level, make = _BINARY_BY_SYMBOL[tokens[-1][1]]
        if op_level < level:
            break
        tokens.pop()
        node = make(node, _parse_binary(tokens, op_level + 1))
    return node


def _parse_unary(tokens: list) -> Expr:
    """Signs, then an atom with an optional ^ and a constant exponent
    within float range."""
    value = tokens[-1][1]
    if value in ("-", "+"):
        tokens.pop()
        return neg(_parse_unary(tokens)) if value == "-" else _parse_unary(tokens)
    base = _parse_atom(tokens)
    _, value, offset = tokens[-1]
    if value != "^":
        return base
    tokens.pop()
    start = tokens[-1][2]
    exponent = _parse_unary(tokens)
    if not isinstance(exponent, Const):
        raise ParseError("exponent must be a rational constant", offset)
    try:  # evaluation reads the exponent as a float
        float(exponent.value)
    except OverflowError:
        raise ParseError("exponent is past float range", start) from None
    return pow_(base, exponent.value)


def _parse_atom(tokens: list) -> Expr:
    kind, value, offset = tokens.pop()
    if kind == "number":
        try:
            return Const(value)
        except ValueError as err:
            raise ParseError(str(err), offset) from None
    if value == "r":
        return R
    if value in _FUNCTIONS:
        _expect(tokens, "(", after=value)
        arg = _parse_binary(tokens, 1)
        _expect(tokens, ")")
        return _FUNCTIONS[value](arg)
    if kind == "ident":
        raise ParseError(f"unknown identifier {value!r}", offset)
    if value == "(":
        node = _parse_binary(tokens, 1)
        _expect(tokens, ")")
        return node
    raise ParseError(f"unexpected token {value!r}" if value else "unexpected end of input", offset)


def _expect(tokens: list, symbol: str, after: str = "") -> None:
    _, value, offset = tokens.pop()
    if value != symbol:
        raise ParseError(f"expected {symbol!r}" + (f" after {after!r}" if after else ""), offset)
