import gc
import math
import operator
import re
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ricciforge import exprs
from ricciforge.exprs import (
    Add,
    Const,
    DomainError,
    Mul,
    ParseError,
    Pow,
    Var,
    compile_grid,
    compile_scalar,
    diff,
    evaluate,
    evaluate_grid,
    parse,
    to_text,
)


def central_fd(e, r, step=1e-5):
    return (evaluate(e, r + step) - evaluate(e, r - step)) / (2.0 * step)


def test_parse_reference_profile_structure():
    f = parse("r*(1+r^2)^(-1/4)")
    expected = Mul(
        Var(),
        Pow(Add(Const(Fraction(1)), Pow(Var(), Fraction(2))), Fraction(-1, 4)),
    )
    assert f == expected


def test_parse_variable_identity():
    assert parse("r") == Var()


def test_parse_inverse_profile_eval():
    h = parse("(1+r^2)^(-1)")
    assert evaluate(h, 1.0) == 0.5
    assert evaluate(h, 2.0) == pytest.approx(0.2, abs=1e-15)


def test_eval_reference_f():
    f = parse("r*(1+r^2)^(-1/4)")
    assert evaluate(f, 1.0) == pytest.approx(2.0 ** (-0.25), abs=1e-15)


def test_eval_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("1/r"), 0.0)


def test_eval_even_root_of_negative():
    with pytest.raises(DomainError):
        evaluate(parse("(r-2)^(1/2)"), 1.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(r-2)"), 1.0)


def test_eval_odd_root_of_negative():
    assert evaluate(parse("(r-2)^(1/3)"), 1.0) == pytest.approx(-1.0)


# (text, r, expected value) on the rules of compile_scalar and evaluate
SCALAR_VALUES = [
    ("(r-2)^(1/3)", 1.0, -1.0),
    ("(r-2)^(2/3)", 1.0, 1.0),
    ("(r-10)^(-1/3)", 2.0, -0.5),
    ("(r-10)^3", 8.0, -8.0),
    ("(r-1)^(1/2)", 1.0, 0.0),
    ("sin(r) + cos(r)", 0.5, math.sin(0.5) + math.cos(0.5)),
    ("-cos(2*r)/r", 0.25, -math.cos(0.5) / 0.25),
    ("exp(-r^2)*(1+r^2)^(-5/4)", 0.7, math.exp(-0.49) * math.pow(1.49, -1.25)),
]

# (text, r, message, the subtree the error must name)
SCALAR_ERRORS = [
    ("1/r", 0.0, "division by zero", "1/r"),
    ("1 + 1/(r-r)", 1.0, "division by zero", "1/(r - r)"),
    # the denominator is evaluated first, so its error wins
    ("(r-2)^(1/2)/(r-1)", 1.0, "division by zero", "(r - 2)^(1/2)/(r - 1)"),
    ("r^(-2)", 0.0, "zero raised to a negative power", "r^(-2)"),
    ("2*(r-1)^(-1/2)", 1.0, "zero raised to a negative power", "(r - 1)^(-1/2)"),
    ("(r-2)^(1/2) + 1", 1.0, "even root of a negative number", "(r - 2)^(1/2)"),
    ("exp(r^2) - 1", 100.0, "overflow in exp", "exp(r^2)"),
    ("r^3", 1e200, "overflow in power", "r^3"),
    ("(r+1)^(5/2)", 1e300, "overflow in power", "(r + 1)^(5/2)"),
    # an even root of the NaN or -inf a silent product overflow leaves
    # names that product, as the grid evaluator does
    ("(r^200*r^200 - r^200*r^200)^(1/2)", 10.0, "overflow in product", "r^200*r^200"),
    ("(-r^200*r^200)^(1/2)", 10.0, "overflow in product", "-r^200*r^200"),
]


@pytest.mark.parametrize("text,r,want", SCALAR_VALUES)
def test_compiled_and_one_shot_values(text, r, want):
    tree = parse(text)
    at = compile_scalar((tree,))
    assert at(r)[0] == evaluate(tree, r) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert at(r) == at(r)


@pytest.mark.parametrize("text,r,message,node", SCALAR_ERRORS)
def test_compiled_and_one_shot_errors_name_the_node(text, r, message, node):
    tree = parse(text)
    with pytest.raises(DomainError, match=message) as compiled:
        compile_scalar((tree,))(r)
    with pytest.raises(DomainError, match=message) as one_shot:
        evaluate(tree, r)
    assert to_text(compiled.value.node) == to_text(one_shot.value.node) == node
    assert compiled.value.node == one_shot.value.node
    assert str(compiled.value) == str(one_shot.value)


@pytest.mark.parametrize(
    "text,message,node",
    [
        ("r^308 + r^308", "overflow in sum", "r^308 + r^308"),
        ("r^308 - (-r^308)", "overflow in difference", "r^308 - -r^308"),
        ("r^200*r^200", "overflow in product", "r^200*r^200"),
        ("r^200/r^-200", "overflow in quotient", "r^200/r^(-200)"),
        ("exp(r^3)", "overflow in exp", "exp(r^3)"),
        ("exp(r^200*r^200)", "overflow in product", "r^200*r^200"),
        ("sin(exp(r^200*r))", "overflow in exp", "exp(r^200*r)"),
    ],
)
@pytest.mark.parametrize("dtype", [float, complex])
def test_grid_overflow_names_the_innermost_overflowing_operation(text, message, node, dtype):
    # one errstate covers the tree; an enclosing node never takes the blame
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message) as err:
            evaluate_grid(parse(text), np.array([1.0, 10.0], dtype=dtype))
    assert to_text(err.value.node) == node


@pytest.mark.parametrize("text", ["sin(r^40)", "cos(r^40)"])
def test_complex_grid_sin_and_cos_overflow_name_their_node(text):
    # a complex step through r^40 at r = 10 has an imaginary part of 4e10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"overflow in {text[:3]}") as err:
            evaluate_grid(parse(text), np.array([10.0 + 1e-30j]))
    assert to_text(err.value.node) == text


@pytest.mark.parametrize(
    "text,r,node",
    [
        ("r^3", 1e200, "r^3"),
        ("(r+1)^(5/2)", 1e300, "(r + 1)^(5/2)"),
        ("r + r^400", 10.0, "r^400"),
        ("(-r)^(401/3)", 1e3, "(-r)^(401/3)"),
    ],
)
@pytest.mark.parametrize("dtype", [float, complex])
def test_grid_power_overflow_names_the_node_without_a_warning(text, r, node, dtype):
    # as the scalar path does; numpy's overflow warning never reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow in power") as err:
            evaluate_grid(parse(text), np.array([1.0, r], dtype=dtype))
    assert to_text(err.value.node) == node


@pytest.mark.parametrize("text", ["(r-2)^(1/3)", "(r-2)^(2/3)", "(r-2)^(1/2)"])
def test_scalar_and_grid_agree_on_negative_bases(text):
    # odd denominators take the real root with sign (-1)^numerator; even
    # denominators of a negative base raise on both paths
    tree = parse(text)
    rs = [0.5, 1.0, 3.0]
    for r in rs:
        try:
            want = evaluate(tree, r)
        except DomainError:
            with pytest.raises(DomainError):
                evaluate_grid(tree, np.array([r]))
            continue
        assert evaluate_grid(tree, np.array([r]))[0] == pytest.approx(want, rel=1e-15)
    if text.endswith("(1/2)"):
        with pytest.raises(DomainError):
            evaluate_grid(tree, np.array(rs))
    else:
        want = np.array([evaluate(tree, r) for r in rs])
        assert np.allclose(evaluate_grid(tree, np.array(rs)), want, rtol=1e-15, atol=0.0)


def test_sqrt_is_half_power():
    assert parse("sqrt(1+r^2)") == parse("(1+r^2)^(1/2)")
    assert to_text(parse("sqrt(r)")) == "r^(1/2)"
    assert evaluate(diff(parse("sqrt(r)"), 1), 4.0) == 0.25


def test_diff_power_rule():
    assert to_text(diff(parse("r^2"), 1)) == "2*r"


def test_second_derivative_of_sine():
    assert to_text(diff(parse("sin(r)"), 2)) == "-sin(r)"


def test_diff_reference_f_at_origin():
    f = parse("r*(1+r^2)^(-1/4)")
    fp = diff(f, 1)
    assert evaluate(fp, 0.0) == 1.0
    assert central_fd(f, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_diff_order_validation():
    with pytest.raises(ValueError):
        diff(parse("r"), 3)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("r + @")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("r + spam(r)")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("r^r")
    assert "rational constant" in str(err.value)
    with pytest.raises(ParseError):
        parse("(1+r")
    with pytest.raises(ParseError):
        parse("")


def test_power_precedence_and_associativity():
    # ^ binds above unary minus and multiplication; right-associative.
    assert evaluate(parse("-r^2"), 3.0) == -9.0
    assert evaluate(parse("2*r^2"), 3.0) == 18.0
    assert parse("r^2^3") == Pow(Var(), Fraction(8))
    assert evaluate(parse("r^-2"), 2.0) == 0.25


def test_division_by_zero_constant_not_folded():
    tree = parse("1/(r-r)")
    with pytest.raises(DomainError):
        evaluate(tree, 1.0)


def test_eval_determinism():
    f = diff(parse("sin(r)*exp(-r^2)*(1+r^2)^(-5/4)"), 2)
    a = evaluate(f, 0.7321)
    b = evaluate(f, 0.7321)
    assert a == b


def test_grid_eval_matches_scalar():
    f = diff(parse("r*(1+r^2)^(-1/4)"), 2)
    rs = np.linspace(0.1, 10.0, 37)
    grid = evaluate_grid(f, rs)
    scalar = np.array([evaluate(f, r) for r in rs])
    # each path is deterministic; across paths the power kernels may
    # differ in the last ulp
    assert np.array_equal(grid, evaluate_grid(f, rs))
    assert np.allclose(grid, scalar, rtol=5e-15, atol=0.0)


@pytest.mark.parametrize(
    "text",
    ["(r-2)^(1/3)", "(r-2)^(2/3)", "(r-2)^(-5/3)", "r*(1+r^2)^(-1/4)", "exp(-r^2)/(2+sin(r))", "3"],
)
def test_grid_eval_complex_step_is_the_derivative(text):
    # complex r extends each rule holomorphically, odd roots of negative
    # bases included, so Im f(r + i eta) / eta is f'(r) and the real part is f(r)
    f = parse(text)
    rs = np.array([0.5, 1.0, 1.9, 3.0, 7.5])
    z = evaluate_grid(f, rs + 1e-30j)
    assert z.dtype == complex
    np.testing.assert_allclose(z.real, evaluate_grid(f, rs), rtol=1e-15, atol=0.0)
    want = evaluate_grid(diff(f, 1), rs)
    np.testing.assert_allclose(z.imag / 1e-30, want, rtol=1e-13, atol=1e-300)


def test_grid_eval_complex_domain_checks_read_real_parts():
    with pytest.raises(DomainError, match="division by zero"):
        evaluate_grid(parse("1/(r-1)"), np.array([1.0 + 1e-30j]))
    with pytest.raises(DomainError, match="even root"):
        evaluate_grid(parse("(r-2)^(1/2)"), np.array([1.0 + 1e-30j]))


def _random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.32:
        if rng.random() < 0.6:
            return Var()
        num = rng.randint(-3, 3)
        den = rng.choice([1, 1, 2, 4])
        return Const(Fraction(num, den))
    kind = rng.choices(
        ["add", "sub", "mul", "div", "pow", "sin", "cos", "sqrt", "exp"],
        weights=[20, 15, 20, 10, 15, 8, 8, 2, 2],
    )[0]
    a = _random_tree(rng, depth - 1)
    if kind == "add":
        return exprs.add(a, _random_tree(rng, depth - 1))
    if kind == "sub":
        return exprs.sub(a, _random_tree(rng, depth - 1))
    if kind == "mul":
        return exprs.mul(a, _random_tree(rng, depth - 1))
    if kind == "div":
        return exprs.div(a, _random_tree(rng, depth - 1))
    if kind == "pow":
        q = rng.choice([Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(-1, 4)])
        return exprs.pow_(a, q)
    if kind == "sin":
        return exprs.Sin(a)
    if kind == "cos":
        return exprs.Cos(a)
    if kind == "sqrt":
        return exprs.sqrt(a)
    return exprs.Exp(a)


def test_print_parse_roundtrip_on_random_trees():
    rng = random.Random(20240810)
    for _ in range(100):
        tree = _random_tree(rng, 6)
        assert parse(to_text(tree)) == tree


def test_derivative_matches_central_differences():
    rng = random.Random(987654)
    trees_checked = 0
    points_checked = 0
    for _ in range(100):
        tree = _random_tree(rng, 6)
        try:
            d1 = diff(tree, 1)
            d2 = diff(tree, 2)
            d3 = exprs._d(d2)
        except Exception:
            continue
        # each tree is evaluated at many radii, so hold its compiled function
        at, d1_at, d3_at = (compile_scalar((e,)) for e in (tree, d1, d3))
        used = False
        for _ in range(20):
            r = rng.uniform(0.1, 10.0)
            step = 1e-5
            try:
                vals = [at(r + s)[0] for s in (-step, 0.0, step)]
                dv = d1_at(r)[0]
                d3v = d3_at(r)[0]
            except DomainError:
                continue
            if any(not math.isfinite(v) or abs(v) > 1e3 for v in vals):
                continue
            if not math.isfinite(dv) or abs(dv) > 1e6 or not math.isfinite(d3v):
                continue
            tol = 1e-6 * (1.0 + abs(dv))
            # skip radii where the finite-difference error itself exceeds
            # a third of the budget (truncation |f'''| s^2/6 plus roundoff)
            fd_err = abs(d3v) * step**2 / 6.0 + 2e-16 * max(abs(v) for v in vals) / step
            if fd_err > tol / 3.0:
                continue
            fd = (vals[2] - vals[0]) / (2.0 * step)
            assert abs(dv - fd) <= tol, (to_text(tree), r, dv, fd)
            used = True
            points_checked += 1
        trees_checked += used
    assert trees_checked >= 40
    assert points_checked >= 400


def test_second_derivative_matches_fd_of_first():
    f = parse("r*(1+r^2)^(-1/4) + cos(2*r)")
    d1 = diff(f, 1)
    d2 = diff(f, 2)
    for r in (0.3, 1.0, 2.5, 7.0):
        fd = central_fd(d1, r)
        assert evaluate(d2, r) == pytest.approx(fd, abs=1e-6 * (1 + abs(fd)))


def test_constants_are_exact_rationals():
    with pytest.raises(TypeError):
        Const(0.25)
    assert Const(2.0).value == Fraction(2)
    for value in (Fraction(1, 4), Fraction(-3, 7), Fraction(5), Fraction(-2), Fraction(0)):
        tree = exprs.mul(Const(value), Var())
        assert parse(to_text(tree)) == tree
        assert parse(to_text(Const(value))) == Const(value)


@pytest.mark.parametrize(
    "text, printed",
    [
        ("-1e300*r", "-1e300*r"),
        ("1e-300*r", "1e-300*r"),
        ("r^2*1.5e-30", "r^2*15e-31"),
        ("(2e-300)^(1/2)", "2e-300^(1/2)"),
        ("(-2e300)^(1/3)", "(-2e300)^(1/3)"),
        ("r/2e40", "r/2e40"),
        ("1e300*1e300", "1e600"),
        # a short constant keeps its n or n/d text
        ("1e16", "10000000000000000"),
        ("1000*r", "1000*r"),
        ("3/2000", "3/2000"),
        ("1.5e-3", "3/2000"),
        # a long constant that is no m*10^k, or is only as a longer text, keeps it too
        ("1/3e20", "1/300000000000000000000"),
        ("123456789012345678901", "123456789012345678901"),
        ("1e700*1e700", "1" + "0" * 1400),
    ],
)
def test_a_long_power_of_ten_multiple_prints_in_e_form(text, printed):
    tree = parse(text)
    assert to_text(tree) == printed
    assert parse(printed) == tree


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("r + @", "unexpected character '@'", 4),
        ("r + spam(r)", "unknown identifier 'spam'", 4),
        ("r^r", "exponent must be a rational constant", 1),
        ("(1+r", "expected ')'", 4),
        ("sin(r r)", "expected ')'", 6),
        ("sin r", "expected '(' after 'sin'", 4),
        ("sqrt", "expected '(' after 'sqrt'", 4),
        ("", "unexpected end of input", 0),
        (" \t\n", "unexpected end of input", 3),
        ("r*", "unexpected end of input", 2),
        ("r r", "unexpected token 'r'", 2),
        ("(r))", "unexpected token ')'", 3),
        ("2 3", "unexpected token '3'", 2),
        ("r + 1e1001", "decimal exponent of '1e1001' is past +-1000", 4),
        # an exponent float() cannot hold is refused at its own offset
        ("r^(1e400)", "exponent is past float range", 2),
        ("(1+r^2)^(1e400/3)", "exponent is past float range", 8),
        ("r^-2e308", "exponent is past float range", 2),
        ("r^2^1e400", "exponent is past float range", 4),
    ],
)
def test_parse_errors_give_message_and_offset(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"{message} (at offset {offset})"
    assert err.value.offset == offset


def test_unary_plus_is_the_identity():
    assert parse("+r") == Var()
    assert parse("-+-r") == Var()
    assert parse("2*+r") == parse("2*r")
    assert parse("+2^2") == Const(4)


def test_whitespace_anywhere_between_tokens_changes_nothing():
    # tabs, newlines and Unicode spaces before, between and after the
    # tokens, the end included, parse to the tree of the bare text
    rng = random.Random(18)
    spaces = [" ", "\t", "\n", "\r\n", "\u00a0", "\u2003", "\u3000"]
    for _ in range(100):
        tree = _random_tree(rng, 5)
        tokens = re.findall(r"\d+|[a-z]+|\S", to_text(tree))
        text = "".join(rng.choice(spaces) * rng.randint(0, 2) + t for t in tokens)
        assert parse(text + rng.choice(spaces)) == tree
    assert parse("r ") == parse(" r\t\n") == Var()


def test_constant_powers_past_float_range_stay_unfolded():
    # folding 2^(3^27) exactly would need a 7.6e12-bit integer
    tree = parse("2^3^3^3")
    assert tree == Pow(Const(2), Fraction(3**27))
    with pytest.raises(DomainError, match="overflow in power"):
        evaluate(tree, 1.0)
    assert parse("2^2000") == Pow(Const(2), Fraction(2000))
    assert parse("2^-2000") == Pow(Const(2), Fraction(-2000))
    assert parse("2^1023") == Const(2**1023)
    assert parse("(-1)^(10^12)") == Const(1)


def test_an_exponent_inside_float_range_overflows_at_its_node():
    # 1e308 is a float, so the parser keeps it; evaluating r^1e308 names the power on both paths
    tree = parse("r^(1e308)")
    assert tree == Pow(Var(), Fraction(10**308))
    with pytest.raises(DomainError, match="overflow in power"):
        evaluate(tree, 2.0)
    with pytest.raises(DomainError, match="overflow in power"):
        evaluate_grid(tree, np.array([2.0]))


@pytest.mark.parametrize("text", ["1e10000000", "1e100000000", "1E-1001"])
def test_decimal_exponents_past_1000_are_parse_errors(text):
    with pytest.raises(ParseError) as err:
        parse("r*" + text)
    assert err.value.offset == 2
    with pytest.raises(ValueError, match=r"past \+-1000"):
        exprs.frac(text)


def test_decimal_exponents_up_to_1000_parse_exactly():
    assert parse("1e400") == Const(10**400)
    assert parse("1e-400") == Const(Fraction(1, 10**400))
    assert parse("1E+1000") == Const(10**1000)
    assert exprs.frac("2.5e-1000") == Fraction(25, 10**1001)


def test_parse_caches_trees_by_text_within_a_finite_bound():
    assert parse("r*(1+r^2)^(-1/4)") is parse("r*(1+r^2)^(-1/4)")
    info = exprs._parse_cached.cache_info()
    assert info.maxsize == exprs.PARSE_CACHE_SIZE and 0 < exprs.PARSE_CACHE_SIZE < 10_000
    for k in range(exprs.PARSE_CACHE_SIZE + 10):
        parse(f"r + {k}")
    assert exprs._parse_cached.cache_info().currsize == exprs.PARSE_CACHE_SIZE


def test_compiled_functions_are_cached_within_a_finite_bound():
    trees = (parse("r*(1+r^2)^(-1/4)"), parse("sin(r)"))
    assert compile_scalar(trees) is compile_scalar(list(trees))
    info = exprs._compile.cache_info()
    assert info.maxsize == exprs.COMPILE_CACHE_SIZE and 0 < exprs.COMPILE_CACHE_SIZE < 10_000
    for k in range(exprs.COMPILE_CACHE_SIZE + 10):
        evaluate(parse(f"r + {k}"), 1.0)
    assert exprs._compile.cache_info().currsize == exprs.COMPILE_CACHE_SIZE


@pytest.mark.parametrize("compile_", [compile_scalar, compile_grid])
def test_a_compile_leaves_no_cyclic_garbage(compile_):
    # neither the walk, which recurses through a closure, nor the generated
    # function, whose globals are the namespace it is built in, may leave a
    # reference cycle: with the collector off, a cache miss frees everything
    # but the function the cache keeps
    trees = (parse("r*(1+r^2)^(-1/4) + 7/3"), parse("sin(r)/(r - 1/3) + exp(-r)"))
    misses = exprs._compile.cache_info().misses
    gc.collect()
    gc.disable()
    try:
        compile_(trees)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert exprs._compile.cache_info().misses == misses + 1


@pytest.mark.parametrize("arg", [5, ["r"], b"r", None])
def test_parse_of_a_non_string_raises_what_the_parser_raises(arg):
    # a list is unhashable: a cache in front of the parser would change the error
    with pytest.raises(TypeError) as want:
        re.compile("r").match(arg, 0)
    with pytest.raises(TypeError) as got:
        parse(arg)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text, offset", [("(1+r", 4), ("r^r", 1), ("r + 1e1001", 4)])
def test_a_parse_error_is_raised_again_on_the_same_text(text, offset):
    size = exprs._parse_cached.cache_info().currsize
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert exprs._parse_cached.cache_info().currsize == size


@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_scalar_trig_of_an_overflowed_argument_names_the_overflow(fn):
    # the product's own overflow check fires before math.sin, which would raise ValueError at inf
    e = parse(f"r + {fn}(r^200*r^200)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (compile_scalar((e,)), lambda r: evaluate_grid(e, np.array([r]))):
            with pytest.raises(DomainError) as err:
                run(10.0)
            assert str(err.value) == "overflow in product in subexpression 'r^200*r^200'"
    assert compile_scalar((e,))(1.0) == (1.0 + getattr(math, fn)(1.0),)


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_a_non_finite_r_is_named_on_both_paths_without_a_warning(r):
    # exp(-r) and 1/(1 + r^2) would hide r = inf as a finite 0.0
    e = parse("(1+r^2)^(-1) + exp(-r)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            evaluate(e, r)
        assert str(err.value) == f"non-finite value {r} in subexpression 'r'"
        with pytest.raises(DomainError) as err:
            evaluate_grid(e, np.array([1.0, r]))
        assert str(err.value) == f"non-finite value on grid (first bad r={r}) in subexpression {to_text(e)!r}"


# --- the closure compiler the generated evaluator replaced, as its reference


def _reference_closure(e):
    """r -> float as one closure per node, evaluating children left to
    right and a quotient's denominator, with its zero check, first."""
    if isinstance(e, Const):
        v = float(e.value)
        return lambda r: v
    if isinstance(e, Var):
        return float
    if isinstance(e, exprs.Neg):
        a = _reference_closure(e.arg)
        return lambda r: -a(r)
    if isinstance(e, Pow):
        a, qf = _reference_closure(e.base), float(e.exponent)
        return lambda r: _reference_pow(e, a(r), qf)
    if isinstance(e, (exprs.Sin, exprs.Cos)):
        a, fn = _reference_closure(e.arg), math.sin if isinstance(e, exprs.Sin) else math.cos
        return lambda r: fn(a(r))
    if isinstance(e, exprs.Exp):
        a = _reference_closure(e.arg)

        def exp_(r):
            v = a(r)
            try:
                return math.exp(v)
            except OverflowError:
                raise DomainError("overflow in exp", e) from None

        return exp_
    a, b = _reference_closure(e.left), _reference_closure(e.right)
    word, op = {
        Add: ("sum", operator.add),
        exprs.Sub: ("difference", operator.sub),
        Mul: ("product", operator.mul),
        exprs.Div: ("quotient", operator.truediv),
    }[type(e)]

    def binary(r):
        if isinstance(e, exprs.Div):
            den = b(r)
            if den == 0.0:
                raise DomainError("division by zero", e)
            v = op(a(r), den)
        else:
            v = op(a(r), b(r))
        # every operand is finite, so a non-finite v is this operation's overflow
        if not math.isfinite(v):
            raise DomainError(f"overflow in {word}", e)
        return v

    return binary


def _reference_pow(node, b, qf):
    try:
        if b > 0.0:
            return math.pow(b, qf)
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
    except OverflowError:
        raise DomainError("overflow in power", node) from None


# --- the recursive interpreter the generated grid code replaced, as its reference


def _reference_grid(e, rs):
    """e on the array rs by one recursion over the tree under one
    np.errstate(over="raise"), each constant an array of the grid's dtype."""
    rs = np.asarray(rs, dtype=complex if np.iscomplexobj(rs) else float)

    def ev(node):
        try:
            if isinstance(node, Const):
                return np.full(rs.shape, float(node.value), dtype=rs.dtype)
            if isinstance(node, Var):
                return rs
            if isinstance(node, exprs.Neg):
                return -ev(node.arg)
            if isinstance(node, exprs.Div):
                den = ev(node.right)
                if np.any(den.real == 0.0):
                    raise DomainError("division by zero", node)
                return ev(node.left) / den
            if isinstance(node, (Add, exprs.Sub, Mul)):
                op = {Add: operator.add, exprs.Sub: operator.sub, Mul: operator.mul}[type(node)]
                return op(ev(node.left), ev(node.right))
            if isinstance(node, Pow):
                b = ev(node.base)
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
            fn = {exprs.Sin: np.sin, exprs.Cos: np.cos, exprs.Exp: np.exp}[type(node)]
            return fn(ev(node.arg))
        except FloatingPointError:
            # a child's overflow is already a DomainError, so this one comes
            # from the node's own operation
            word = {Add: "sum", exprs.Sub: "difference", Mul: "product", exprs.Div: "quotient", Pow: "power",
                    exprs.Sin: "sin", exprs.Cos: "cos", exprs.Exp: "exp"}[type(node)]
            raise DomainError(f"overflow in {word}", node) from None

    finite = np.isfinite(rs)
    if finite.all():
        with np.errstate(over="raise"):
            out = ev(e)
        finite = np.isfinite(out)
    if not finite.all():
        raise DomainError(f"non-finite value on grid (first bad r={rs.real[~finite][0]})", e)
    return out


def _outcome(run, r):
    """The dtype, shape and bytes of each value run(r) returns, so that the
    sign of a zero and of a NaN count, or the message and node of its
    DomainError."""
    try:
        return [(v.dtype, v.shape, v.tobytes()) for v in map(np.asarray, run(r))]
    except DomainError as err:
        return (str(err), err.node)


# each is compiled with its first two derivatives, which share its subtrees
_EDGE_TREES = [
    "1/(r - r) + r",
    "(r - 2)^(1/2) + 1/(r - 1)",
    "exp(r^3)*r",
    "sin(r^200*r^200) + r",
    "cos(r^200*r^200) + r",
    "(r^200*r^200 - r^200*r^200)^(1/2) + r",
    "(r*r + 1)/(r*r - 1) + sin(r*r)/(r*r - 1)",
    "r^(-1/2)*cos(r)^(1/3)",
]


def test_generated_evaluator_equals_the_closure_reference():
    rng = random.Random(20261019)
    radii = [0.0, -0.0, 1.0, -1.0, 2.0, -2.5, 0.3, 10.0, 1e3, 1e100, 1e200]
    trees = [parse(t) for t in _EDGE_TREES] + [_random_tree(rng, 6) for _ in range(150)]
    seen = set()
    for tree in trees:
        try:
            d1 = diff(tree, 1)
            profile = (tree, d1, diff(d1, 1))
        except (RecursionError, OverflowError):
            continue
        refs = [_reference_closure(e) for e in profile]
        generated, on_grid = compile_scalar(profile), compile_grid(profile)
        rs = radii + [rng.uniform(-5.0, 5.0) for _ in range(4)]
        for r in rs:
            want = _outcome(lambda r: [ref(r) for ref in refs], r)
            assert _outcome(generated, r) == want, (to_text(tree), r)
            # the grid function fails where the scalar one fails, naming the same node
            grid = _outcome(on_grid, np.array([r]))
            if isinstance(want, tuple) or isinstance(grid, tuple):
                assert grid == want, (to_text(tree), r)
            seen.add(want[0].split(" in subexpression")[0] if isinstance(want, tuple) else "value")
        # the grid function is each tree through the interpreter in turn, bit
        # for bit, on one radius, on all, on none, and on a grid where a power
        # of r meets positive, zero and negative bases, real and complex
        for grid in [np.array([r]) for r in rs] + [np.array(rs), np.array([]), np.array([1.5, 0.0, -2.0])]:
            for rs_ in (grid, grid + 1e-30j):
                want = _outcome(lambda rs_: [_reference_grid(e, rs_) for e in profile], rs_)
                assert _outcome(on_grid, rs_) == want, (to_text(tree), rs_)
    for kind in ("value", "division by zero", "even root of a negative number", "overflow in exp"):
        assert kind in seen
    assert {"overflow in product", "zero raised to a negative power"} <= seen


@pytest.fixture
def grid_pow_calls(monkeypatch):
    """The node text of each exprs._grid_pow call made by functions compiled in the test."""
    calls, grid_pow = [], exprs._grid_pow
    monkeypatch.setattr(exprs, "_grid_pow", lambda node, b: calls.append(to_text(node)) or grid_pow(node, b))
    exprs._compile.cache_clear()  # compiled functions bind _grid_pow when compiled
    yield calls
    exprs._compile.cache_clear()


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("rs", [[0.5, 1.0, 3.0], []], ids=["positive", "empty"])
def test_a_power_of_positive_bases_is_computed_in_line(grid_pow_calls, rs, dtype):
    tree = parse("r^2 + r^(1/2) + (r + 1)^(-3/2) + r^(-2) + exp(r)^(5/3)")
    rs = np.array(rs, dtype=dtype)
    assert _outcome(compile_grid((tree,)), rs) == _outcome(lambda rs: [_reference_grid(tree, rs)], rs)
    assert grid_pow_calls == []


@pytest.mark.parametrize(
    "text, rs, error, called",
    [
        ("(r - 1)^(-1)", [2.0, 1.0], "zero raised to a negative power in subexpression '(r - 1)^(-1)'", ["(r - 1)^(-1)"]),
        ("(r - 2)^(1/2)", [3.0, 1.0], "even root of a negative number in subexpression '(r - 2)^(1/2)'", ["(r - 2)^(1/2)"]),
        ("r^(1/2) + (r - 2)^(1/3)", [3.0, 2.0, 1.0], None, ["(r - 2)^(1/3)"]),
        ("(r - 2)^2*r^3", [0.5, 3.0], None, ["(r - 2)^2"]),
    ],
    ids=["zero-to-a-negative-power", "even-root-of-a-negative", "odd-root", "integral-power"],
)
@pytest.mark.parametrize("dtype", [float, complex])
def test_a_zero_or_negative_base_reaches_grid_pow(grid_pow_calls, text, rs, error, called, dtype):
    # only the power with such a base calls _grid_pow, which raises the
    # interpreter's error naming that power, or returns its values
    tree, rs = parse(text), np.array(rs, dtype=dtype)
    got = _outcome(compile_grid((tree,)), rs)
    assert got == _outcome(lambda rs: [_reference_grid(tree, rs)], rs)
    if error is not None:
        assert (got[0], to_text(got[1])) == (error, text)
    assert grid_pow_calls == called


@pytest.mark.parametrize(
    "trees",
    [("3",), ("sin(2)", "r"), ("cos(3)*r", "exp(-1)"), ("r", "2^(1/2)", "(-8)^(1/3)"), ("r - r", "1/(2 - 2)")],
)
@pytest.mark.parametrize("dtype", [float, complex])
def test_grid_constants_take_the_grid_dtype(trees, dtype):
    # a constant-only tree or subtree is computed on arrays of the grid's
    # dtype, so on a complex grid its imaginary part has the interpreter's sign
    trees = tuple(parse(t) for t in trees)
    rs = np.array([0.5, -1.0, 2.0], dtype=dtype)
    got = _outcome(compile_grid(trees), rs)
    assert got == _outcome(lambda rs: [_reference_grid(e, rs) for e in trees], rs)
    assert isinstance(got, tuple) or all(v[:2] == (rs.dtype, rs.shape) for v in got)
