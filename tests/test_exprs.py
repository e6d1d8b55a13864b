import math
import random
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
        return exprs.sin(a)
    if kind == "cos":
        return exprs.cos(a)
    if kind == "sqrt":
        return exprs.sqrt(a)
    return exprs.exp(a)


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
        used = False
        for _ in range(20):
            r = rng.uniform(0.1, 10.0)
            step = 1e-5
            try:
                vals = [evaluate(tree, r + s) for s in (-step, 0.0, step)]
                dv = evaluate(d1, r)
                d3v = evaluate(d3, r)
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


def test_float_constants_print_and_eval():
    tree = exprs.mul(Const(0.25), Var())
    text = to_text(tree)
    again = parse(text)
    assert evaluate(again, 3.0) == evaluate(tree, 3.0)
