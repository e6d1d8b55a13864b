import ast
import dataclasses
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from ricciforge import __version__, bundlecalc, cli, oracle

TORUS_SPEC = {
    "n": 1,
    "f": "r*(1+r^2)^(-1/4)",
    "h": ["(1+r^2)^(-1)"],
    "structure": [],
    "baseRicci": "zero",
}


@pytest.fixture()
def torus_file(tmp_path):
    path = tmp_path / "torus1.json"
    path.write_text(json.dumps(TORUS_SPEC))
    return str(path)


def run_json(capsys, argv):
    code = cli.run(argv + ["--json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_oracle_check_sphere(capsys):
    code, report = run_json(capsys, ["oracle-check", "--preset", "sphere:2:1", "--tol", "1e-6"])
    assert code == 0
    assert set(report) == {"tool", "version", "subcommand", "inputs", "results", "checks"}
    assert report["tool"] == "ricciforge"
    assert all(set(c) == {"name", "pass", "value", "tolerance"} for c in report["checks"])
    assert all(c["pass"] for c in report["checks"])


def test_oracle_check_failing_tolerance(capsys):
    code, _ = run_json(capsys, ["oracle-check", "--preset", "sphere:2:1", "--tol", "1e-12"])
    assert code == 2


def test_warped_verify_torus(capsys, torus_file):
    code, report = run_json(
        capsys, ["warped-verify", "--spec", torus_file, "--p", "3", "--tol", "1e-5"]
    )
    assert code == 0
    assert report["results"]["max_gating_deviation"] <= 1e-5


def test_warped_verify_mixed_zero_rows_gate(capsys):
    code, report = run_json(
        capsys,
        [
            "warped-verify",
            "--preset",
            "s3-unequal",
            "--p",
            "3",
            "--rs",
            "0.5,1",
            "--tol",
            "1e-5",
        ],
    )
    assert code == 0
    zero = [c for c in report["checks"] if c["name"].startswith("mixed-zero@")]
    assert [c["name"] for c in zero] == ["mixed-zero@r=0.5", "mixed-zero@r=1"]
    assert all(c["pass"] and c["value"] <= 1e-8 for c in zero)


def test_warped_report_shapes(capsys):
    s3 = ["--preset", "s3-unequal", "--p", "5"]
    code, report = run_json(capsys, ["warped-verify", *s3, "--rs", "0.5,1", "--tol", "1e-5"])
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert len(names) == 24  # rr, 4 uu, mixed-zero, 6 yy per radius
    zero = [n for n in names if n.startswith("mixed-zero@")]
    assert zero == ["mixed-zero@r=0.5", "mixed-zero@r=1"]
    assert set(report["results"]) == {"gating_rows", "max_gating_deviation"}
    code, report = run_json(capsys, ["warped-eval", *s3, "--r", "1"])
    assert code == 0
    assert set(report["results"]) == {"rr", "uu", "yy", "positive_definite", "min_eigen"}


def test_warped_verify_tight_tolerance_fails(capsys, torus_file):
    code, _ = run_json(
        capsys, ["warped-verify", "--spec", torus_file, "--p", "3", "--tol", "1e-12"]
    )
    assert code == 2


def test_warped_eval(capsys, torus_file):
    code, report = run_json(capsys, ["warped-eval", "--spec", torus_file, "--r", "1", "--p", "200"])
    assert code == 0
    assert report["results"]["positive_definite"] is True


def test_minp_json(capsys):
    code, report = run_json(capsys, ["minp", "--n", "1", "--c", "0", "--m", "1"])
    assert code == 0
    assert report["results"]["pStar"] == 25


def test_minp_zero_exponent(capsys):
    code, report = run_json(capsys, ["minp", "--n", "1", "--c", "0", "--m", "0"])
    assert code == 0
    assert report["results"]["pStar"] is None


def test_kbound_json(capsys):
    code, report = run_json(capsys, ["kbound", "--n", "3", "--c", "1", "--m", "1"])
    assert code == 0
    assert report["results"]["k"] == 73.0


def test_smoothness_pass_and_fail(capsys, tmp_path):
    code, _ = run_json(capsys, ["smoothness", "--preset", "reference-torus"])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TORUS_SPEC, "f": "r^2"}))
    code, report = run_json(capsys, ["smoothness", "--spec", str(bad)])
    assert code == 2
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert "f-slope-one-at-axis" in failing


def test_variation_eval(capsys):
    code, report = run_json(capsys, ["variation-eval", "--t", "1,0.5,0.25", "--tol", "1e-5"])
    assert code == 0
    (at_one,) = [c for c in report["checks"] if c["name"] == "scaled-blocks-vs-oracle@t=1"]
    # the oracle's round S^3 against the exact blocks, not against itself
    assert at_one["pass"] and 0.0 < at_one["value"] <= 1e-10


@pytest.mark.parametrize("argv", [["variation-eval"], ["error-bounds"]])
def test_hopf_reports_print_exact_invariants(capsys, argv):
    assert cli.run(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert '"invariants": {"ric_b": [[4, 0], [0, 4]], "ric_f": [[0]], "a_uv": [[2]], ' in out
    assert '"a_xy": [[1, 0], [0, 1]], "delta_a": [[0], [0]]}' in out  # no -0


def test_variation_eval_builds_hopf_preset_once(capsys, monkeypatch):
    calls = []
    frame_ricci = oracle.frame_ricci

    def counting(*args, **kwargs):
        calls.append(args[0].label)
        return frame_ricci(*args, **kwargs)

    monkeypatch.setattr(oracle, "frame_ricci", counting)
    code = cli.run(["variation-eval", "--t", "1,0.5,0.25", "--json"])
    capsys.readouterr()
    assert code == 0
    # the preset is exact, so one call per t and none for the preset
    assert len(calls) == 3
    assert cli.run(["error-bounds", "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 3


def test_error_bounds_default_constant(capsys):
    code, report = run_json(capsys, ["error-bounds", "--ts", "1,0.5,0.1,0.01"])
    assert code == 0
    assert report["results"]["C"] == report["results"]["derived_C"] == 2
    assert report["results"]["violations"] == []


def test_error_bounds_undersized_constant(capsys):
    code, report = run_json(capsys, ["error-bounds", "--ts", "1", "--C", "0.1"])
    assert code == 2
    assert report["results"]["violations"]


def test_plan_subcommand(capsys, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps(
            {"kind": "vectorBundle", "base": {"kind": "ricNonneg", "dim": 2}, "rank": 2, "La": 1.0}
        )
    )
    code, report = run_json(capsys, ["plan", "--file", str(path)])
    assert code == 0
    assert report["results"]["pBound"] == 288
    assert report["results"]["replay_pStar"] == 288
    assert [t["rule"] for t in report["results"]["trace"]][0] == "nonneg-ricci-leaf"


@pytest.mark.parametrize("dim", [1026, 1100])
def test_plan_nilmanifold_past_float_range_folds_exactly(capsys, tmp_path, dim):
    # from dim 1026 on, the exponent 2^(dim-2) + 1 at q = 2 is past the
    # float range; the fold and the uniform-profile replay stay exact
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kind": "nilmanifold", "dim": dim, "q": 2}))
    code, report = run_json(capsys, ["plan", "--file", str(path)])
    assert code == 0
    assert report["results"]["certificate"]["m"] == str(2 ** (dim - 2) + 1)
    assert report["results"]["replay_pStar"] == report["results"]["pBound"]


def test_plan_unknown_kind_is_spec_error(capsys, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kind": "flatBundle", "base": {"kind": "sol3Manifold", "dim": 3}, "fiber": {"kind": "ricNonneg", "dim": 2}}))
    assert cli.run(["plan", "--file", str(path)]) == 3


def test_plan_leaf_without_curvature_is_spec_error(capsys, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kind": "vectorBundle", "base": {"kind": "custom", "q": 3, "dim": 1}, "rank": 2}))
    assert cli.run(["plan", "--file", str(path), "--json"]) == 3
    assert capsys.readouterr().err == "spec error: node plan: base certificate lacks a curvature bound\n"


_RIC2 = {"kind": "ricNonneg", "dim": 2}


@pytest.mark.parametrize(
    "plan, err",
    [
        ({"kind": "vectorBundle", "base": _RIC2, "rank": -1}, "node plan: rank must be nonnegative"),
        (
            {"kind": "fiberBundle", "base": _RIC2, "fiber": _RIC2, "La": -1},
            "node plan: a_bound must be nonnegative",
        ),
        (
            {"kind": "flatBundle", "base": {"kind": "nilmanifold", "dim": 1}, "fiber": _RIC2},
            "node plan.base: nilmanifold certificates need dimension >= 2",
        ),
        (
            {
                "kind": "flatBundle",
                "base": _RIC2,
                "fiber": {"kind": "custom", "q": 3, "dim": 1, "m": 1, "mLower": 2, "curvature": {"L": 1, "e": 1}},
            },
            "node plan.fiber: need 0 <= m_lower <= m",
        ),
        (
            {"kind": "fiberBundle", "base": {"kind": "custom", "q": 3, "dim": 1}, "fiber": _RIC2},
            "node plan: base certificate lacks a curvature bound",
        ),
        (
            {
                "kind": "fiberBundle",
                "base": {"kind": "custom", "q": 3, "dim": 2, "m": 1, "curvature": {"L": 1, "e": 0}},
                "fiber": {"kind": "custom", "q": 2, "dim": 2, "curvature": {"L": 1, "e": 1}},
            },
            "node plan: fiber decay budget 2 cannot meet the requirement 2*m_hat + 3*q = 13; "
            "even q -> 0 needs more than 4",
        ),
    ],
)
def test_plan_constructor_errors_name_the_node(capsys, tmp_path, plan, err):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert cli.run(["plan", "--file", str(path), "--json"]) == 3
    assert capsys.readouterr().err == f"spec error: {err}\n"


def _custom(**fields):
    return {"kind": "custom", "q": 3, "dim": 2, "curvature": {"L": 1, "e": 0}, **fields}


@pytest.mark.parametrize(
    "plan, err",
    [
        (
            {"kind": "vectorBundle", "base": _custom(aBound="x"), "rank": 2},
            "node plan.base: a_bound must be a finite number, got 'x'",
        ),
        (
            {"kind": "vectorBundle", "base": _custom(c=math.nan), "rank": 2},
            "node plan.base: c must be a finite number, got nan",
        ),
        (
            {"kind": "fiberBundle", "base": _RIC2, "fiber": _RIC2, "La": math.nan},
            "node plan: a_bound must be a finite number, got nan",
        ),
        (_custom(c=math.inf), "node plan: c must be a finite number, got inf"),
        (
            {"kind": "vectorBundle", "base": _custom(curvature={"L": math.inf, "e": 0}), "rank": 2},
            "node plan.base: curvature bound L must be a finite number, got inf",
        ),
        (
            {"kind": "vectorBundle", "base": _custom(curvature={"L": math.nan, "e": 0}), "rank": 2},
            "node plan.base: curvature bound L must be a finite number, got nan",
        ),
    ],
    ids=["aBound-text", "c-nan", "La-nan", "c-infinity", "L-infinity", "L-nan"],
)
def test_plan_rejects_non_finite_constants(capsys, tmp_path, plan, err):
    # json writes these as NaN and Infinity, which json.load reads back
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    assert cli.run(["plan", "--file", str(path), "--json"]) == 3
    assert capsys.readouterr() == ("", f"spec error: {err}\n")


@pytest.mark.parametrize(
    "text, err",
    [
        ('{"kind": "ricNonneg", "dim": Infinity}', "cannot convert float infinity to integer"),
        ('{"kind": "nilmanifold", "dim": 3, "c": 1' + "0" * 400 + "}", "int too large to convert to float"),
    ],
    ids=["dim-infinity", "c-past-float-range"],
)
def test_plan_leaf_numbers_past_range_name_the_node(capsys, tmp_path, text, err):
    path = tmp_path / "plan.json"
    path.write_text(text)
    assert cli.run(["plan", "--file", str(path), "--json"]) == 3
    assert capsys.readouterr() == ("", f"spec error: node plan: {err}\n")


def _nested_plan(depth):
    plan = _RIC2
    for _ in range(depth):
        plan = {"kind": "flatBundle", "base": plan, "fiber": _RIC2}
    return plan


@pytest.mark.parametrize(
    "kind, data, err",
    [
        ("spec", {**TORUS_SPEC, "f": 5}, "spec field 'f': expected string or bytes-like object"),
        ("spec", {**TORUS_SPEC, "h": [1]}, "spec field 'h': expected string or bytes-like object"),
        ("spec", {**TORUS_SPEC, "n": None}, "spec field 'n': int() argument must be"),
        ("spec", {**TORUS_SPEC, "structure": [5]}, "spec field 'structure': row 5 is not a list of four entries [i, j, k, value]\n"),
        ("spec", {**TORUS_SPEC, "baseRicci": 3}, "spec field 'baseRicci': 'int' object has no"),
        ("spec", [TORUS_SPEC], "a spec is a JSON object, not list"),
        ("spec", {**TORUS_SPEC, "f": "(" * 1500 + "r" + ")" * 1500}, "spec field 'f': maximum recursion"),
        ("spec", {**TORUS_SPEC, "f": "+".join(["r"] * 3000)}, "profile f: maximum recursion depth"),
        ("spec", {**TORUS_SPEC, "h": ["+".join(["r"] * 3000)]}, "profile h[0]: maximum recursion"),
        ("plan", {"kind": "ricNonneg", "dim": None}, "node plan: int() argument must be"),
        ("plan", _custom(curvature=[1, 0]), "node plan: list indices must be integers"),
        ("plan", _custom(q=0.5), "node plan: exponents must be exact rationals, got 0.5"),
        ("plan", _custom(q="1e1001"), "node plan: decimal exponent of '1e1001' is past +-1000"),
        ("plan", {"kind": "vectorBundle", "rank": 2}, "node plan: 'base'"),
        # an integer field is a JSON integer or an integral float, never truncated
        ("spec", {**TORUS_SPEC, "n": 1.9}, "spec field 'n': expected an integer, got 1.9\n"),
        ("spec", {**TORUS_SPEC, "n": True}, "spec field 'n': expected an integer, got True\n"),
        ("spec", {**TORUS_SPEC, "n": "1"}, "spec field 'n': expected an integer, got '1'\n"),
        ("spec", {**TORUS_SPEC, "n": math.inf}, "spec field 'n': cannot convert float infinity to integer\n"),
        ("spec", {**TORUS_SPEC, "structure": [[0.7, 1, 2, 1]]}, "spec field 'structure': expected an integer, got 0.7\n"),
        ("plan", {"kind": "ricNonneg", "dim": 2.7}, "node plan: expected an integer, got 2.7\n"),
        ("plan", {"kind": "ricNonneg", "dim": "3"}, "node plan: expected an integer, got '3'\n"),
        ("plan", {"kind": "vectorBundle", "base": _RIC2, "rank": 1.5}, "node plan: expected an integer, got 1.5\n"),
        # 700 bundles over one leaf: the input's depth, whatever the caller's stack
        ("plan", _nested_plan(700), "plan nests 701 levels deep, past the recursion limit\n"),
        # a dimension past the bound would build a replay list as long
        ("plan", {"kind": "ricNonneg", "dim": 1e300}, "node plan: dimension must be in 0..10000\n"),
        ("plan", {"kind": "nilmanifold", "dim": 10001}, "node plan: dimension must be in 0..10000\n"),
        ("plan", {"kind": "vectorBundle", "base": _RIC2, "rank": 10**9}, "node plan: dimension must be in 0..10000\n"),
        ("plan", _nested_plan(1) | {"fiber": {"kind": "ricNonneg", "dim": 10**4}}, "node plan: dimension must be in 0..10000\n"),
        ("plan", [_RIC2], "node plan: expected an object with a 'kind' field\n"),
        ("plan", {"kind": "vectorBundle", "base": {"dim": 2}, "rank": 1}, "node plan.base: expected an object with a 'kind' field\n"),
        # a string is not a list of profiles, nor a short row a structure constant
        ("spec", {**TORUS_SPEC, "h": "11"}, "spec field 'h': expected a list, got '11'\n"),
        ("spec", {**TORUS_SPEC, "structure": [[0, 1]]}, "spec field 'structure': row [0, 1] is not a list of four entries [i, j, k, value]\n"),
        # an exponent past float range is refused where it is read, not when it is evaluated
        ("spec", {**TORUS_SPEC, "h": ["(1+r^2)^(1e400/3)"]}, "exponent is past float range (at offset 8)\n"),
        # a zero denominator is a malformed exponent, not a numeric failure
        ("plan", _custom(m="1/0"), "node plan: '1/0' has a zero denominator\n"),
        ("plan", _custom(q="1/0"), "node plan: '1/0' has a zero denominator\n"),
        ("plan", _custom(m=1, mLower="0/0"), "node plan: '0/0' has a zero denominator\n"),
        ("plan", _custom(curvature={"L": 1, "e": "1/0"}), "node plan: '1/0' has a zero denominator\n"),
        ("plan", {"kind": "nilmanifold", "dim": 3, "q": "1/0"}, "node plan: '1/0' has a zero denominator\n"),
    ],
    ids=[
        "f-number", "h-number", "n-null", "structure-number", "baseRicci-number", "spec-list",
        "f-deep-parentheses", "f-long-sum", "h-long-sum", "dim-null", "curvature-list", "q-float",
        "q-exponent-past-1000", "no-base", "n-float", "n-bool", "n-string", "n-infinity", "structure-index-float",
        "dim-float", "dim-string", "rank-float", "plan-700-deep", "dim-1e300", "nilmanifold-dim-past-bound",
        "rank-past-bound", "bundle-dim-past-bound", "plan-list", "child-without-kind", "h-string",
        "structure-short-row", "h-exponent-past-float-range", "m-zero-denominator", "q-zero-denominator", "mLower-zero-denominator",
        "e-zero-denominator", "nilmanifold-q-zero-denominator",
    ],
)
def test_malformed_files_are_spec_errors(capsys, tmp_path, kind, data, err):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = ["warped-eval", "--spec", str(path), "--r", "1", "--p", "5"]
    if kind == "plan":
        argv = ["plan", "--file", str(path)]
    assert cli.run(argv + ["--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"spec error: {err}")


def test_trailing_whitespace_in_a_profile_is_whitespace(capsys, tmp_path):
    spaced = tmp_path / "spaced.json"
    spaced.write_text(json.dumps({**TORUS_SPEC, "f": TORUS_SPEC["f"] + " ", "h": [" (1+r^2)^(-1)\n"]}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(TORUS_SPEC))
    outputs = []
    for path in (spaced, bare):
        assert cli.run(["warped-eval", "--spec", str(path), "--r", "1", "--p", "5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        outputs.append((report["results"], report["checks"]))
    assert outputs[0] == outputs[1]


def test_constant_power_past_float_range_is_a_numeric_error(capsys, tmp_path):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({**TORUS_SPEC, "f": "2^3^3^3"}))
    assert cli.run(["warped-eval", "--spec", str(path), "--r", "1", "--p", "5", "--json"]) == 4
    assert capsys.readouterr().err == "numeric error: overflow in power in subexpression '2^7625597484987'\n"


def test_grid_power_overflow_is_a_numeric_error_without_a_warning(capsys, tmp_path):
    path = tmp_path / "pow400.json"
    path.write_text(json.dumps({**TORUS_SPEC, "f": "r + r^400"}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["smoothness", "--spec", str(path), "--json"]) == 4
    assert capsys.readouterr().err == "numeric error: overflow in power in subexpression 'r^400'\n"


@pytest.mark.parametrize("f", ["r + r^200*r^200", "r + exp(r^200*r^200)"])
def test_grid_product_overflow_names_the_product_without_a_warning(capsys, tmp_path, f):
    # the innermost overflowing operation is named, not an enclosing exp
    path = tmp_path / "product.json"
    path.write_text(json.dumps({**TORUS_SPEC, "f": f}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["smoothness", "--spec", str(path), "--json"]) == 4
    assert capsys.readouterr().err == "numeric error: overflow in product in subexpression 'r^200*r^200'\n"


@pytest.mark.parametrize(
    "f",
    [
        "r + r^200*r^200",
        "r + exp(r^200*r^200)",
        "r + sin(r^200*r^200)",
        "r + cos(r^200*r^200)",
        "r + (r^200*r^200 - r^200*r^200)^(1/2)",
    ],
)
def test_scalar_product_overflow_names_the_product(capsys, tmp_path, f):
    # the scalar path names the same node as the grid path, with exit 4
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"n": 1, "f": f, "h": ["1"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["warped-eval", "--spec", str(path), "--r", "10", "--p", "3", "--json"]) == 4
    assert capsys.readouterr() == ("", "numeric error: overflow in product in subexpression 'r^200*r^200'\n")


def test_an_overflow_a_later_operation_hides_is_named_by_eval_and_verify(capsys, tmp_path):
    # exp(-1e300*r) would be 0.0 at r = 1e10; the closed form and the chart name the same product
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps({**TORUS_SPEC, "h": ["(1+r^2)^(-1) + exp(-1e300*r)"]}))
    line = "numeric error: overflow in product in subexpression '-1e300*r'\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in (["warped-eval", "--r", "1e10"], ["warped-verify", "--rs", "1e10", "--tol", "1e-5"]):
            assert cli.run([*argv, "--spec", str(path), "--p", "3"]) == 4
            assert capsys.readouterr() == ("", line)


S3_SPEC = {
    "n": 3,
    "f": "r*(1+r^2)^(-1/4)",
    "h": ["(1+r^2)^(-1)", "(1+r^2)^(-3/4)", "(1+r^2)^(-1/2)"],
    "structure": [[0, 1, 2, 2.0], [1, 2, 0, 2.0], [2, 0, 1, 2.0]],
}


def test_a_spec_without_base_ricci_verifies_with_the_base_of_its_structure(capsys, tmp_path):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(S3_SPEC))
    argv = ["warped-verify", "--spec", str(path), "--p", "3", "--rs", "0.5,1,2", "--tol", "1e-5"]
    code, report = run_json(capsys, argv)
    assert code == 0 and report["results"]["gating_rows"] == 30
    # an explicit zero is a modelled base, kept as given: the yy diagonals fail
    path.write_text(json.dumps({**S3_SPEC, "baseRicci": "zero"}))
    code, report = run_json(capsys, argv)
    assert code == 2
    failed = {c["name"].split("@")[0] for c in report["checks"] if not c["pass"]}
    assert failed == {"yy[0,0]", "yy[1,1]", "yy[2,2]"}


@pytest.mark.parametrize(
    "rows, yy",
    [
        ([[0, 1, 2, 1]], [[-0.5, 0, 0], [0, -0.5, 0], [0, 0, 0.5]]),
        (S3_SPEC["structure"], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    ],
)
def test_constant_profiles_print_the_derived_base_exactly(capsys, tmp_path, rows, yy):
    path = tmp_path / "lie.json"
    path.write_text(json.dumps({"n": 3, "f": "r", "h": ["1", "1", "1"], "structure": rows}))
    assert cli.run(["warped-eval", "--spec", str(path), "--r", "1", "--p", "5", "--json"]) == 0
    assert f'"yy": {json.dumps(yy)},' in capsys.readouterr().out  # no -0 and no 0.5000000000000001


def test_a_structure_failing_the_jacobi_identity_is_a_spec_error(capsys, tmp_path):
    path = tmp_path / "not-lie.json"
    path.write_text(json.dumps({"n": 4, "f": "r", "h": ["1"] * 4, "structure": [[0, 1, 2, 1.0], [2, 3, 0, 1.0]]}))
    assert cli.run(["warped-eval", "--spec", str(path), "--r", "1", "--p", "5"]) == 3
    assert capsys.readouterr() == (
        "",
        "spec error: structure fails the Jacobi identity on (0, 1, 3): cyclic sum has 1 X_0\n",
    )


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_closed_form_block_overflow_is_a_numeric_error(capsys, tmp_path, fmt):
    # f(1) = 1e-160 passes the profile check; 1/f^2 in the uu block does not
    path = tmp_path / "tiny-f.json"
    path.write_text(json.dumps({"n": 1, "f": "1e-160*r", "h": ["1"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["warped-eval", "--spec", str(path), "--r", "1", "--p", "3", *fmt]) == 4
    assert capsys.readouterr() == ("", "numeric error: closed-form block uu is inf at r=1.0, p=3\n")


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_a_block_dividing_by_an_underflowed_f_squared_is_a_numeric_error(capsys, tmp_path, fmt):
    # f(1)^2 = 1e-340 underflows to 0.0 in the uu block
    path = tmp_path / "tinier-f.json"
    path.write_text(json.dumps({"n": 1, "f": "1e-170*r", "h": ["1"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["warped-eval", "--spec", str(path), "--r", "1", "--p", "3", *fmt]) == 4
    assert capsys.readouterr() == ("", "numeric error: closed-form block uu is inf at r=1.0, p=3\n")


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_a_block_squaring_a_slope_past_float_range_is_a_numeric_error(capsys, tmp_path, fmt):
    # f'(1)^2 = 1e400: Python's float ** raises OverflowError where * returns inf
    path = tmp_path / "steep-f.json"
    path.write_text(json.dumps({"n": 1, "f": "1e200*r", "h": ["1"]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(["warped-eval", "--spec", str(path), "--r", "1", "--p", "3", *fmt]) == 4
    assert capsys.readouterr() == ("", "numeric error: closed-form block uu is nan at r=1.0, p=3\n")


@pytest.mark.parametrize("argv", [["error-bounds", "--ts", "1e-200"], ["variation-eval", "--t", "1e-200"]])
def test_a_scale_whose_square_underflows_is_a_spec_error_naming_t(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(argv + ["--json"]) == 3
    assert capsys.readouterr() == ("", "spec error: t squared must be a positive normal float, got 1e-200\n")


@pytest.mark.parametrize(
    "argv,err",
    [
        (["--n", "1", "--c", "0", "--m", "1e200"], "k_bound is inf at n=1, c=0.0, m=1e+200"),
        (["--n", "1", "--c", "1e308", "--m", "1e-300"], "k_bound is inf at n=1, c=1e+308, m=1e-300"),
    ],
)
def test_kbound_past_float_range_is_a_numeric_error_naming_its_inputs(capsys, argv, err):
    assert cli.run(["kbound", *argv, "--json"]) == 4
    assert capsys.readouterr() == ("", f"numeric error: {err}\n")


def test_kbound_dimension_above_the_certificate_cap_is_a_usage_error(capsys):
    # k_bound lists one exponent per dimension, so a huge --n would ask for gigabytes
    cap = bundlecalc.MAX_CERTIFICATE_DIM
    for n in (cap + 1, 10**9):
        assert cli.run(["kbound", "--n", str(n), "--c", "1", "--m", "1", "--json"]) == 3
        assert capsys.readouterr() == ("", f"usage error: --n {n}: above the certificate dimension cap {cap}\n")
    code, report = run_json(capsys, ["kbound", "--n", str(cap), "--c", "1", "--m", "1"])
    assert code == 0 and math.isfinite(report["results"]["k"])


def test_minp_exponent_past_float_range_is_a_usage_error(capsys):
    # min_p decides 1e400 exactly; the report's certificate echoes exponents as floats
    assert cli.run(["minp", "--n", "1", "--c", "0", "--m", "1e400", "--json"]) == 3
    assert capsys.readouterr() == ("", "usage error: --m 1e400: an exponent is past float range\n")


def test_minp_zero_denominator_is_a_spec_error(capsys):
    assert cli.run(["minp", "--n", "1", "--c", "1", "--m", "1/0", "--json"]) == 3
    assert capsys.readouterr() == ("", "spec error: '1/0' has a zero denominator\n")


def test_plan_bound_past_the_int_text_limit_names_the_node(capsys, tmp_path):
    # at q = 2 pBound has 4,300 digits at dim 7135, Python's default limit, and more from 7136 on
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kind": "nilmanifold", "dim": 7135, "q": 2}))
    code, report = run_json(capsys, ["plan", "--file", str(path)])
    assert code == 0 and len(str(report["results"]["pBound"])) == 4300
    path.write_text(json.dumps({"kind": "nilmanifold", "dim": 7136, "q": 2}))
    assert cli.run(["plan", "--file", str(path), "--json"]) == 3
    assert capsys.readouterr() == (
        "", "spec error: node normalize: pBound has more than 4300 digits, Python's limit for int text\n"
    )


def test_plan_json_prints_curvature_rate_and_a_bound(capsys, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kind": "flatBundle", "base": _RIC2, "fiber": _RIC2}))
    code, report = run_json(capsys, ["plan", "--file", str(path)])
    assert code == 0
    assert set(report["results"]["certificate"]["curvatureRate"]) == {"Lb", "b", "Lf", "f", "k"}
    path.write_text(json.dumps(_custom(aBound=0.5)))
    code, report = run_json(capsys, ["plan", "--file", str(path)])
    assert code == 0
    assert report["results"]["certificate"]["aBound"] == 0.5


def test_minp_rmax_is_usage_error(capsys):
    # min_p samples no radii, so there is no grid end to set
    assert cli.run(["minp", "--n", "1", "--c", "0", "--m", "10", "--rmax", "1e20", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: unrecognized arguments: --rmax 1e20\n"


def test_minp_large_exponent_is_exact(capsys):
    # a 50-radius sweep answered 1677; the margin at p = 1680 turns negative past r = 50
    code, report = run_json(capsys, ["minp", "--n", "1", "--c", "0", "--m", "10"])
    assert code == 0
    assert report["results"]["pStar"] == 1681


def test_oracle_check_sphere_chart_scale_past_float_range(capsys):
    # 1e154^2 is a normal float, but the chart scale 4 a^2 is not
    assert cli.run(["oracle-check", "--preset", "sphere:2:1e154", "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "spec error: bad preset parameters in 'sphere:2:1e154': "
        "radius 1e+154: the chart scale 4 radius^2 is not a normal float\n"
    )


def test_oracle_check_extreme_s3_scales_warn_nothing(capsys):
    # the closed-form Ricci overflows to inf silently; the oracle rejects the metric
    assert cli.run(["oracle-check", "--preset", "s3-left-invariant:1e150:1e-150:1", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: metric condition number exceeds 1e12 at [1.1 0.4 0.8]\n"


def test_usage_errors_exit_three(capsys, tmp_path):
    assert cli.run(["no-such-command"]) == 3
    assert cli.run(["oracle-check", "--preset", "klein-bottle", "--tol", "1e-6"]) == 3
    assert cli.run(["warped-eval", "--spec", "/nonexistent.json", "--r", "1", "--p", "3"]) == 3
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.run(["warped-eval", "--spec", str(garbled), "--r", "1", "--p", "3"]) == 3
    bad_expr = tmp_path / "badexpr.json"
    bad_expr.write_text(json.dumps({**TORUS_SPEC, "f": "r*."}))
    assert cli.run(["warped-eval", "--spec", str(bad_expr), "--r", "1", "--p", "3"]) == 3


def test_warped_verify_charts_any_lie_structure(capsys, tmp_path):
    # one bracket of the S^3 pattern, a Heisenberg algebra, once had no chart
    one_bracket = {**TORUS_SPEC, "n": 3, "h": ["1"] * 3, "structure": [[0, 1, 2, 2.0]]}
    del one_bracket["baseRicci"]
    path = tmp_path / "one-bracket.json"
    path.write_text(json.dumps(one_bracket))
    argv = ["warped-verify", "--spec", str(path), "--p", "3", "--tol", "1e-8", "--rs", "0.5,1"]
    code, report = run_json(capsys, argv)
    assert code == 0 and report["results"]["max_gating_deviation"] < 1e-10
    # a modelled zero base is not the group's Ricci, and the oracle says so
    path.write_text(json.dumps({**one_bracket, "baseRicci": "zero"}))
    code, report = run_json(capsys, argv)
    assert code == 2
    assert {c["name"] for c in report["checks"] if not c["pass"]} == {
        f"yy[{i},{i}]@r={r}" for i in range(3) for r in ("0.5", "1")
    }


def test_spec_or_preset_is_required(capsys):
    assert cli.run(["warped-eval", "--r", "1", "--p", "3", "--json"]) == 3
    assert capsys.readouterr() == (
        "",
        "usage error: give --spec FILE or --preset {reference-torus, s3-unequal, round-sphere}\n",
    )


def test_round_sphere_preset_verifies(capsys):
    argv = ["warped-verify", "--preset", "round-sphere", "--p", "3", "--rs", "0.5,1", "--tol", "1e-5"]
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["checks"] and all(c["pass"] for c in report["checks"])


def test_text_report_lists_its_checks(capsys):
    argv = ["warped-verify", "--preset", "reference-torus", "--p", "3", "--rs", "1", "--tol", "1e-5"]
    assert cli.run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ricciforge warped-verify (v")
    assert "  checks:" in lines
    rows = lines[lines.index("  checks:") + 1 :]
    assert rows and all(row.startswith("    [PASS] ") and " tol=" in row for row in rows)


def test_chart_past_the_dimension_cap_is_spec_error(capsys, tmp_path):
    # n = 4 and p = 5 make a chart of dimension 4 + 4 + 1 = 9
    spec = tmp_path / "torus4.json"
    spec.write_text(json.dumps({**TORUS_SPEC, "n": 4, "h": TORUS_SPEC["h"] * 4}))
    assert cli.run(["warped-verify", "--spec", str(spec), "--p", "5", "--tol", "1e-5", "--json"]) == 3
    assert capsys.readouterr() == ("", "spec error: chart dimension 9 is not in 1..8\n")


@pytest.mark.parametrize("p", ["-3", "0", "1"])
def test_warped_verify_checks_p_before_the_chart(capsys, p):
    # p = -3 makes a chart of dimension 1 + (-4) + 1 = -2
    argv = ["warped-verify", "--preset", "reference-torus", "--p", p, "--tol", "1e-5", "--json"]
    assert cli.run(argv) == 3
    assert capsys.readouterr() == ("", "spec error: p must be at least 2\n")


def test_domain_errors_exit_four(capsys, tmp_path):
    spec = tmp_path / "sqrtspec.json"
    spec.write_text(json.dumps({**TORUS_SPEC, "f": "sqrt(r-2)", "h": ["1"]}))
    assert cli.run(["warped-eval", "--spec", str(spec), "--r", "1", "--p", "3"]) == 4


def test_nonpositive_h_profile_exits_four(capsys, tmp_path):
    spec = tmp_path / "badh.json"
    spec.write_text(json.dumps({**TORUS_SPEC, "h": ["r - 2"]}))
    assert cli.run(["warped-eval", "--spec", str(spec), "--r", "1", "--p", "3"]) == 4
    assert "r - 2" in capsys.readouterr().err


def test_point_outside_chart_domain_exits_four(capsys):
    argv = ["warped-verify", "--preset", "reference-torus", "--p", "3", "--tol", "1e-5"]
    assert cli.run(argv + ["--rs", "0.0005"]) == 4
    assert "outside chart domain" in capsys.readouterr().err
    # radii are batched, but the first failing radius still decides the exit code
    assert cli.run(argv + ["--rs", "1,0.0005"]) == 4
    assert "outside chart domain" in capsys.readouterr().err
    assert cli.run(argv + ["--rs", "0.0005,-1"]) == 4
    assert "outside chart domain" in capsys.readouterr().err
    assert cli.run(argv + ["--rs=-1,0.0005"]) == 3
    assert "r must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["warped-verify", "--preset", "s3-unequal", "--p", "3", "--tol", "1e-5", "--rs", ""],
        ["variation-eval", "--t", ""],
        ["error-bounds", "--ts", " , "],
    ],
    ids=["warped-verify", "variation-eval", "error-bounds"],
)
def test_warped_verify_without_radii_is_usage_error(capsys, argv):
    # an empty sweep would pass vacuously with "checks": []
    assert cli.run(argv + ["--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage error: argument {argv[-2]}: lists no number" in err


@pytest.mark.parametrize(
    "name", ["sphere:2:0", "sphere:2:inf", "sphere:2:nan", "sphere:2:-1", "s3-left-invariant:nan:1:1"]
)
def test_oracle_check_degenerate_preset_is_spec_error(capsys, name):
    assert cli.run(["oracle-check", "--preset", name, "--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"spec error: bad preset parameters in {name!r}")
    assert err.count("\n") == 1


def test_oracle_check_chart_calls(capsys, monkeypatch):
    # the frames of all points take one chart call and the oracle one more;
    # S^3 frames come from the group frame, not the chart
    sizes = []
    real = oracle.preset

    def counting_preset(name):
        m = real(name)

        def counting(x):
            sizes.append(len(x))
            return m.components(x)

        return dataclasses.replace(m, components=counting)

    monkeypatch.setattr(oracle, "preset", counting_preset)
    assert cli.run(["oracle-check", "--preset", "sphere:2:1", "--json"]) == 0
    assert sizes == [3, 3 * 15]
    sizes.clear()
    assert cli.run(["oracle-check", "--preset", "s3-left-invariant:0.8:1:1.2", "--json"]) == 0
    assert sizes == [3 * 28]
    capsys.readouterr()


def test_oracle_overflow_is_a_numeric_error(capsys):
    # at radius 5e153 the chart scale 4 a^2 is a normal float but the
    # curvature overflows: one error line naming the point, no numpy warning
    assert cli.run(["oracle-check", "--preset", "sphere:2:5e153", "--json"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric error: curvature is not finite at [0.3 0.3]")
    assert err.count("\n") == 1
    code, report = run_json(capsys, ["oracle-check", "--preset", "sphere:2:1e153"])
    assert code == 0
    assert all(check["pass"] for check in report["checks"])


def test_oracle_check_tolerance_scales_with_a_small_closed_form(capsys, monkeypatch):
    # an oracle that returns zeros must fail where the expected Ricci,
    # 7 / (3e153)^2, is far below --tol; closed forms of size >= 1 or 0
    # keep --tol itself
    code, report = run_json(capsys, ["oracle-check", "--preset", "sphere:8:3e153"])
    assert code == 0
    assert all(c["tolerance"] == 1e-6 * (7 / 3e153**2) for c in report["checks"])
    monkeypatch.setattr(oracle, "frame_ricci_many", lambda m, frames: [0.0 * fr.vectors for fr in frames])
    code, report = run_json(capsys, ["oracle-check", "--preset", "sphere:8:3e153"])
    assert code == 2
    assert not any(c["pass"] for c in report["checks"])
    for name, want_code in (("sphere:2:1", 2), ("hyperbolic2", 2), ("euclidean:4", 0)):
        code, report = run_json(capsys, ["oracle-check", "--preset", name])
        assert code == want_code
        assert all(c["tolerance"] == 1e-6 for c in report["checks"])


def test_oracle_check_point_count(capsys):
    code, report = run_json(capsys, ["oracle-check", "--preset", "sphere:2:1", "--points", "2"])
    assert code == 0
    assert report["results"]["points"] == len(report["checks"]) == 2
    for bad in ("0", "-1"):
        assert cli.run(["oracle-check", "--preset", "sphere:2:1", "--points", bad, "--json"]) == 3
        assert capsys.readouterr().out == ""


# the four preset kinds, and seeds of one to five 32-bit words (SeedSequence's pool holds four)
ORACLE_PRESETS = ["sphere:3:1", "hyperbolic2", "s3-left-invariant:0.8:1:1.2", "euclidean:4"]
WIDE_SEEDS = [0, 2**32, 2**64 + 3, 2**130 + 11]


@pytest.mark.parametrize("seeds", [range(1000), WIDE_SEEDS[1:]], ids=["0-999", "wide"])
def test_seeded_uniform_is_numpys_default_rng_stream(seeds):
    for seed in seeds:
        rng, uniform = np.random.default_rng(seed), cli._seeded_uniform(seed)
        want = [rng.random(), rng.uniform(0.4, 2.7), rng.uniform(0, 2), *rng.uniform(-0.8, 0.8, size=6)]
        got = [uniform(0.0, 1.0), uniform(0.4, 2.7), uniform(0, 2), *(uniform(-0.8, 0.8) for _ in range(6))]
        assert [float(w).hex() for w in want] == [g.hex() for g in got], seed


def _numpy_fixture_points(name, count, seed):
    """The points oracle-check drew through numpy.random, as it did before
    it computed the stream itself: the reference for the fixture."""
    rng = np.random.default_rng(seed)
    kind, *params = name.split(":")
    if kind == "s3-left-invariant":
        drawn = [[rng.uniform(0.4, 2.7), rng.uniform(0, 2), rng.uniform(0, 2)] for _ in range(count - 1)]
        return [[1.1, 0.4, 0.8]] + drawn
    if kind == "hyperbolic2":
        return [[0.0, 1.0]] + [[rng.uniform(-1, 1), rng.uniform(0.5, 2.0)] for _ in range(count - 1)]
    d = int(params[0])
    return [[0.3] * d] + [rng.uniform(-0.8, 0.8, size=d).tolist() for _ in range(count - 1)]


@pytest.mark.parametrize("name", ORACLE_PRESETS)
def test_preset_fixture_draws_the_points_numpy_drew(name):
    for count in range(1, 9):
        for seed in WIDE_SEEDS:
            _, frames, _ = cli._preset_fixture(name, count, seed)
            got = [[float(v).hex() for v in frame.x] for frame in frames]
            want = [[float(v).hex() for v in x] for x in _numpy_fixture_points(name, count, seed)]
            assert got == want, (count, seed)


def test_oracle_check_leaves_numpy_random_unloaded():
    # a fresh interpreter: this one has numpy.random loaded by the reference
    # tests; the widest seed mixes a fifth 32-bit word into SeedSequence's pool
    script = (
        "import sys\n"
        "from ricciforge import cli\n"
        "for preset in sys.argv[1:]:\n"
        f"    for seed in ('0', '{WIDE_SEEDS[-1]}'):\n"
        "        argv = ['oracle-check', '--preset', preset, '--points', '4', '--seed', seed, '--json']\n"
        "        assert cli.run(argv) == 0, (preset, seed)\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, *ORACLE_PRESETS], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_json_output_byte_identical(capsys, torus_file):
    argv = ["warped-verify", "--spec", torus_file, "--p", "3", "--tol", "1e-5", "--json"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_json_floats_full_precision(capsys):
    code, report = run_json(capsys, ["warped-eval", "--preset", "reference-torus", "--r", "1", "--p", "200"])
    rendered = cli.render_json(report)
    rr = report["results"]["rr"]
    assert rr != round(rr, 6)
    assert format(rr, ".17g") in rendered


def test_csv_output(capsys):
    code = cli.run(["oracle-check", "--preset", "sphere:2:1", "--tol", "1e-6", "--csv"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "name,pass,value,tolerance"
    assert len(out) == 4


def test_out_file(capsys, tmp_path, torus_file):
    target = tmp_path / "report.json"
    code = cli.run(
        ["smoothness", "--spec", torus_file, "--json", "--out", str(target)]
    )
    assert code == 0
    on_disk = target.read_text().strip()
    assert on_disk == capsys.readouterr().out.strip()


@pytest.mark.parametrize(
    "argv,option",
    [
        (["warped-eval", "--preset", "round-sphere", "--p", "3", "--r", "nan"], "--r"),
        (["warped-eval", "--preset", "round-sphere", "--p", "3", "--r", "inf"], "--r"),
        (["warped-verify", "--preset", "reference-torus", "--p", "3", "--tol", "1e-5", "--rs", "1,nan"], "--rs"),
        (["warped-verify", "--preset", "reference-torus", "--p", "3", "--tol", "nan", "--rs", "1"], "--tol"),
        (["kbound", "--n", "1", "--c", "inf", "--m", "1"], "--c"),
        (["minp", "--n", "1", "--c=-inf", "--m", "1"], "--c"),
        (["error-bounds", "--ts", "1,0.5,nan"], "--ts"),
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv, option):
    assert cli.run(argv + ["--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: not a finite number" in err


NEGATIVE_TOL = "--tol: must be >= 0"
TORUS_P3 = ["--preset", "reference-torus", "--p", "3"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle-check", "--preset", "sphere:2:1", "--tol", "-1"], NEGATIVE_TOL),
        (["warped-verify", *TORUS_P3, "--tol", "-1", "--rs", "1"], NEGATIVE_TOL),
        (["smoothness", "--preset", "reference-torus", "--tol", "-1"], NEGATIVE_TOL),
        (["variation-eval", "--tol", "-1"], NEGATIVE_TOL),
        (["oracle-check", "--preset", "sphere:2:1", "--seed", "-1"], "--seed: must be >= 0: '-1'"),
        (["error-bounds", "--C", "-1"], "--C: must be >= 0: '-1'"),
        (["warped-eval", *TORUS_P3, "--r", "1", "--slack", "-1"], "--slack: must be >= 0: '-1'"),
    ],
)
def test_out_of_range_tol_and_step_are_usage_errors(capsys, argv, message):
    assert cli.run(argv + ["--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"usage error: argument {message}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "--preset", "sphere:2:1", "--step", "1e-3"],
        ["warped-verify", *TORUS_P3, "--tol", "1e-5", "--step", "1e-3"],
        ["variation-eval", "--step", "1e-3"],
        ["variation-eval", "--preset", "hopf"],
        ["error-bounds", "--preset", "hopf"],
    ],
    ids=[
        "oracle-check-step",
        "warped-verify-step",
        "variation-eval-step",
        "variation-eval-preset",
        "error-bounds-preset",
    ],
)
def test_removed_options_are_usage_errors(capsys, argv):
    # the oracle's step is fixed at DEFAULT_STEP, and hopf is the only submersion preset
    assert cli.run(argv + ["--json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: unrecognized arguments: {' '.join(argv[-2:])}\n"


HEISENBERG_SPEC = {
    "n": 3,
    "f": "r*(1+r^2)^(-1/4)",
    "h": ["(1+r^2)^(-1)", "(1+r^2)^(-1)", "(1+r^2)^(-3)"],
    "structure": [[0, 1, 2, 1]],
}
S3_P5 = ["warped-verify", "--preset", "s3-unequal", "--p", "5", "--tol", "1e-5", "--rs"]


@pytest.mark.parametrize(
    "argv",
    [
        [*S3_P5, "0.5,1,2"],
        [*S3_P5, "0.25,0.5,1,2,4"],
        # 8 radii at d = 8 are one chart call, 9 radii two
        [*S3_P5, "0.25,0.4,0.6,0.9,1.3,2,3,4"],
        [*S3_P5, "0.25,0.4,0.6,0.9,1.3,2,3,3.5,4"],
        ["warped-verify", "--preset", "round-sphere", "--p", "5", "--tol", "1e-5", "--rs", "0.5,1,2"],
        ["warped-verify", *TORUS_P3, "--tol", "1e-5", "--rs", "0.002"],
        # p = 7 puts the torus chart at the oracle's 8-dimensional cap
        ["warped-verify", "--preset", "reference-torus", "--p", "7", "--tol", "1e-5", "--rs", "0.002,1"],
        ["warped-verify", "--spec", "heisenberg.json", "--p", "3", "--tol", "1e-8"],
        ["oracle-check", "--preset", "sphere:8:1"],
    ],
    ids=[
        "s3-p5-three-radii", "s3-p5-default-radii", "s3-p5-eight-radii", "s3-p5-nine-radii",
        "round-sphere-p5", "torus-near-axis", "torus-p7", "heisenberg", "sphere-8",
    ],
)
def test_verifications_pass_without_a_warning(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heisenberg.json").write_text(json.dumps(HEISENBERG_SPEC))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(argv + ["--json"]) == 0
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"]
    assert err == "" and checks and all(c["pass"] for c in checks)


def test_zero_tolerance_is_legal(capsys):
    code, report = run_json(capsys, ["oracle-check", "--preset", "sphere:2:1", "--tol", "0"])
    assert code == 2
    assert report["inputs"]["tol"] == 0.0


def test_minp_reports_binding_direction(capsys):
    code, report = run_json(capsys, ["minp", "--n", "1", "--c", "2", "--m", "1/4"])
    assert code == 0
    results = report["results"]
    assert results["pStar"] == 5
    assert results["binding_direction"] == "y0"
    # at p = 4 both y0 numbers are 0, so the y0 margin vanishes identically
    assert (results["binding_pK_minus_L"], results["binding_pR_minus_S"]) == ("1/4", "1/2")
    code, report = run_json(capsys, ["minp", "--n", "1", "--c", "0", "--m", "0"])
    results = report["results"]
    assert results["binding_direction"] is results["binding_pK_minus_L"] is None
    assert results["binding_pR_minus_S"] is None


@pytest.mark.parametrize(
    "argv, head",
    [
        (["--version"], __version__),
        (["--help"], "usage: ricciforge "),
        (["kbound", "--help"], "usage: ricciforge kbound "),
    ],
    ids=["version", "help", "kbound-help"],
)
def test_help_and_version_return_exit_code(capsys, monkeypatch, argv, head):
    assert cli.run(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(head)
    assert err == ""
    monkeypatch.setattr(sys, "argv", ["ricciforge"] + argv)
    with pytest.raises(SystemExit) as stop:
        cli.main()
    assert stop.value.code == 0
    assert capsys.readouterr().out == out


def test_reused_parser_output_unchanged_after_other_runs(capsys):
    first = ["warped-verify", "--preset", "reference-torus", "--p", "3", "--tol", "1e-5", "--json"]
    runs = []
    for argv in (
        first,
        ["oracle-check", "--preset", "sphere:2:1", "--points", "0"],
        ["oracle-check", "--preset", "sphere:2:1", "--points", "2", "--csv"],
        first,
    ):
        code = cli.run(argv)
        runs.append((code, capsys.readouterr()))
    assert runs[1][0] == 3 and runs[1][1].err.startswith("usage error:")
    assert runs[2][0] == 0 and runs[2][1].out.startswith("name,pass,value,tolerance")
    assert runs[0][0] == runs[3][0] == 0
    assert runs[0][1] == runs[3][1]


def test_parser_built_once_per_process(capsys, monkeypatch):
    cli.run(["kbound", "--n", "1", "--c", "0", "--m", "1"])
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    for argv in (
        ["kbound", "--n", "1", "--c", "0", "--m", "1", "--json"],
        ["oracle-check", "--preset", "sphere:2:1", "--points", "0"],
        ["minp", "--n", "1", "--c", "0", "--m", "1", "--csv"],
    ):
        cli.run(argv)
    capsys.readouterr()
    assert built == []


# Reports of warped-eval (every preset, a scaledIdentity spec whose base has
# -0.0 off-diagonals, an off-diagonal constant base, both PD branches),
# smoothness, kbound, minp and plan, captured at commit 2c8b543, before the
# closed-form blocks moved from numpy arrays to floats. Captured at commit
# 4ae0de6, before the report frame moved into run: the text and --csv
# renderings of kbound, minp, plan, warped-eval and smoothness, error-bounds
# in all three formats with the derived C and with --C 1 (exit 2), and the
# exit code and stderr of two usage errors and a numeric error. Captured at
# commit abd1e66, before the chart's profiles moved to one generated grid
# function: warped-verify on s3-unequal at p = 5 and on the torus near its
# axis, and oracle-check on sphere:3:1 and a left-invariant S^3. The s3-unequal
# verify was re-captured when the warped chart's E-block became the group
# metric's 2-jet at the identity, which moved its oracle values (largest
# deviation 1.36e-9 -> 4.26e-11). The variation-eval Hopf report was
# captured at commit fcb2ae9, before su2_metric became the sum of three
# broadcast outer products. Captured at commit eca89e2: kbound at n = 1 and
# at the float nearest 1/3, and minp at c = 5e-324 (denominator 2^1074) and
# with the coprime denominators of 1/4, 100/3 and 5/7. Captured at commit
# da523ad, before derived certificates skipped re-validation: a plan over a
# flat fiber and one whose normalization weakens q = 6 to 3, the two trace
# rules no earlier plan case reached. Input files are written under the
# names the argvs give.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_reports.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN["cases"]))
def test_reports_are_byte_identical_to_the_golden_capture(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    for name, data in GOLDEN["files"].items():
        (tmp_path / name).write_text(json.dumps(data))
    want = GOLDEN["cases"][case]
    assert cli.run(want["argv"]) == want["code"]
    got = capsys.readouterr()
    assert (got.out, got.err) == (want["stdout"], want["stderr"])


def _recordable_rules(function) -> set:
    """The rule names a fold function can record: each literal rule of a
    _step call, and each string bound to `rule` in a tuple assignment."""
    rules = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(function)))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_step":
            if isinstance(node.args[1], ast.Constant):
                rules.add(node.args[1].value)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            names = [getattr(t, "id", None) for t in node.targets[0].elts]
            if "rule" in names:
                rules.add(node.value.elts[names.index("rule")].value)
    return rules


def test_golden_plan_cases_emit_every_fold_rule():
    recordable = _recordable_rules(bundlecalc._fold_node) | _recordable_rules(bundlecalc.normalize_for_positivity)
    assert {"flat-fiber-bundle", "weaken", "general-bundle", "rescale"} <= recordable
    emitted = {
        step["rule"]
        for case in GOLDEN["cases"].values()
        if case["argv"][0] == "plan" and case["argv"][-1] == "--json"
        for step in json.loads(case["stdout"])["results"]["trace"]
    }
    assert recordable <= emitted
