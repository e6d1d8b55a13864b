import json

import pytest

from ricciforge import cli

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
    assert any(c["name"] == "round-sphere-ricci-at-t1" for c in report["checks"])


def test_error_bounds_default_constant(capsys):
    code, report = run_json(capsys, ["error-bounds", "--ts", "1,0.5,0.1,0.01"])
    assert code == 0
    assert report["results"]["C"] == pytest.approx(2.0, abs=1e-5)


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
    assert report["results"]["pBound"] == 289
    assert report["results"]["replay_pStar"] == 288
    assert [t["rule"] for t in report["results"]["trace"]][0] == "nonneg-ricci-leaf"


def test_plan_unknown_kind_is_spec_error(capsys, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"kind": "flatBundle", "base": {"kind": "sol3Manifold", "dim": 3}, "fiber": {"kind": "ricNonneg", "dim": 2}}))
    assert cli.run(["plan", "--file", str(path)]) == 3


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


def test_warped_verify_without_radii_is_usage_error(capsys):
    argv = ["warped-verify", "--preset", "s3-unequal", "--p", "3", "--tol", "1e-5", "--rs", ""]
    assert cli.run(argv + ["--json"]) == 3
    assert capsys.readouterr().out == ""


def test_oracle_check_point_count(capsys):
    code, report = run_json(capsys, ["oracle-check", "--preset", "sphere:2:1", "--points", "2"])
    assert code == 0
    assert report["results"]["points"] == len(report["checks"]) == 2
    for bad in ("0", "-1"):
        assert cli.run(["oracle-check", "--preset", "sphere:2:1", "--points", bad, "--json"]) == 3
        assert capsys.readouterr().out == ""


def test_json_output_byte_identical(capsys, torus_file):
    argv = ["warped-verify", "--spec", torus_file, "--p", "3", "--tol", "1e-5", "--json"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_json_floats_full_precision(capsys):
    code, report = run_json(capsys, ["minp", "--n", "1", "--c", "0", "--m", "1"])
    rendered = cli.render_json(report)
    margin = report["results"]["margin"]
    assert format(margin, ".17g") in rendered


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
