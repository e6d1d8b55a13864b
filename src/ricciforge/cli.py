"""Command-line front end.

One subcommand per verification or search capability, each mapping to a
single module operation chain. Reports carry a stable schema
{tool, version, subcommand, inputs, results, checks} where every check
row is {name, pass, value, tolerance}; floats are serialized with 17
significant digits so identical inputs give byte-identical output.

Exit codes: 0 all checks pass, 2 a verification check failed, 3 usage or
spec error, 4 numeric or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import __version__, bundlecalc, exprs, oracle, positivity, variation, warped

__all__ = ["main", "run", "render_json"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_USAGE = 3
EXIT_NUMERIC = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# --- deterministic JSON ----------------------------------------------------


def _render(value, out: list) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not np.isfinite(value):
            raise ValueError("cannot serialize a non-finite float")
        out.append(format(value, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    elif isinstance(value, np.ndarray):
        _render(value.tolist(), out)
    elif isinstance(value, (np.floating,)):
        _render(float(value), out)
    elif isinstance(value, (np.integer,)):
        _render(int(value), out)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(value) -> str:
    out: list = []
    _render(value, out)
    return "".join(out)


def _report(subcommand: str, inputs: dict, results: dict, checks: list) -> dict:
    return {
        "tool": "ricciforge",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "results": results,
        "checks": checks,
    }


def _check(name: str, ok: bool, value: float, tolerance: float) -> dict:
    return {"name": name, "pass": bool(ok), "value": float(value), "tolerance": float(tolerance)}


def _emit(report: dict, args) -> int:
    if getattr(args, "json", False):
        text = render_json(report)
    elif getattr(args, "csv", False):
        lines = ["name,pass,value,tolerance"]
        for c in report["checks"]:
            lines.append(
                f"{c['name']},{str(c['pass']).lower()},"
                f"{format(c['value'], '.17g')},{format(c['tolerance'], '.17g')}"
            )
        text = "\n".join(lines)
    else:
        lines = [f"ricciforge {report['subcommand']} (v{report['version']})"]
        for key, val in report["inputs"].items():
            lines.append(f"  input {key} = {val}")
        for key, val in report["results"].items():
            lines.append(f"  {key}: {render_json(val) if isinstance(val, (dict, list)) else val}")
        if report["checks"]:
            lines.append("  checks:")
            for c in report["checks"]:
                status = "PASS" if c["pass"] else "FAIL"
                lines.append(
                    f"    [{status}] {c['name']}: value={c['value']:.3e} tol={c['tolerance']:.3e}"
                )
        text = "\n".join(lines)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    failed = any(not c["pass"] for c in report["checks"])
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _parse_floats(text: str) -> list:
    return [float(t) for t in text.split(",") if t.strip()]


# --- subcommands -------------------------------------------------------------


def _expected_frame_ricci(name: str, chart: oracle.ChartMetric):
    parts = name.split(":")
    if parts[0] == "euclidean":
        return np.zeros((chart.dim, chart.dim))
    if parts[0] == "sphere":
        d, a = int(parts[1]), float(parts[2])
        return (d - 1) / a**2 * np.eye(d)
    if parts[0] == "hyperbolic2":
        return -np.eye(2)
    if parts[0] == "s3-left-invariant":
        scales = [float(p) for p in parts[1:]]
        return np.diag(oracle.left_invariant_s3_ricci(scales))
    raise UsageError(f"no closed-form expectation for preset {name!r}")


def _preset_points(name: str, count: int, seed: int):
    parts = name.split(":")
    rng = np.random.default_rng(seed)
    pts = []
    if parts[0] in ("euclidean", "sphere"):
        d = int(parts[1])
        base = np.full(d, 0.3)
        pts.append(base)
        for _ in range(count - 1):
            pts.append(rng.uniform(-0.8, 0.8, size=d))
    elif parts[0] == "hyperbolic2":
        pts.append(np.array([0.0, 1.0]))
        for _ in range(count - 1):
            pts.append(np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)]))
    elif parts[0] == "s3-left-invariant":
        pts.append(np.array([1.1, 0.4, 0.8]))
        for _ in range(count - 1):
            pts.append(np.array([rng.uniform(0.4, 2.7), rng.uniform(0, 2), rng.uniform(0, 2)]))
    else:
        raise UsageError(f"unknown preset {name!r}")
    return pts


def _orthonormal_frame(chart: oracle.ChartMetric, x: np.ndarray) -> oracle.FrameAtPoint:
    if chart.label.startswith("s3-left-invariant"):
        scales = [float(p) for p in chart.label.split(":")[1:]]
        cols = 2.0 * np.linalg.inv(oracle.su2_frame_matrix(x)) / np.array(scales)[None, :]
        return oracle.FrameAtPoint(x, cols)
    g = chart.at(x)
    vals, vecs = np.linalg.eigh(g)
    return oracle.FrameAtPoint(x, vecs / np.sqrt(vals))


def cmd_oracle_check(args) -> int:
    if args.points < 1:
        raise UsageError("--points must be at least 1")
    chart = oracle.preset(args.preset)
    pts = _preset_points(args.preset, args.points, args.seed)
    checks = []
    worst = 0.0
    for idx, x in enumerate(pts):
        fr = _orthonormal_frame(chart, x)
        got = oracle.frame_ricci(chart, fr, step=args.step)
        want = _expected_frame_ricci(args.preset, chart)
        dev = float(np.max(np.abs(got - want)))
        worst = max(worst, dev)
        checks.append(_check(f"frame-ricci-closed-form[point {idx}]", dev <= args.tol, dev, args.tol))
    results = {
        "preset": args.preset,
        "points": len(pts),
        "worst_deviation": worst,
        "expected": "constant-curvature or left-invariant closed form",
    }
    report = _report(
        "oracle-check",
        {"preset": args.preset, "tol": args.tol, "points": args.points, "seed": args.seed},
        results,
        checks,
    )
    return _emit(report, args)


def _load_spec(args) -> warped.WarpedFamilySpec:
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            return warped.spec_from_json(json.load(fh))
    name = getattr(args, "preset", None)
    if name == "reference-torus":
        return warped.reference_torus_spec()
    if name == "s3-unequal":
        return warped.left_invariant_s3_spec()
    if name == "round-sphere":
        return warped.round_sphere_spec()
    raise UsageError("give --spec FILE or --preset {reference-torus, s3-unequal, round-sphere}")


def cmd_warped_eval(args) -> int:
    spec = _load_spec(args)
    blocks = warped.ricci_warped(spec, args.r, args.p)
    pd = warped.check_positive_definite(blocks, off_diag_slack=args.slack)
    results = {
        "rr": blocks.rr,
        "uu": blocks.uu,
        "yy": blocks.yy.tolist(),
        "positive_definite": pd.positive_definite,
        "min_eigen": pd.min_eigen,
    }
    report = _report(
        "warped-eval",
        {"spec": args.spec or args.preset, "r": args.r, "p": args.p, "slack": args.slack},
        results,
        [],
    )
    return _emit(report, args)


def cmd_warped_verify(args) -> int:
    spec = _load_spec(args)
    rs = _parse_floats(args.rs)
    if not rs:
        raise UsageError("--rs names no radius")
    rep = warped.verify_against_oracle(spec, args.p, rs, args.tol, args.step)
    checks = [
        _check(f"{row['entry']}@r={row['r']:g}", row["pass"], row["deviation"], args.tol)
        for row in rep.rows
    ]
    results = {"gating_rows": len(rep.rows), "max_gating_deviation": rep.max_gating_deviation()}
    report = _report(
        "warped-verify",
        {
            "spec": args.spec or args.preset,
            "p": args.p,
            "rs": rs,
            "tol": args.tol,
        },
        results,
        checks,
    )
    return _emit(report, args)


def cmd_smoothness(args) -> int:
    spec = _load_spec(args)
    rep = warped.smoothness_check(spec, args.tol)
    checks = [
        _check("f-vanishes-at-axis", rep.f_zero_at_axis, 0.0 if rep.f_zero_at_axis else 1.0, args.tol),
        _check(
            "f-slope-one-at-axis",
            rep.f_prime_one_at_axis,
            0.0 if rep.f_prime_one_at_axis else 1.0,
            args.tol,
        ),
        _check(
            "f-second-derivative-zero-at-axis",
            rep.f_second_zero_at_axis,
            0.0 if rep.f_second_zero_at_axis else 1.0,
            args.tol,
        ),
        _check("f-positive", rep.f_positive, 0.0 if rep.f_positive else 1.0, 0.0),
    ]
    for i, ok in enumerate(rep.h_prime_zero_at_axis):
        checks.append(_check(f"h[{i}]-even-at-axis", ok, 0.0 if ok else 1.0, args.tol))
    for i, ok in enumerate(rep.h_positive):
        checks.append(_check(f"h[{i}]-positive", ok, 0.0 if ok else 1.0, 0.0))
    report = _report(
        "smoothness",
        {"spec": args.spec or args.preset, "tol": args.tol},
        {"all_ok": rep.all_ok},
        checks,
    )
    return _emit(report, args)


def cmd_variation_eval(args) -> int:
    ts = _parse_floats(args.t)
    rep = variation.verify_hopf_against_oracle(ts, args.tol, step=args.step)
    data = variation.hopf_preset(step=args.step)
    checks = [
        _check(f"scaled-blocks-vs-oracle@t={row['t']:g}", row["pass"], row["deviation"], args.tol)
        for row in rep["rows"]
    ]
    if 1.0 in ts:
        s = variation.canonical_variation_ricci(data, 1.0)
        full = np.zeros((3, 3))
        full[0, 0] = s.vv[0, 0]
        full[1:, 1:] = s.hh
        dev = float(np.max(np.abs(full - 2.0 * np.eye(3))))
        checks.append(_check("round-sphere-ricci-at-t1", dev <= args.tol, dev, args.tol))
    results = {
        "preset": "hopf",
        "invariants": {
            "ric_b": data.ric_b.tolist(),
            "ric_f": data.ric_f.tolist(),
            "a_uv": data.a_uv.tolist(),
            "a_xy": data.a_xy.tolist(),
            "delta_a": data.delta_a.tolist(),
        },
    }
    report = _report(
        "variation-eval", {"preset": "hopf", "t": ts, "tol": args.tol}, results, checks
    )
    return _emit(report, args)


def cmd_error_bounds(args) -> int:
    data = variation.hopf_preset()
    c = args.C if args.C is not None else variation.bounded_error_constant(data)
    ts = _parse_floats(args.ts)
    rep = variation.error_bound_check(data, c, ts)
    checks = [
        _check(f"{row['inequality']}@t={row['t']:g}", row["pass"], row["lhs"] - row["rhs"], 0.0)
        for row in rep.rows
    ]
    results = {
        "preset": "hopf",
        "C": c,
        "derived_C": variation.bounded_error_constant(data),
        "per_tensor_slack": rep.per_tensor_slack,
        "violations": rep.violations,
    }
    report = _report("error-bounds", {"preset": "hopf", "C": c, "ts": ts}, results, checks)
    return _emit(report, args)


def cmd_minp(args) -> int:
    mi = [s.strip() for s in args.m.split(",") if s.strip()]
    grid = positivity.RadialGrid(r_max=args.rmax, points=args.grid)
    res = positivity.min_p(args.n, args.c, mi, grid=grid)
    results = {
        "pStar": res.p_star,
        "margin": res.margin,
        "margin_r": res.margin_r,
        "reason": res.reason,
        "certificate": {
            "n": res.n,
            "c": res.c,
            "mi": list(res.mi),
            "r_max": res.r_max,
            "grid_points": res.grid_points,
        },
        "threshold_note": "the closed-form threshold is one sound derivation of the "
        "advertised explicit bound; the source leaves the function unspecified",
    }
    report = _report(
        "minp",
        {"n": args.n, "c": args.c, "m": args.m, "rmax": args.rmax, "grid": args.grid},
        results,
        [],
    )
    return _emit(report, args)


def cmd_kbound(args) -> int:
    k = positivity.k_bound(args.n, args.c, args.m)
    report = _report(
        "kbound",
        {"n": args.n, "c": args.c, "m": args.m},
        {
            "k": k,
            "threshold_note": "one sound derivation; the source leaves the explicit "
            "function unspecified",
        },
        [],
    )
    return _emit(report, args)


def cmd_plan(args) -> int:
    with open(args.file) as fh:
        plan = json.load(fh)
    res = bundlecalc.evaluate_plan(plan)
    results = {
        "certificate": bundlecalc.params_to_json(res.params),
        "normalized": bundlecalc.params_to_json(res.normalized) if res.normalized else None,
        "pBound": res.p_bound,
        "replay_pStar": res.replay.p_star if res.replay else None,
        "reason": res.reason,
        "trace": list(res.trace),
    }
    report = _report("plan", {"file": args.file}, results, [])
    return _emit(report, args)


# --- entry point -------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="ricciforge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable JSON report")
        p.add_argument("--csv", action="store_true", help="checks as CSV rows")
        p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("oracle-check", help="closed-form fixtures vs the chart oracle")
    p.add_argument("--preset", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("warped-eval", help="closed-form Ricci blocks at one radius")
    p.add_argument("--spec")
    p.add_argument("--preset")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--slack", type=float, default=0.0)
    common(p)
    p.set_defaults(func=cmd_warped_eval)

    p = sub.add_parser("warped-verify", help="closed-form blocks vs the oracle over radii")
    p.add_argument("--spec")
    p.add_argument("--preset")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--rs", default="0.25,0.5,1,2,4")
    p.add_argument("--step", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_warped_verify)

    p = sub.add_parser("smoothness", help="smooth-extension conditions at the axis")
    p.add_argument("--spec")
    p.add_argument("--preset")
    p.add_argument("--tol", type=float, default=1e-4)
    common(p)
    p.set_defaults(func=cmd_smoothness)

    p = sub.add_parser("variation-eval", help="fiber-scaling blocks vs the oracle")
    p.add_argument("--preset", default="hopf", choices=["hopf"])
    p.add_argument("--t", default="1,0.5,0.25")
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--step", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_variation_eval)

    p = sub.add_parser("error-bounds", help="scaled-Ricci inequality suite")
    p.add_argument("--preset", default="hopf", choices=["hopf"])
    p.add_argument("--ts", default="1,0.5,0.1,0.01")
    p.add_argument("--C", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_error_bounds)

    p = sub.add_parser("minp", help="minimal sphere dimension by grid sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--m", required=True, help="comma-separated exponents m_i")
    p.add_argument("--rmax", type=float, default=50.0)
    p.add_argument("--grid", type=int, default=1500)
    common(p)
    p.set_defaults(func=cmd_minp)

    p = sub.add_parser("kbound", help="closed-form sufficient threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_kbound)

    p = sub.add_parser("plan", help="evaluate a bundle-construction plan")
    p.add_argument("--file", required=True)
    common(p)
    p.set_defaults(func=cmd_plan)

    return parser


def run(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        exprs.ParseError,
        bundlecalc.PlanError,
        bundlecalc.CertificateError,
        json.JSONDecodeError,
        ValueError,
        KeyError,
        OSError,
    ) as err:
        print(f"spec error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        exprs.DomainError,
        oracle.OracleError,
        FloatingPointError,
        ZeroDivisionError,
        OverflowError,
    ) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
