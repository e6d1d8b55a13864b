"""Command-line front end.

One subcommand per verification or search capability, each mapping to a
single module operation chain. A subcommand returns its inputs, results
and checks; run alone frames them as a report with the stable schema
{tool, version, subcommand, inputs, results, checks}, renders it as text,
CSV or JSON, writes --out and picks the exit code. Every check row is
{name, pass, value, tolerance}; floats are serialized with 17 significant
digits so identical inputs give byte-identical output.

Exit codes: 0 all checks pass, 2 a verification check failed, 3 usage or
spec error, 4 numeric or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
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


def render_json(value) -> str:
    """JSON text with each float at 17 significant digits; nan or inf raises."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("cannot serialize a non-finite float")
        return format(value, ".17g")
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)  # what json.dumps(value) runs
    if isinstance(value, dict):
        quote = json.encoder.encode_basestring_ascii
        return "{" + ", ".join([f"{quote(str(k))}: {render_json(v)}" for k, v in value.items()]) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([render_json(v) for v in value]) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _check(name: str, ok: bool, value: float, tolerance: float) -> dict:
    return {"name": name, "pass": bool(ok), "value": float(value), "tolerance": float(tolerance)}


def _render_report(report: dict, args) -> str:
    """The report as --json, as --csv check rows, or as the text layout."""
    if args.json:
        return render_json(report)
    if args.csv:
        lines = ["name,pass,value,tolerance"]
        for c in report["checks"]:
            lines.append(
                f"{c['name']},{str(c['pass']).lower()},"
                f"{format(c['value'], '.17g')},{format(c['tolerance'], '.17g')}"
            )
        return "\n".join(lines)
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
    return "\n".join(lines)


def _finite_float(text: str, low: float = -math.inf) -> float:
    """The one parser of float inputs: a value that is not a finite number,
    such as nan or inf, is a usage error (exit 3), named by its option; so
    is one below ``low``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low:g}: {text!r}")
    return value


_tolerance = functools.partial(_finite_float, low=0.0)


def _float_list(text: str) -> list:
    """Comma-separated finite floats; a list with no number in it is a usage
    error, so no sweep can pass vacuously with zero rows."""
    values = [_finite_float(t) for t in text.split(",") if t.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"lists no number: {text!r}")
    return values


def _seed(text: str) -> int:
    """--seed: an integer >= 0, the seed of random.Random."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


# --- subcommands -------------------------------------------------------------


def _preset_fixture(name: str, count: int, seed: int):
    """A registry preset's chart, orthonormal frames at a fixed point and at
    count - 1 points drawn from seed, and the closed-form Ricci in those
    frames; S^3 frames follow the group frame, where that Ricci is diagonal."""
    chart = oracle.preset(name)
    kind, *params = name.split(":")
    uniform = random.Random(seed).uniform
    if kind == "s3-left-invariant":
        scales = [float(p) for p in params]
        pts = [[1.1, 0.4, 0.8]]
        pts += [[uniform(0.4, 2.7), uniform(0, 2), uniform(0, 2)] for _ in range(count - 1)]
        frames = [oracle.FrameAtPoint(x, oracle.su2_frame(x, scales)) for x in np.array(pts)]
        return chart, frames, warped.lie_ricci(warped.S3_STRUCTURE, 3)(scales)
    if kind == "hyperbolic2":
        pts = [[0.0, 1.0]] + [[uniform(-1, 1), uniform(0.5, 2.0)] for _ in range(count - 1)]
        want = -np.eye(2)
    else:  # euclidean:d or sphere:d:a
        d = chart.dim
        pts = [np.full(d, 0.3)] + [np.array([uniform(-0.8, 0.8) for _ in range(d)]) for _ in range(count - 1)]
        want = (d - 1) / float(params[1]) ** 2 * np.eye(d) if kind == "sphere" else np.zeros((d, d))
    return chart, oracle.orthonormal_frames(chart, pts), want


def cmd_oracle_check(args) -> tuple:
    if args.points < 1:
        raise UsageError("--points must be at least 1")
    chart, frames, want = _preset_fixture(args.preset, args.points, args.seed)
    # the tolerance shrinks with a closed form below 1 in size, so that a
    # tiny expected Ricci cannot pass whatever the oracle returns
    scale = float(np.max(np.abs(want)))
    tol = args.tol * min(1.0, scale) if scale else args.tol
    checks = []
    worst = 0.0
    for idx, got in enumerate(oracle.frame_ricci_many(chart, frames)):
        dev = float(np.max(np.abs(got - want)))
        worst = max(worst, dev)
        checks.append(_check(f"frame-ricci-closed-form[point {idx}]", dev <= tol, dev, tol))
    results = {
        "preset": args.preset,
        "points": len(frames),
        "worst_deviation": worst,
        "expected": "constant-curvature or left-invariant closed form",
    }
    inputs = {"preset": args.preset, "tol": args.tol, "points": args.points, "seed": args.seed}
    return inputs, results, checks


def _load_spec(args) -> warped.WarpedFamilySpec:
    if args.spec:
        with open(args.spec) as fh:
            return warped.spec_from_json(json.load(fh))
    name = args.preset
    if name == "reference-torus":
        return warped.reference_torus_spec()
    if name == "s3-unequal":
        return warped.left_invariant_s3_spec()
    if name == "round-sphere":
        return warped.round_sphere_spec()
    raise UsageError("give --spec FILE or --preset {reference-torus, s3-unequal, round-sphere}")


def cmd_warped_eval(args) -> tuple:
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
    inputs = {"spec": args.spec or args.preset, "r": args.r, "p": args.p, "slack": args.slack}
    return inputs, results, []


def cmd_warped_verify(args) -> tuple:
    spec = _load_spec(args)
    rep = warped.verify_against_oracle(spec, args.p, args.rs, args.tol)
    checks = [
        _check(f"{row['entry']}@r={row['r']:g}", row["pass"], row["deviation"], args.tol)
        for row in rep.rows
    ]
    results = {"gating_rows": len(rep.rows), "max_gating_deviation": rep.max_gating_deviation()}
    inputs = {"spec": args.spec or args.preset, "p": args.p, "rs": args.rs, "tol": args.tol}
    return inputs, results, checks


def cmd_smoothness(args) -> tuple:
    rep = warped.smoothness_check(_load_spec(args), args.tol)
    checks = [_check(*row) for row in rep.conditions]
    return {"spec": args.spec or args.preset, "tol": args.tol}, {"all_ok": rep.all_ok}, checks


def _invariants(data: variation.SubmersionData) -> dict:
    """The five arrays of a submersion preset, as the reports print them."""
    names = ("ric_b", "ric_f", "a_uv", "a_xy", "delta_a")
    return {name: getattr(data, name).tolist() for name in names}


def cmd_variation_eval(args) -> tuple:
    data = variation.hopf_preset()
    rep = variation.verify_hopf_against_oracle(args.t, args.tol)
    checks = [
        _check(f"scaled-blocks-vs-oracle@t={row['t']:g}", row["pass"], row["deviation"], args.tol)
        for row in rep["rows"]
    ]
    results = {"preset": "hopf", "invariants": _invariants(data)}
    return {"preset": "hopf", "t": args.t, "tol": args.tol}, results, checks


def cmd_error_bounds(args) -> tuple:
    data = variation.hopf_preset()
    derived = variation.bounded_error_constant(data)
    c = args.C if args.C is not None else derived
    rep = variation.error_bound_check(data, c, args.ts)
    checks = [
        _check(f"{row['inequality']}@t={row['t']:g}", row["pass"], row["lhs"] - row["rhs"], 0.0)
        for row in rep.rows
    ]
    results = {
        "preset": "hopf",
        "invariants": _invariants(data),
        "C": c,
        "derived_C": derived,
        "per_tensor_slack": rep.per_tensor_slack,
        "violations": rep.violations,
    }
    return {"preset": "hopf", "C": c, "ts": args.ts}, results, checks


def cmd_minp(args) -> tuple:
    mi = [s.strip() for s in args.m.split(",") if s.strip()]
    res = positivity.min_p(args.n, args.c, mi)
    try:  # the certificate echoes the exponents as floats
        echo = [float(m) for m in res.mi]
    except OverflowError:
        raise UsageError(f"--m {args.m}: an exponent is past float range") from None
    results = {
        "pStar": res.p_star,
        "binding_direction": res.binding,
        "binding_pK_minus_L": None if res.pk_minus_l is None else str(res.pk_minus_l),
        "binding_pR_minus_S": None if res.pr_minus_s is None else str(res.pr_minus_s),
        "reason": res.reason,
        "certificate": {"n": res.n, "c": res.c, "mi": echo},
        "threshold_note": "the closed-form threshold is one sound derivation of the "
        "advertised explicit bound; the source leaves the function unspecified",
    }
    return {"n": args.n, "c": args.c, "m": args.m}, results, []


def cmd_kbound(args) -> tuple:
    cap = bundlecalc.MAX_CERTIFICATE_DIM  # k_bound lists one exponent per dimension
    if args.n > cap:
        raise UsageError(f"--n {args.n}: above the certificate dimension cap {cap}")
    k = positivity.k_bound(args.n, args.c, args.m)
    if not math.isfinite(k):  # k_bound's float rows overflow where n, c or m is near float range
        raise FloatingPointError(f"k_bound is {k} at n={args.n}, c={args.c!r}, m={args.m!r}")
    results = {
        "k": k,
        "threshold_note": "one sound derivation; the source leaves the explicit "
        "function unspecified",
    }
    return {"n": args.n, "c": args.c, "m": args.m}, results, []


def cmd_plan(args) -> tuple:
    with open(args.file) as fh:
        plan = json.load(fh)
    res = bundlecalc.evaluate_plan(plan)
    results = {
        "certificate": bundlecalc.params_to_json(res.params),
        "normalized": bundlecalc.params_to_json(res.normalized),
        "pBound": res.p_bound,
        "replay_pStar": res.replay.p_star,
        "reason": res.reason,
        "trace": list(res.trace),
    }
    return {"file": args.file}, results, []


# --- entry point -------------------------------------------------------------


@functools.cache  # built on the first run() and reused; never mutated after
def _build_parser() -> _Parser:
    parser = _Parser(prog="ricciforge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def spec_source(p):
        p.add_argument("--spec")
        p.add_argument("--preset")

    p = sub.add_parser("oracle-check", help="closed-form fixtures vs the chart oracle")
    p.add_argument("--preset", required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--points", type=int, default=3, help="a fixed point, then --points - 1 drawn from --seed")
    p.add_argument("--seed", type=_seed, default=0, help="integer >= 0; draws as random.Random(--seed)")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("warped-eval", help="closed-form Ricci blocks at one radius")
    spec_source(p)
    p.add_argument("--r", type=_finite_float, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--slack", type=_tolerance, default=0.0)
    p.set_defaults(func=cmd_warped_eval)

    p = sub.add_parser("warped-verify", help="closed-form blocks vs the oracle over radii")
    spec_source(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tol", type=_tolerance, required=True)
    p.add_argument("--rs", type=_float_list, default="0.25,0.5,1,2,4")
    p.set_defaults(func=cmd_warped_verify)

    p = sub.add_parser("smoothness", help="smooth-extension conditions at the axis")
    spec_source(p)
    p.add_argument("--tol", type=_tolerance, default=1e-4)
    p.set_defaults(func=cmd_smoothness)

    p = sub.add_parser("variation-eval", help="fiber-scaling blocks vs the oracle")
    p.add_argument("--t", type=_float_list, default="1,0.5,0.25")
    p.add_argument("--tol", type=_tolerance, default=1e-5)
    p.set_defaults(func=cmd_variation_eval)

    p = sub.add_parser("error-bounds", help="scaled-Ricci inequality suite")
    p.add_argument("--ts", type=_float_list, default="1,0.5,0.1,0.01")
    p.add_argument("--C", type=_tolerance, default=None)
    p.set_defaults(func=cmd_error_bounds)

    p = sub.add_parser("minp", help="minimal sphere dimension, decided exactly")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=_finite_float, required=True)
    p.add_argument("--m", required=True, help="comma-separated exponents m_i")
    p.set_defaults(func=cmd_minp)

    p = sub.add_parser("kbound", help="closed-form sufficient threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=_finite_float, required=True)
    p.add_argument("--m", type=_finite_float, required=True)
    p.set_defaults(func=cmd_kbound)

    p = sub.add_parser("plan", help="evaluate a bundle-construction plan")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_plan)

    for p in sub.choices.values():  # every subcommand renders its report the same way
        p.add_argument("--json", action="store_true", help="machine-readable JSON report")
        p.add_argument("--csv", action="store_true", help="checks as CSV rows")
        p.add_argument("--out", help="also write the report to this file")
    return parser


def run(argv: Optional[list] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        inputs, results, checks = args.func(args)
        report = {
            "tool": "ricciforge",
            "version": __version__,
            "subcommand": args.subcommand,
            "inputs": inputs,
            "results": results,
            "checks": checks,
        }
        text = _render_report(report, args)
        print(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        return EXIT_CHECK_FAILED if any(not c["pass"] for c in checks) else EXIT_OK
    except SystemExit as done:  # --help and --version print their text, then exit
        return done.code
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    # PlanError, CertificateError and JSONDecodeError are ValueErrors; a
    # RecursionError comes from an expression or plan nested too deeply
    except (exprs.ParseError, ValueError, KeyError, OSError, RecursionError) as err:
        print(f"spec error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (exprs.DomainError, oracle.OracleError, ArithmeticError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
