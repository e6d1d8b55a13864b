"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next op starts only
after the previous one has returned and been checked. Ops come in rounds.
A round holds every op class of the workload in its fixed share and is
shuffled; the seed only draws the parameters inside a class and the order
of the round, so every seed runs the same mix (see README.md for why each
workload exists and what its shares are).

An op is a plain (class, params) pair, generated without importing
ricciforge. `execute` makes the op's calls into the package and is the
only timed part; `check` then judges the output against the program's own
verdict and against the benchmark's independent references (fixtures.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple, Optional

import fixtures

TOL = 1e-5  # the warped-verify tolerance of the README and the acceptance suite
CLOSED_FORM_RTOL = 1e-9  # closed forms vs hand-written references: roundoff only


class Op(NamedTuple):
    cls: str
    params: dict


@dataclass
class Verdict:
    ok: bool
    dev: Optional[float] = None  # the op's largest gating deviation, if it has one
    note: str = ""
    out_bytes: int = 0  # bytes the op wrote to stdout (cli ops)


def _close(got: float, want: float, rtol: float = CLOSED_FORM_RTOL) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Workload:
    """Stratified, seeded op generator plus the op's execution and check."""

    name = ""
    why = ""
    loop = "closed loop, 1 client, 1 process, no generator threads"
    shares: tuple = ()  # (op class, ops per round)
    known_defects: frozenset = frozenset()  # classes pinned as failing on purpose
    warmup_cls = ""

    def round_ops(self, seed: int, k: int) -> list:
        rng = random.Random(f"{self.name}:{seed}:{k}")
        ops = [Op(cls, self.draw(cls, rng, seed, k)) for cls, count in self.shares for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def warmup_op(self) -> Op:
        """The fixed, untimed op run once before timing starts."""
        return Op(self.warmup_cls, self.draw(self.warmup_cls, random.Random(f"{self.name}:warmup"), 0, 0))

    def round_size(self) -> int:
        return sum(count for _, count in self.shares)

    def draw(self, cls: str, rng: random.Random, seed: int, k: int) -> dict:
        raise NotImplementedError

    def setup(self, ctx) -> None:
        """Per-process state built before the warm-up op (part of setup_s)."""

    def execute(self, ctx, op: Op) -> Any:
        raise NotImplementedError

    def check(self, ctx, op: Op, out: Any) -> Verdict:
        raise NotImplementedError


# --- verify-hd -----------------------------------------------------------------


class VerifyHD(Workload):
    name = "verify-hd"
    why = (
        "oracle-bound verification on charts of dimension 4 to 8, where the "
        "per-point stencil evaluation grows like d^4"
    )
    # class -> (preset, p); chart dimension is n + p.
    CLASSES = {
        "s3-p5": ("s3-unequal", 5),
        "s3-p4": ("s3-unequal", 4),
        "s3-p3": ("s3-unequal", 3),
        "torus-p5": ("reference-torus", 5),
        "torus-p4": ("reference-torus", 4),
        "torus-p3": ("reference-torus", 3),
        "sphere-p5": ("round-sphere", 5),
        "torus-r0.002": ("reference-torus", 3),
    }
    # Sorted by cost, the median lies two thirds into the s3-p4 block and the
    # 90th percentile two thirds into the s3-p5 block (README.md).
    shares = (
        ("s3-p5", 9),
        ("s3-p4", 6),
        ("s3-p3", 1),
        ("torus-p5", 1),
        ("torus-p4", 1),
        ("torus-p3", 1),
        ("sphere-p5", 1),
        ("torus-r0.002", 1),
    )
    # ROADMAP item 3: at r = 0.002 the stencil leaves the chart and the
    # oracle is off by 4.6e-5 > tol, so the program's verdict fails.
    known_defects = frozenset({"torus-r0.002"})
    warmup_cls = "s3-p3"

    def draw(self, cls, rng, seed, k):
        preset, p = self.CLASSES[cls]
        if cls == "torus-r0.002":
            rs = [0.002]
        else:
            hi = 2.5 if preset == "round-sphere" else 4.0
            rs = sorted(_log_uniform(rng, 0.25, hi) for _ in range(3))
        return {"preset": preset, "p": p, "rs": rs}

    def setup(self, ctx):
        w = ctx.rf.warped
        ctx.specs = {
            "reference-torus": w.reference_torus_spec(),
            "s3-unequal": w.left_invariant_s3_spec(),
            "round-sphere": w.round_sphere_spec(),
        }

    def execute(self, ctx, op):
        prm = op.params
        return ctx.rf.warped.verify_against_oracle(ctx.specs[prm["preset"]], prm["p"], prm["rs"], TOL)

    def check(self, ctx, op, report):
        prm = op.params
        dev = report.max_gating_deviation()
        if not report.passed:
            return Verdict(False, dev, "program verdict failed")
        bad = _check_verify_rows(prm["preset"], prm["p"], report.rows)
        if bad:
            return Verdict(False, dev, bad)
        return Verdict(True, dev)


def _check_verify_rows(preset: str, p: int, rows: list) -> str:
    """Both routes of every gating row against the exact blocks: the oracle
    within tol, the closed form to roundoff. Returns "" or the first miss."""
    by_r: dict = {}
    for row in rows:
        if not row["gating"]:
            continue
        r = row["r"]
        if r not in by_r:
            by_r[r] = fixtures.preset_blocks(preset, r, p)
        want = _expected_entry(by_r[r], row["entry"])
        if abs(row["oracle"] - want) > TOL:
            return f"oracle {row['entry']}@r={r:g} = {row['oracle']!r}, exact {want!r}"
        if row["entry"] != "sphere-mixed-zero" and not _close(row["closed"], want):
            return f"closed form {row['entry']}@r={r:g} = {row['closed']!r}, exact {want!r}"
    return ""


def _expected_entry(blocks: dict, entry: str) -> float:
    if entry == "rr":
        return blocks["rr"]
    if entry.startswith("uu["):
        return blocks["uu"]
    if entry.startswith("yy["):
        i, j = (int(t) for t in entry[3:-1].split(","))
        return blocks["yy"][i] if i == j else 0.0
    return 0.0  # sphere-mixed-zero and the flat-torus ry rows vanish


# --- certify -------------------------------------------------------------------

EXPONENTS = tuple(Fraction(t) for t in ("1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "3/2"))
BASE_SCALES = tuple(Fraction(t) for t in ("0", "1/4", "1/2", "1"))
TREE_KINDS = ("fiberBundle", "flatBundle", "vectorBundle")
F_EXPONENTS = (Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 4))
POINTS_PER_OP = 16
SMOOTH_TOL = 1e-4


def _leaf(rng: random.Random) -> dict:
    if rng.random() < 0.5:
        return {"kind": "ricNonneg", "dim": rng.choice([1, 2, 3])}
    return {"kind": "nilmanifold", "dim": rng.choice([2, 3]), "c": rng.choice([0.5, 1.0, 2.0])}


def _tree(kind: str, rng: random.Random) -> dict:
    if kind == "fiberBundle":
        fiber = {"kind": "ricNonneg", "dim": rng.choice([1, 2, 3])}
        return {"kind": kind, "base": _leaf(rng), "fiber": fiber, "La": rng.choice([0.25, 0.5, 1.0])}
    if kind == "flatBundle":
        return {"kind": kind, "base": _leaf(rng), "fiber": _leaf(rng)}
    return {"kind": kind, "base": _leaf(rng), "rank": rng.choice([1, 2, 3]), "La": rng.choice([0.25, 0.5, 1.0])}


class Certify(Workload):
    name = "certify"
    why = (
        "oracle-free certification: closed forms, positivity search and the "
        "plan fold, on the scalar and the grid expression paths"
    )
    # Class "n<k>-<tree>" fixes the E-dimension, the bundle tree kind and the
    # sphere-profile exponent a (each a in F_EXPONENTS three times a round).
    CLASSES = {
        f"n{n}-{kind}": (n, kind, F_EXPONENTS[(n + j) % 3])
        for n in (1, 2, 3)
        for j, kind in enumerate(TREE_KINDS)
    }
    shares = tuple((cls, 1) for cls in CLASSES)
    warmup_cls = "n1-fiberBundle"

    def draw(self, cls, rng, seed, k):
        n, kind, a = self.CLASSES[cls]
        ms = [rng.choice(EXPONENTS) for _ in range(n)]
        scale = rng.choice(BASE_SCALES)
        spec = {
            "n": n,
            "f": f"r*(1+r^2)^({a})",
            "h": [f"(1+r^2)^(-{m})" for m in ms],
            "structure": [],
            "baseRicci": f"scaledIdentity:-{scale}*(1+r^2)^(-2)",
        }
        points = [(_log_uniform(rng, 0.25, 4.0), rng.randint(2, 64)) for _ in range(POINTS_PER_OP)]
        return {
            "a": str(a),
            "m": [str(m) for m in ms],
            "c": str(scale),
            "spec": spec,
            "points": points,
            "slack": float(scale) + 0.125,
            "tree": _tree(kind, rng),
        }

    def execute(self, ctx, op):
        rf, prm = ctx.rf, op.params
        n, c = len(prm["m"]), float(Fraction(prm["c"]))
        mi = [Fraction(m) for m in prm["m"]]
        spec = rf.warped.spec_from_json(prm["spec"])
        rows = []
        for r, p in prm["points"]:
            blocks = rf.warped.ricci_warped(spec, r, p)
            exact = rf.warped.check_positive_definite(blocks)
            slack = rf.warped.check_positive_definite(blocks, off_diag_slack=prm["slack"])
            rows.append((blocks, exact, slack))
        smooth = rf.warped.smoothness_check(spec, SMOOTH_TOL)
        minp = rf.positivity.min_p(n, c, mi)
        kb = rf.positivity.k_bound(n, c, float(max(mi)), m_lower=float(min(mi)))
        plan = rf.bundlecalc.evaluate_plan(prm["tree"])
        return spec, rows, smooth, minp, kb, plan

    def check(self, ctx, op, out):
        spec, rows, smooth, minp, kb, plan = out
        prm = op.params
        a = float(Fraction(prm["a"]))
        bs = [-float(Fraction(m)) for m in prm["m"]]
        scale, slack = float(Fraction(prm["c"])), prm["slack"]
        n = len(bs)
        for (r, p), (blocks, exact, gersh) in zip(prm["points"], rows):
            want = fixtures.family_blocks(a, bs, "torus", r, p, base_scale=scale)
            if not (_close(blocks.rr, want["rr"]) and _close(blocks.uu, want["uu"])):
                return Verdict(False, None, f"rr/uu at r={r:g} p={p} differ from the exact blocks")
            for i in range(n):
                for j in range(n):
                    if not _close(float(blocks.yy[i, j]), want["yy"][i] if i == j else 0.0):
                        return Verdict(False, None, f"yy[{i},{j}] at r={r:g} p={p} differs")
            lowest = min([want["rr"], want["uu"]] + want["yy"])
            if not _close(exact.min_eigen, lowest) or exact.positive_definite != (exact.min_eigen > 0):
                return Verdict(False, None, f"exact PD check at r={r:g} p={p} is wrong")
            gersh_lowest = min([want["rr"], want["uu"]] + [y - (n - 1) * slack for y in want["yy"]])
            if not _close(gersh.min_eigen, gersh_lowest) or (
                gersh.positive_definite and not exact.positive_definite
            ):
                return Verdict(False, None, f"Gershgorin PD check at r={r:g} p={p} is wrong")
        if not smooth.all_ok:
            return Verdict(False, None, "program verdict failed: smoothness")
        dev, bad = _axis_residuals(ctx.rf, spec, a, bs)
        if bad:
            return Verdict(False, dev, bad)
        m_hi, m_lo = max(-b for b in bs), min(-b for b in bs)
        want_kb = fixtures.k_bound_uniform(n, scale, m_hi, m_lo)
        if not _close(kb, want_kb, 1e-12):
            return Verdict(False, dev, f"k_bound {kb!r} differs from {want_kb!r}")
        if minp.p_star is None or minp.reason != "ok":
            return Verdict(False, dev, f"program verdict failed: min_p {minp.reason}")
        if minp.p_star > int(kb) + 1:
            return Verdict(False, dev, f"min_p p_star {minp.p_star} > floor(k_bound {kb}) + 1")
        if plan.reason != "ok" or plan.p_bound is None or plan.replay is None:
            return Verdict(False, dev, f"program verdict failed: plan {plan.reason}")
        if plan.replay.p_star is None or plan.p_bound < plan.replay.p_star:
            return Verdict(False, dev, f"plan pBound {plan.p_bound} < replay pStar {plan.replay.p_star}")
        return Verdict(True, dev)


def _axis_residuals(rf, spec, a: float, bs: list) -> tuple:
    """The axis quantities smoothness_check gates, |f|, |f' - 1|, |f''| and
    |h_i'| at r = AXIS_EPS, read through the program's evaluator and checked
    against their exact values. Returns (largest residual, failure note)."""
    ex, eps = rf.exprs, rf.warped.AXIS_EPS
    f0 = ex.evaluate(spec.f, eps)
    f1 = ex.evaluate(ex.diff(spec.f, 1), eps)
    f2 = ex.evaluate(ex.diff(spec.f, 2), eps)
    want_f = fixtures.reference_f(eps, a)
    got = [f0, f1, f2]
    for h, b in zip(spec.h, bs):
        got.append(ex.evaluate(ex.diff(h, 1), eps))
    want = list(want_f) + [fixtures.power_h(eps, b)[1] for b in bs]
    for g, w in zip(got, want):
        if not _close(g, w, 1e-8):
            return None, f"axis value {g!r} differs from exact {w!r}"
    residuals = [abs(f0), abs(f1 - 1.0), abs(f2)] + [abs(v) for v in got[3:]]
    return max(residuals), ""


# --- cli-mix -------------------------------------------------------------------

WARPED_PRESETS = ("reference-torus", "s3-unequal", "round-sphere")
VARIANTS = 3  # argv variants per class; round k runs variant k % VARIANTS
HYPERBOLIC_Y = 0.0015


def _fmt(x: float) -> str:
    return format(x, ".6g")


class CliMix(Workload):
    name = "cli-mix"
    why = (
        "every subcommand in-process through cli.run, on small charts where "
        "per-call overhead, parsing, rendering and the verify thread pool show"
    )
    # Shares put the median inside the block of d = 2 sphere checks and the
    # 90th percentile inside the block of threaded 8-radius verifies, so
    # neither sits on a boundary between classes of different cost.
    shares = (
        ("hyperbolic-y0.0015", 1),
        ("kbound", 2),
        ("warped-eval", 2),
        ("smoothness", 1),
        ("minp", 1),
        ("oracle-hyperbolic2", 1),
        ("oracle-sphere2", 5),
        ("error-bounds", 1),
        ("plan", 1),
        ("oracle-sphere3", 1),
        ("oracle-s3", 1),
        ("oracle-sphere4", 1),
        ("variation-eval", 1),
        ("warped-verify", 4),
    )
    # ROADMAP item 3: a stencil point below the chart's y > 1e-3 domain makes
    # frame_ricci return about -2.67 instead of -1, with no error.
    known_defects = frozenset({"hyperbolic-y0.0015"})
    warmup_cls = "kbound"

    def draw(self, cls, rng, seed, k):
        # The argv of a class is one of VARIANTS per seed, so the same argv
        # recurs within a run and its output bytes can be compared.
        v = k % VARIANTS
        vr = random.Random(f"{self.name}:{seed}:{cls}:{v}")
        return {"argv": self._argv(cls, vr, v)} if cls != "hyperbolic-y0.0015" else {"y": HYPERBOLIC_Y}

    def _argv(self, cls: str, rng: random.Random, v: int) -> list:
        if cls.startswith("oracle-"):
            kind = cls[len("oracle-"):]
            if kind.startswith("sphere"):
                preset = f"sphere:{kind[-1]}:{_fmt(_log_uniform(rng, 0.5, 2.0))}"
            elif kind == "hyperbolic2":
                preset = "hyperbolic2"
            else:
                preset = "s3-left-invariant:" + ":".join(_fmt(rng.uniform(0.6, 1.4)) for _ in range(3))
            argv = ["oracle-check", "--preset", preset, "--seed", str(rng.randint(0, 999))]
        elif cls == "variation-eval":
            ts = sorted((rng.uniform(0.2, 1.0) for _ in range(3)), reverse=True)
            argv = ["variation-eval", "--t", ",".join(_fmt(t) for t in ts)]
        elif cls == "error-bounds":
            ts = sorted((_log_uniform(rng, 0.01, 1.0) for _ in range(4)), reverse=True)
            argv = ["error-bounds", "--ts", ",".join(_fmt(t) for t in ts)]
        elif cls == "warped-verify":
            rs = sorted(_log_uniform(rng, 0.25, 4.0) for _ in range(8))
            argv = ["warped-verify", "--preset", "s3-unequal", "--p", "5", "--tol", "1e-5"]
            argv += ["--rs", ",".join(_fmt(r) for r in rs)]
        elif cls == "kbound":
            argv = ["kbound", "--n", str(rng.randint(1, 4)), "--c", str(float(rng.choice(BASE_SCALES)))]
            argv += ["--m", str(float(rng.choice(EXPONENTS)))]
        elif cls == "minp":
            n = rng.randint(1, 3)
            ms = ",".join(str(rng.choice(EXPONENTS)) for _ in range(n))
            argv = ["minp", "--n", str(n), "--c", str(float(rng.choice(BASE_SCALES))), "--m", ms]
        elif cls == "plan":
            argv = ["plan", "--file", f"{{plans}}/plan-{v}.json"]
        elif cls == "warped-eval":
            argv = ["warped-eval", "--preset", rng.choice(WARPED_PRESETS)]
            argv += ["--r", _fmt(_log_uniform(rng, 0.25, 2.5)), "--p", str(rng.randint(2, 64))]
        elif cls == "smoothness":
            # f = sin r turns negative past pi, so the round sphere rightly fails smoothness.
            argv = ["smoothness", "--preset", rng.choice(WARPED_PRESETS[:2])]
        else:
            raise ValueError(f"unknown cli-mix class {cls!r}")
        return argv + ["--json"]

    def plan_tree(self, seed: int, v: int) -> dict:
        return _tree(TREE_KINDS[v % len(TREE_KINDS)], random.Random(f"{self.name}:{seed}:plan:{v}"))

    def setup(self, ctx):
        # Plan files are inputs: written once, read by every plan op.
        for v in range(VARIANTS):
            path = os.path.join(ctx.workdir, f"plan-{v}.json")
            with open(path, "w") as fh:
                json.dump(self.plan_tree(ctx.seed, v), fh)
        ctx.cli_outputs = {}
        ctx.fixture_checked = {}

    def execute(self, ctx, op):
        rf = ctx.rf
        if op.cls == "hyperbolic-y0.0015":
            chart = rf.oracle.hyperbolic_plane_chart()
            y = op.params["y"]
            x = ctx.np.array([0.0, y])
            return rf.oracle.frame_ricci(chart, rf.oracle.FrameAtPoint(x, y * ctx.np.eye(2)))
        argv = [a.replace("{plans}", ctx.workdir) for a in op.params["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = rf.cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, ctx, op, out):
        if op.cls == "hyperbolic-y0.0015":
            dev = float(ctx.np.max(ctx.np.abs(out + ctx.np.eye(2))))
            return Verdict(dev <= 1e-6, dev, "" if dev <= 1e-6 else f"frame Ricci off -1 by {dev:.3g}")
        code, text, err = out
        verdict = self._check_cli(ctx, op, code, text, err)
        verdict.out_bytes = len(text.encode())
        return verdict

    def _check_cli(self, ctx, op, code, text, err) -> Verdict:
        key = tuple(op.params["argv"])
        first = ctx.cli_outputs.setdefault(key, text)
        if first != text:
            return Verdict(False, None, "same argv gave different bytes")
        if err:
            return Verdict(False, None, f"stderr: {err.strip()[:200]}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as e:
            return Verdict(False, None, f"--json output does not parse: {e}")
        checks = report["checks"]
        if code != (2 if any(not c["pass"] for c in checks) else 0):
            return Verdict(False, None, f"exit code {code} disagrees with the checks")
        if code != 0:
            return Verdict(False, None, "program verdict failed")
        return _check_cli_results(ctx, op, report)


def _check_cli_results(ctx, op, report) -> Verdict:
    argv = op.params["argv"]
    sub = argv[0]
    res = report["results"]

    def arg(flag):
        return argv[argv.index(flag) + 1]

    if sub == "oracle-check":
        preset = arg("--preset")
        bad = _oracle_fixture(ctx, preset)
        return Verdict(not bad, res["worst_deviation"], bad)
    if sub == "warped-verify":
        if len(report["checks"]) != 8 * 12:  # rr, 4 uu, sphere-mixed-zero, 6 yy per radius
            return Verdict(False, None, f"{len(report['checks'])} gating rows, expected 96")
        return Verdict(True, res["max_gating_deviation"])
    if sub == "variation-eval":
        inv = res["invariants"]
        exact = {"ric_b": [[4, 0], [0, 4]], "ric_f": [[0]], "a_uv": [[2]], "a_xy": [[1, 0], [0, 1]],
                 "delta_a": [[0], [0]]}  # round S^3 over S^2(1/2)
        for key, want in exact.items():
            got = ctx.np.asarray(inv[key], dtype=float)
            if float(ctx.np.max(ctx.np.abs(got - ctx.np.asarray(want, dtype=float)))) > 1e-6:
                return Verdict(False, None, f"Hopf invariant {key} = {inv[key]}, exact {want}")
        return Verdict(True, max(c["value"] for c in report["checks"]))
    if sub == "error-bounds":
        ok = abs(res["derived_C"] - 2.0) <= 1e-6 and not res["violations"]
        return Verdict(ok, None, "" if ok else f"derived C {res['derived_C']!r}, exact 2")
    if sub == "kbound":
        n, c, m = int(arg("--n")), float(arg("--c")), float(arg("--m"))
        want = fixtures.k_bound_uniform(n, c, m, m)
        ok = _close(float(res["k"]), want, 1e-12)
        return Verdict(ok, None, "" if ok else f"k {res['k']!r}, exact {want!r}")
    if sub == "minp":
        n, c = int(arg("--n")), float(arg("--c"))
        ms = [float(Fraction(t)) for t in arg("--m").split(",")]
        kb = fixtures.k_bound_uniform(n, c, max(ms), min(ms))
        ok = res["reason"] == "ok" and res["pStar"] is not None and res["pStar"] <= int(kb) + 1
        return Verdict(ok, None, "" if ok else f"pStar {res['pStar']} vs k_bound {kb}")
    if sub == "plan":
        ok = res["reason"] == "ok" and res["pBound"] is not None and res["replay_pStar"] is not None
        ok = ok and res["pBound"] >= res["replay_pStar"]
        return Verdict(ok, None, "" if ok else f"pBound {res['pBound']} vs replay {res['replay_pStar']}")
    if sub == "warped-eval":
        want = fixtures.preset_blocks(arg("--preset"), float(arg("--r")), int(arg("--p")))
        yy = res["yy"]
        ok = _close(res["rr"], want["rr"]) and _close(res["uu"], want["uu"])
        ok = ok and all(
            _close(yy[i][j], want["yy"][i] if i == j else 0.0) for i in range(len(yy)) for j in range(len(yy))
        )
        return Verdict(ok, None, "" if ok else "warped-eval blocks differ from the exact blocks")
    if sub == "smoothness":
        return Verdict(bool(res["all_ok"]), None, "" if res["all_ok"] else "smoothness verdict failed")
    return Verdict(False, None, f"no check for subcommand {sub!r}")


FIXTURE_POINTS = {"hyperbolic2": (0.0, 1.0), "s3-left-invariant": (1.1, 0.4, 0.8)}  # spheres: 0.3 everywhere


def _oracle_fixture(ctx, preset: str) -> str:
    """The oracle's principal Ricci curvatures (eigenvalues of g^-1 Ric, so no
    frame is involved) on the preset chart, against the exact fixture. Run
    once per preset string in a run."""
    if preset in ctx.fixture_checked:
        return ctx.fixture_checked[preset]
    np, oracle = ctx.np, ctx.rf.oracle
    chart = oracle.preset(preset)
    kind = preset.split(":")[0]
    x = np.full(chart.dim, 0.3) if kind == "sphere" else np.array(FIXTURE_POINTS[kind])
    ric = oracle.ricci(chart, x)
    lower = np.linalg.cholesky(chart.at(x))
    op = np.linalg.solve(lower, np.linalg.solve(lower, ric).T)
    got = np.sort(np.linalg.eigvalsh(0.5 * (op + op.T)))
    want = np.sort(np.array(fixtures.preset_principal_ricci(preset)))
    dev = float(np.max(np.abs(got - want)))
    bad = "" if dev <= 1e-6 else f"oracle principal Ricci of {preset} off the exact fixture by {dev:.3g}"
    ctx.fixture_checked[preset] = bad
    return bad


WORKLOADS = {wl.name: wl for wl in (VerifyHD(), Certify(), CliMix())}
