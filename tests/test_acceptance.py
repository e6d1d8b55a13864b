"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from ricciforge import bundlecalc as bc
from ricciforge import cli, oracle, positivity, variation, warped


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def frame_from_metric(chart, x):
    vals, vecs = np.linalg.eigh(chart.at(x))
    return oracle.FrameAtPoint(x, vecs / np.sqrt(vals))


def test_criterion_1_constant_curvature_fixtures():
    start = time.time()
    worst = 0.0
    for d in range(2, 7):
        chart = oracle.euclidean_chart(d)
        x = np.full(d, 0.2)
        got = oracle.frame_ricci(chart, frame_from_metric(chart, x))
        worst = max(worst, float(np.max(np.abs(got))))
    for d in (2, 3, 4, 5):
        for a in (1.0, 2.0):
            chart = oracle.sphere_chart(d, a)
            for x in (np.full(d, 0.3), np.linspace(-0.4, 0.6, d)):
                got = oracle.frame_ricci(chart, frame_from_metric(chart, x))
                want = (d - 1) / a**2 * np.eye(d)
                worst = max(worst, float(np.max(np.abs(got - want))))
    chart = oracle.hyperbolic_plane_chart()
    for x in (np.array([0.0, 1.0]), np.array([0.4, 1.7])):
        got = oracle.frame_ricci(chart, frame_from_metric(chart, x))
        worst = max(worst, float(np.max(np.abs(got + np.eye(2)))))
    elapsed = time.time() - start
    _report(
        "criterion 1 (constant-curvature oracle fixtures, tol 1e-6, < 5 s)",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst deviation {worst:.3e}, elapsed {elapsed:.2f} s",
    )


def test_criterion_2_warped_closed_forms_vs_oracle():
    start = time.time()
    rep = warped.verify_against_oracle(
        warped.reference_torus_spec(), 3, [0.25, 0.5, 1.0, 2.0, 4.0], 1e-5
    )
    elapsed = time.time() - start
    _report(
        "criterion 2 (warped blocks vs oracle on the circle spec, tol 1e-5, < 30 s)",
        rep.passed and elapsed < 30.0,
        f"max gating deviation {rep.max_gating_deviation():.3e}, elapsed {elapsed:.2f} s",
    )


def test_criterion_3_mixed_entries_vanish():
    worst, ok = 0.0, True
    for spec in (warped.left_invariant_s3_spec(), warped.reference_torus_spec()):
        rep = warped.verify_against_oracle(spec, 3, [0.5, 1.0, 2.0], 1e-5)
        zero_rows = [row for row in rep.rows if row["entry"] == "mixed-zero"]
        ok = ok and rep.passed and len(zero_rows) == 3
        ok = ok and all(row["gating"] and row["closed"] == 0.0 for row in zero_rows)
        worst = max([worst] + [row["oracle"] for row in zero_rows])
    _report(
        "criterion 3 (mixed entries vanish: every mixed-zero row gates, oracle <= 1e-8)",
        ok and worst <= 1e-8,
        f"largest oracle mixed entry {worst:.3e} over both realizable specs",
    )


def test_criterion_4_sphere_recovery_exact():
    worst = 0.0
    spec = warped.round_sphere_spec()
    for p in (3, 4, 5):
        for r in (0.3, 1.0, 2.0):
            blocks = warped.ricci_warped(spec, r, p)
            worst = max(worst, abs(blocks.rr - (p - 1)), abs(blocks.uu - (p - 1)))
    _report(
        "criterion 4 (round-sphere recovery exact to 1e-12)",
        worst <= 1e-12,
        f"worst deviation {worst:.3e}",
    )


def test_criterion_5_canonical_variation():
    rep = variation.verify_hopf_against_oracle([1.0, 0.5, 0.25], 1e-5)
    data = variation.hopf_preset()
    s1 = variation.canonical_variation_ricci(data, 1.0)
    round_dev = max(
        abs(s1.vv[0, 0] - 2.0),
        float(np.max(np.abs(s1.hh - 2.0 * np.eye(2)))),
        float(np.max(np.abs(s1.hv))),
    )
    c = variation.bounded_error_constant(data)
    bounds = variation.error_bound_check(data, c, [1.0, 0.5, 0.1, 0.01])
    devs = ", ".join("{:.2e}".format(row["deviation"]) for row in rep["rows"])
    suite = "passed" if bounds.passed else "failed"
    _report(
        "criterion 5 (fiber scaling vs oracle, round sphere at t=1, inequality suite)",
        rep["passed"] and round_dev <= 1e-5 and bounds.passed,
        f"scaling devs [{devs}], t=1 dev {round_dev:.3e}, "
        f"suite with derived C={c:.6g} {suite}",
    )


def test_criterion_6_auxiliary_profile_inequality():
    rs = np.geomspace(1e-6, 1e3, 10000)
    gap = positivity.profile_gap(rs)
    ok = bool(np.all(gap >= -1e-12))
    _report(
        "criterion 6 (profile inequality on 1e4 log-spaced radii, slack -1e-12)",
        ok,
        f"min gap {gap.min():.3e} at r={rs[np.argmin(gap)]:.2e}",
    )


def test_criterion_7_positivity_search():
    lines = []
    ok = True
    long_grid = positivity.RadialGrid(r_max=500.0)
    for n in (1, 2, 3):
        for c in (0.0, 1.0):
            start = time.time()
            res = positivity.min_p(n, c, [1] * n)
            kb = positivity.k_bound(n, c, 1.0)
            stable = positivity.min_p(n, c, [1] * n, grid=long_grid)
            elapsed = time.time() - start
            case_ok = (
                res.p_star is not None
                and positivity.grid_positive(n, c, [1] * n, res.p_star)
                and not positivity.grid_positive(n, c, [1] * n, res.p_star - 1)
                and res.p_star <= kb
                and stable.p_star == res.p_star
                and elapsed < 60.0
            )
            ok = ok and case_ok
            lines.append(f"n={n},c={c:g}: pStar={res.p_star}, k={kb:g}, {elapsed:.2f}s")
    _report("criterion 7 (minimal-p search, 6 cases)", ok, "; ".join(lines))


def test_criterion_8_degenerate_exponent_returns_none():
    res = positivity.min_p(1, 0.0, [0])
    _report(
        "criterion 8 (zero direction exponent with flat base returns none)",
        res.p_star is None,
        res.reason,
    )


def test_criterion_9_certificate_law_property_suite():
    rng = random.Random(20260810)
    violations = 0
    checks = 0

    def rand_frac(lo=0, hi=12, den=6):
        return F(rng.randint(lo, hi), rng.randint(1, den))

    def cert(q, m, e, c=0.0, m_lower=0, dim=2):
        return bc.FamilyParams(
            q=q, c=c, m=m, dim=dim, curvature=bc.CurvatureBound(1.0, e), m_lower=m_lower
        )

    for _ in range(250):
        q = rand_frac(1, 12) + F(1, 7)
        m, e = rand_frac(), rand_frac()
        x = cert(q, m, e, c=rng.random())
        rho1 = rand_frac(1, 5) + F(1, 3)
        rho2 = rand_frac(1, 5) + F(1, 3)
        checks += 4
        if bc.reparametrize(x, 1) != x:
            violations += 1
        if bc.reparametrize(bc.reparametrize(x, rho1), rho2) != bc.reparametrize(x, rho1 * rho2):
            violations += 1
        out = bc.reparametrize(x, rho1)
        if not (out.q == q / rho1 and out.m == m * rho1 and out.curvature.e == e * rho1):
            violations += 1
        r = q / rng.randint(3, 8)
        y = bc.rescale(x, r)
        s = q / rng.randint(2, 5)
        w = bc.weaken(x, s)
        if not (
            y.q == q - 2 * r
            and y.m == m + r
            and y.m_lower == r
            and bc.weaken(w, s) == w
            and w.m == m
        ):
            violations += 1

    for _ in range(250):
        b = rand_frac(0, 6)
        m_b = rand_frac(0, 4)
        f = rand_frac(0, 6)
        q = rand_frac(1, 6) + F(1, 9)
        m_f = rand_frac(0, 4)
        m_hat = max(b, 2 * m_b, f)
        need = 2 * m_hat + 3 * q
        base = cert(q, m_b, b, c=rng.random())
        checks += 2
        # satisfying instance: the output formulas hold exactly
        fiber = cert(need + rand_frac(0, 3), m_f, f)
        out = bc.bundle_certificate(base, fiber, a_bound=rng.random(), variant="general")
        if not (
            out.q == q
            and out.m == max(m_b, m_f)
            and out.curvature.e == 2 * m_hat + 2 * q + f
            and out.dim == base.dim + fiber.dim
        ):
            violations += 1
        # violating instance: rejected, naming the inequality
        short = need - F(1, 11)
        if short > 0:
            fiber_bad = cert(short, m_f, f)
            try:
                bc.bundle_certificate(base, fiber_bad, a_bound=1.0, variant="general")
                violations += 1
            except bc.CertificateError as err:
                if "m_hat" not in str(err):
                    violations += 1

    nil_ok = (
        bc.nilmanifold_certificate(2, 2).m == 2
        and bc.nilmanifold_certificate(3, 2).m == 3
        and bc.nilmanifold_certificate(2, 1).m == 1
    )
    checks += 1
    if not nil_ok:
        violations += 1
    _report(
        "criterion 9 (randomized exact-rational certificate laws)",
        violations == 0 and checks >= 1000,
        f"{checks} checks, {violations} violations",
    )


def test_criterion_10_plan_replay():
    plan = {"kind": "vectorBundle", "base": {"kind": "ricNonneg", "dim": 2}, "rank": 2, "La": 1.0}
    first = bc.evaluate_plan(plan)
    second = bc.evaluate_plan(plan)
    finite = first.p_bound is not None and first.p_bound > 0
    replayed = first.replay is not None and first.replay.p_star is not None
    rules = [t["rule"] for t in first.trace]
    complete_trace = rules == [
        "nonneg-ricci-leaf",
        "instantiate-base",
        "vector-bundle-lift",
        "rescale",
        "positivity-threshold",
    ]
    results = {
        "certificate": bc.params_to_json(first.params),
        "pBound": first.p_bound,
        "trace": list(first.trace),
    }
    deterministic = first == second and cli.render_json(results) == cli.render_json(
        {
            "certificate": bc.params_to_json(second.params),
            "pBound": second.p_bound,
            "trace": list(second.trace),
        }
    )
    _report(
        "criterion 10 (vector bundle over nonneg-Ricci base plan replay)",
        finite and replayed and complete_trace and deterministic,
        f"pBound={first.p_bound}, replay pStar={first.replay.p_star}, "
        f"trace rules {rules}",
    )
