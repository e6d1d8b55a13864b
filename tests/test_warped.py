import dataclasses
import gc
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ricciforge import exprs, oracle, warped
from ricciforge.warped import (
    WarpedFamilySpec,
    chart_metric,
    check_positive_definite,
    frames_at,
    left_invariant_s3_spec,
    reference_torus_spec,
    ricci_warped,
    round_sphere_spec,
    smoothness_check,
    spec_from_json,
    verify_against_oracle,
)

RS = [0.25, 0.5, 1.0, 2.0, 4.0]


def test_flat_space_blocks_vanish():
    spec = WarpedFamilySpec(n=0, f=exprs.parse("r"), h=())
    blocks = ricci_warped(spec, 1.0, 3)
    assert blocks.rr == 0.0
    assert blocks.uu == 0.0
    pd = check_positive_definite(blocks)
    assert not pd.positive_definite
    assert pd.min_eigen == 0.0


@pytest.mark.parametrize("p", [3, 4, 5])
def test_round_sphere_recovery(p):
    spec = round_sphere_spec()
    for r in (0.3, 1.0, 2.0):
        blocks = ricci_warped(spec, r, p)
        assert abs(blocks.rr - (p - 1)) <= 1e-12
        assert abs(blocks.uu - (p - 1)) <= 1e-12


def test_product_with_flat_factor_degenerates():
    # constant h and f = r: the warped metric is a flat product in the
    # radial and sphere directions, so only the base Ricci survives
    base = np.array([[0.7, 0.1], [0.1, -0.2]])
    spec = WarpedFamilySpec(
        n=2,
        f=exprs.parse("r"),
        h=(exprs.parse("2"), exprs.parse("1/2")),
        base_ricci=f"constant:{base.tolist()}",
    )
    for r in (0.5, 1.0, 7.0):
        blocks = ricci_warped(spec, r, 4)
        assert blocks.rr == 0.0
        assert blocks.uu == 0.0
        assert np.array_equal(blocks.yy, base)


def test_ricci_warped_validates_inputs():
    spec = reference_torus_spec()
    with pytest.raises(ValueError):
        ricci_warped(spec, 1.0, 1)
    with pytest.raises(ValueError):
        ricci_warped(spec, 0.0, 3)
    bad = WarpedFamilySpec(n=1, f=exprs.parse("r"), h=(exprs.parse("r - 2"),))
    with pytest.raises(exprs.DomainError) as err:
        ricci_warped(bad, 1.0, 3)  # h(1) <= 0
    assert err.value.node == bad.h[0]


def test_structure_coefficient_invariants():
    f = exprs.parse("r")
    h = (exprs.parse("1"),) * 3
    with pytest.raises(ValueError):
        WarpedFamilySpec(n=3, f=f, h=h, structure={(0, 1, 0): 1.0})
    with pytest.raises(ValueError):
        WarpedFamilySpec(n=3, f=f, h=h, structure={(0, 1, 2): 1.0, (1, 0, 2): 1.0})
    with pytest.raises(ValueError):
        WarpedFamilySpec(n=3, f=f, h=h, structure={(0, 1, 5): 1.0})
    spec = WarpedFamilySpec(n=3, f=f, h=h, structure={(0, 1, 2): 2.0})
    assert spec.structure[(1, 0, 2)] == -2.0
    assert np.any(spec.derived_base([1.0, 1.0, 1.0]))  # a nonvanishing structure has a nonzero base


def test_a_structure_that_is_not_a_lie_algebra_is_rejected():
    # [X0, X1] = X2 and [X2, X3] = X0: the cyclic sum on (X0, X1, X3) is X0
    h = (exprs.parse("1"),) * 4
    with pytest.raises(ValueError, match=r"Jacobi identity on \(0, 1, 3\)"):
        WarpedFamilySpec(n=4, f=exprs.parse("r"), h=h, structure={(0, 1, 2): 1.0, (2, 3, 0): 1.0})
    # a 4-dimensional filiform algebra, [X0, X1] = X2 and [X0, X2] = X3, is one
    spec = WarpedFamilySpec(n=4, f=exprs.parse("r"), h=h, structure={(0, 1, 2): 1.0, (0, 2, 3): 1.0})
    assert spec.structure[(2, 0, 3)] == -1.0


def _s3_closed_form(scales):
    """The 3-dimensional form of the S^3 Ricci: with the frame brackets
    [Y_i, Y_j] = lambda_k Y_k (cyclic), lambda_k = 2 h_k/(h_i h_j),
    Ric(Y_k, Y_k) = (lambda_k^2 - (lambda_i - lambda_j)^2)/2."""
    h = [float(s) for s in scales]
    lam = [2.0 * h[k] / (h[(k + 1) % 3] * h[(k + 2) % 3]) for k in range(3)]
    return np.diag([(lam[k] ** 2 - (lam[(k + 1) % 3] - lam[(k + 2) % 3]) ** 2) / 2.0 for k in range(3)])


def test_the_derived_s3_base_equals_its_three_dimensional_form():
    s3 = warped.lie_ricci(warped.S3_STRUCTURE, 3)
    rng = np.random.default_rng(20261019)
    for _ in range(1000):
        scales = np.exp(rng.uniform(-2.0, 2.0, 3)).tolist()
        want = _s3_closed_form(scales)
        # relative to the size of the squared bracket constants the sums cancel
        size = max(2.0 * scales[k] / (scales[(k + 1) % 3] * scales[(k + 2) % 3]) for k in range(3)) ** 2
        assert np.max(np.abs(s3(scales) - want)) <= 1e-14 * size
    # the preset models nothing: its base is this one, read at h_i(r)
    assert left_invariant_s3_spec().base_ricci is None


def test_the_derived_heisenberg_base_is_exact():
    # [X0, X1] = X2: Ric = diag(-l^2/2, -l^2/2, l^2/2) with l = h3/(h1 h2)
    heisenberg = warped.lie_ricci({(0, 1, 2): 1.0, (1, 0, 2): -1.0}, 3)
    rng = np.random.default_rng(7)
    for scales in [[1.0, 1.0, 1.0]] + np.exp(rng.uniform(-2.0, 2.0, (50, 3))).tolist():
        lam = scales[2] / (scales[0] * scales[1])
        assert np.array_equal(heisenberg(scales), np.diag([-(lam**2) / 2, -(lam**2) / 2, lam**2 / 2]))
    # constant profiles and f = r: the warped corrections vanish and yy is the base
    spec = spec_from_json({"n": 3, "f": "r", "h": ["1/2", "2", "3"], "structure": [[0, 1, 2, 1]]})
    assert np.array_equal(ricci_warped(spec, 1.0, 5).yy, np.diag([-4.5, -4.5, 4.5]))


R = exprs.parse("r")
R_QUARTER = exprs.parse("r*(1+r^2)^(-1/4)")


def _rows(rows):
    return {(i, j, k): v for i, j, k, v in rows}


# Lie algebras in the frame convention, as spec structure rows: so(3) with
# unequal brackets plus a line, a filiform algebra, one with [X1, X2] = X3/2
# added (its base has off-diagonal entries), a 5-dimensional Heisenberg
# algebra, and so(3) with a Heisenberg algebra beside it
LIE_ALGEBRAS = [
    (4, [[0, 1, 2, 2.0], [1, 2, 0, 0.5], [2, 0, 1, -1.5]]),
    (4, [[0, 1, 2, 1.0], [0, 2, 3, 1.0]]),
    (4, [[0, 1, 2, 1.0], [0, 2, 3, 1.0], [1, 2, 3, 0.5]]),
    (5, [[0, 1, 2, 1.0], [3, 4, 2, 3.0]]),
    (6, [[0, 1, 2, 2.0], [1, 2, 0, 2.0], [2, 0, 1, 2.0], [3, 4, 5, 1.0]]),
]


@pytest.mark.parametrize("n, rows", LIE_ALGEBRAS)
def test_relabelling_the_frame_permutes_the_derived_base(n, rows):
    rng = np.random.default_rng(n + len(rows))
    base = WarpedFamilySpec(n=n, f=R, h=(R,) * n, structure=_rows(rows)).derived_base
    for _ in range(20):
        perm = rng.permutation(n).tolist()
        moved = {(perm[i], perm[j], perm[k]): v for i, j, k, v in rows}
        spec = WarpedFamilySpec(n=n, f=R, h=(R,) * n, structure=moved)
        scales = np.exp(rng.uniform(-1.0, 1.0, n))
        want = base(scales.tolist())
        moved_scales = np.empty(n)
        moved_scales[perm] = scales
        got = np.array(spec.derived_base(moved_scales.tolist()))[np.ix_(perm, perm)]
        tol = 1e-14 * np.max(np.abs(want))
        assert np.allclose(got, want, rtol=0.0, atol=tol) and np.allclose(got, got.T, rtol=0.0, atol=tol)


def test_a_spec_without_base_ricci_derives_it_and_a_given_one_is_kept():
    data = {"n": 3, "f": "r", "h": ["1", "1", "1"], "structure": [[0, 1, 2, 1]]}
    derived = ricci_warped(spec_from_json(data), 1.0, 5).yy
    assert np.array_equal(derived, np.diag([-0.5, -0.5, 0.5]))
    modelled = ricci_warped(spec_from_json({**data, "baseRicci": "zero"}), 1.0, 5).yy
    assert np.array_equal(modelled, np.zeros((3, 3)))
    # a vanishing structure derives the zero matrix, shared by every radius
    torus = reference_torus_spec()
    assert torus.derived_base([0.5]) is torus.derived_base([2.0])
    assert not np.any(torus.derived_base([0.5]))


def test_specs_with_one_structure_share_its_base_and_jet():
    # built once per structure, as a profile is compiled once per tree
    rows = [[0, 1, 2, 1.0], [0, 2, 3, 1.0]]
    data = {"n": 4, "f": "r", "h": ["1", "2", "1/2", "3"], "structure": rows}
    first, second = spec_from_json(data), spec_from_json({**data, "h": ["1"] * 4})
    assert first.derived_base is second.derived_base and first.jet is second.jet
    fresh = warped.lie_ricci(first.structure, 4), warped.lie_jet(first.structure, 4)
    for scales in ([1.0, 2.0, 0.5, 3.0], [0.3, 1.7, 2.2, 0.9]):
        assert first.derived_base(scales) == fresh[0](scales)
    assert first.jet == fresh[1]
    other = spec_from_json({**data, "structure": rows[:1]})
    assert other.derived_base is not first.derived_base and other.jet != first.jet
    s3 = left_invariant_s3_spec()
    assert s3.derived_base is left_invariant_s3_spec().derived_base and s3.jet is left_invariant_s3_spec().jet
    assert warped._lie.cache_info().maxsize == exprs.CACHE_SIZE


def test_torus_spec_verifies_against_oracle():
    rep = verify_against_oracle(reference_torus_spec(), 3, RS, 1e-5)
    assert rep.passed
    assert rep.max_gating_deviation() <= 1e-5
    zero_rows = [row for row in rep.rows if row["entry"] == "mixed-zero"]
    assert [row["r"] for row in zero_rows] == RS
    assert all(row["gating"] and row["closed"] == 0.0 for row in zero_rows)
    assert all(row["oracle"] <= 1e-8 for row in zero_rows)


def test_torus_spec_verifies_near_the_axis():
    # at r = 0.002 the real step is far below r and no difference of
    # metric values is taken twice, so the oracle resolves the O(1/r^2)
    # terms to well inside the tolerance
    rep = verify_against_oracle(reference_torus_spec(), 3, [0.002], 1e-5)
    assert rep.passed
    assert rep.max_gating_deviation() <= 1e-7


def test_verify_takes_radii_from_any_iterable():
    # the radii are batched, so they must still be read only once
    rows = verify_against_oracle(reference_torus_spec(), 3, list(RS), 1e-5).rows
    assert verify_against_oracle(reference_torus_spec(), 3, iter(RS), 1e-5).rows == rows


def test_verify_without_radii_is_refused():
    # no radius gives no row, and a verdict over no row would pass vacuously
    for rs in ([], iter([])):
        with pytest.raises(ValueError, match=r"^rs is empty: there is no radius to verify$"):
            verify_against_oracle(reference_torus_spec(), 3, rs, 1e-5)


@pytest.mark.parametrize("spec_fn", [reference_torus_spec, left_invariant_s3_spec, round_sphere_spec])
def test_verify_rows_equal_single_radius_rows_bit_for_bit(spec_fn):
    # the frames of all radii come from one pass; each row is the one a
    # call with that radius alone gives
    spec = spec_fn()
    rs = [0.002, 0.25, 0.7, 1.3, 2.4] + ([4.0] if spec.n else [])
    for p in range(2, 9 - spec.n):
        rows = verify_against_oracle(spec, p, rs, 1e-5).rows
        single = [row for r in rs for row in verify_against_oracle(spec, p, [r], 1e-5).rows]
        assert json.dumps(rows) == json.dumps(single), p
        for r, fr in zip(rs, frames_at(spec, p, iter(rs))):
            one = frames_at(spec, p, [r])[0]
            assert np.array_equal(fr.x, one.x) and np.array_equal(fr.vectors, one.vectors)


def test_frames_raise_for_the_first_failing_radius():
    # f(r) = r - 1 is zero at r = 1: Python float division raises there
    spec = WarpedFamilySpec(n=1, f=exprs.parse("r - 1"), h=(exprs.parse("2 - r"),))
    assert len(frames_at(spec, 3, [0.5, 1.5])) == 2
    with pytest.raises(ZeroDivisionError):
        frames_at(spec, 3, [0.5, 1.0, 3.0])
    with pytest.raises(ZeroDivisionError):
        frames_at(spec, 3, [1.0])
    assert frames_at(spec, 3, []) == []


@pytest.mark.parametrize("p", [4, 5])
def test_torus_spec_other_sphere_dimensions(p):
    rep = verify_against_oracle(reference_torus_spec(), p, RS, 1e-5)
    assert rep.passed


@pytest.mark.parametrize("spec_fn", [reference_torus_spec, round_sphere_spec])
@pytest.mark.parametrize("p", [2, 6, 7])
def test_any_sphere_dimension_under_the_chart_cap_verifies(spec_fn, p):
    # p = 7 with n = 1 puts the chart at the oracle's 8-dimensional cap
    rep = verify_against_oracle(spec_fn(), p, [0.002, 0.5, 1.0, 4.0], 1e-5)
    assert rep.passed


def test_chart_dimension_cap_is_the_only_upper_limit_on_p():
    with pytest.raises(ValueError, match="chart dimension 9 is not in 1..8"):
        verify_against_oracle(left_invariant_s3_spec(), 6, [1.0], 1e-5)


def test_round_sphere_spec_verifies_tightly():
    rep = verify_against_oracle(round_sphere_spec(), 4, [0.25, 0.5, 1.0, 2.0], 1e-8)
    assert rep.passed


def test_left_invariant_spec_full_radius_sweep():
    rep = verify_against_oracle(left_invariant_s3_spec(), 3, RS, 1e-5)
    assert rep.passed


def test_left_invariant_spec_at_dimension_cap():
    # p = 5 with n = 3 puts the chart at the oracle's 8-dimensional cap
    rep = verify_against_oracle(left_invariant_s3_spec(), 5, [0.5, 1.0], 1e-5)
    assert rep.passed


def test_left_invariant_spec_mixed_zero_gates():
    # nonzero structure coefficients: the radial/E entries still vanish
    # and gate through the one mixed-zero row per radius
    rep = verify_against_oracle(left_invariant_s3_spec(), 3, [0.5, 1.0, 2.0], 1e-5)
    assert rep.passed
    assert all(row["gating"] for row in rep.rows)
    zero_rows = [row for row in rep.rows if row["entry"] == "mixed-zero"]
    assert [row["r"] for row in zero_rows] == [0.5, 1.0, 2.0]
    assert all(row["oracle"] <= 1e-8 for row in zero_rows)
    assert len(rep.rows) == 3 * 10  # rr, 2 uu, mixed-zero, 6 yy per radius


@pytest.mark.parametrize("spec_fn", [left_invariant_s3_spec, reference_torus_spec])
def test_mixed_zero_row_covers_radial_e_entries(spec_fn):
    spec, p, r = spec_fn(), 3, 1.0
    full = oracle.frame_ricci(chart_metric(spec, p), frames_at(spec, p, [r])[0])
    rows = verify_against_oracle(spec, p, [r], 1e-5).rows
    (zero_row,) = [row for row in rows if row["entry"] == "mixed-zero"]
    ps = p - 1
    radial_e = np.abs(full[0, 1 + ps :])
    assert radial_e.size == spec.n
    assert zero_row["oracle"] >= radial_e.max()
    off = np.abs(full - np.diag(np.diag(full)))
    off[1 + ps :, 1 + ps :] = 0.0  # E-block off-diagonals have their own yy rows
    assert zero_row["oracle"] == off.max()


def test_sphere_block_isotropy():
    spec = reference_torus_spec()
    metric = chart_metric(spec, 4)
    fr = frames_at(spec, 4, [1.0])[0]
    full = oracle.frame_ricci(metric, fr)
    ublock = full[1:4, 1:4]
    blocks = ricci_warped(spec, 1.0, 4)
    assert np.max(np.abs(ublock - blocks.uu * np.eye(3))) <= 1e-6


def test_gauss_equation_spot_check():
    # mixed sectional curvature of one E-direction and one sphere
    # direction equals -h' f' / (h f): the product term vanishes
    spec = reference_torus_spec()
    p, r = 3, 1.0
    metric = chart_metric(spec, p)
    fr = frames_at(spec, p, [r])[0]
    y = fr.vectors[:, 3]
    u = fr.vectors[:, 1]
    k = oracle.sectional(metric, fr.x, y, u)
    h, f = spec.h[0], spec.f
    want = -(
        exprs.evaluate(exprs.diff(h, 1), r)
        * exprs.evaluate(exprs.diff(f, 1), r)
        / (exprs.evaluate(h, r) * exprs.evaluate(f, r))
    )
    assert k == pytest.approx(want, abs=1e-5)


def heisenberg_spec():
    """The Heisenberg group, [X0, X1] = X2, with exponents m = (1, 1, 3)."""
    h = tuple(exprs.parse(f"(1+r^2)^(-{m})") for m in (1, 1, 3))
    return WarpedFamilySpec(n=3, f=R_QUARTER, h=h, structure={(0, 1, 2): 1.0}, label="heisenberg")


def filiform_spec():
    """The 4-dimensional filiform algebra, [X0, X1] = X2, [X0, X2] = X3."""
    h = tuple(exprs.parse(f"(1+r^2)^(-{m})") for m in ("1/2", "3/4", 1, "5/4"))
    return WarpedFamilySpec(n=4, f=R_QUARTER, h=h, structure={(0, 1, 2): 1.0, (0, 2, 3): 1.0}, label="filiform")


@pytest.mark.parametrize("spec_fn", [reference_torus_spec, left_invariant_s3_spec, heisenberg_spec, filiform_spec])
@pytest.mark.parametrize("p", [3, 5])
def test_chart_components_batch_matches_single_rows(spec_fn, p):
    spec = spec_fn()
    chart = chart_metric(spec, min(p, oracle.MAX_DIM - spec.n))  # the filiform chart stops at p = 4
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (9, chart.dim))
    pts[:, -1] = rng.uniform(0.01, 4.0, 9)  # r > 0
    # the oracle's rows: complex steps, some of them along x_E
    for xs in (pts, pts + 1e-30j * rng.integers(-1, 2, pts.shape)):
        batch = chart.components(xs)
        assert batch.shape == (9, chart.dim, chart.dim) and batch.dtype == xs.dtype
        rows = np.stack([chart.components(xs[i : i + 1])[0] for i in range(len(xs))])
        np.testing.assert_array_equal(batch, rows)


def test_verify_realizes_every_structure():
    # both specs were rejected while the oracle had only a torus and an S^3 chart
    spec = WarpedFamilySpec(n=3, f=exprs.parse("r"), h=(exprs.parse("1"),) * 3, structure={(0, 1, 2): 1.0})
    assert verify_against_oracle(spec, 3, [1.0], 1e-8).passed
    # one bracket of the S^3 pattern is a Heisenberg algebra, not S^3
    partial = dataclasses.replace(left_invariant_s3_spec(), structure={(0, 1, 2): 2.0})
    report = verify_against_oracle(partial, 3, [0.5, 1.0], 1e-8)
    assert report.passed and report.max_gating_deviation() < 1e-10
    # the chart point is the identity of the group: elsewhere the jet is not the metric
    chart, frame = chart_metric(partial, 3), frames_at(partial, 3, [1.0])[0]
    assert not chart.domain(frame.x + np.eye(chart.dim)[0])
    with pytest.raises(oracle.OracleError, match="outside chart domain"):
        oracle.frame_ricci(chart, oracle.FrameAtPoint(frame.x + np.eye(chart.dim)[1], frame.vectors))


def _milnor(l1, l2, l3):
    """Milnor's unimodular basis: [X1, X2] = l3 X3, [X2, X3] = l1 X1, [X3, X1] = l2 X2."""
    return {(0, 1, 2): l3, (1, 2, 0): l1, (2, 0, 1): l2}


# Milnor's six 3-dimensional unimodular Lie algebras, set apart by the signs
# of (l1, l2, l3), and the 4-dimensional filiform algebra: name -> (n, the
# structure built from three positive magnitudes)
LIE_CORPUS = {
    "su2": (3, lambda a, b, c: _milnor(a, b, c)),
    "sl2": (3, lambda a, b, c: _milnor(a, b, -c)),
    "e2": (3, lambda a, b, c: _milnor(a, b, 0.0)),
    "sol": (3, lambda a, b, c: _milnor(a, -b, 0.0)),
    "heisenberg": (3, lambda a, b, c: _milnor(a, 0.0, 0.0)),
    "abelian": (3, lambda a, b, c: {}),
    "filiform": (4, lambda a, b, c: {(0, 1, 2): a, (0, 2, 3): b}),
}


@pytest.mark.parametrize("name", LIE_CORPUS)
def test_unimodular_corpus_verifies_at_every_sphere_dimension(name):
    rng = np.random.default_rng(list(LIE_CORPUS).index(name))
    n, build = LIE_CORPUS[name]
    exponents = rng.choice(["1/4", "1/2", "3/4", "1", "3/2"], n)
    h = tuple(exprs.parse(f"(1+r^2)^(-{m})") for m in exponents)
    spec = WarpedFamilySpec(n=n, f=R_QUARTER, h=h, structure=build(*rng.uniform(0.5, 2.0, 3).tolist()))
    rs = sorted(np.exp(rng.uniform(np.log(0.25), np.log(4.0), 3)).tolist())
    for p in range(2, oracle.MAX_DIM - n + 1):
        report = verify_against_oracle(spec, p, rs, 1e-8)
        assert report.passed, (name, p, report.max_gating_deviation())


@pytest.mark.parametrize("seed", range(5))
def test_jet_and_euler_s3_charts_match_the_derived_base(seed):
    # constant profiles: the warped corrections vanish and the Y block is
    # the base; the Euler-angle preset reads no structure constants
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.uniform(-1.5, 1.5, 3)).tolist()
    want = warped.lie_ricci(warped.S3_STRUCTURE, 3)(scales)
    size = np.max(np.abs(want))
    spec = WarpedFamilySpec(
        n=3, f=exprs.parse("sin(r)"), h=tuple(exprs.Const(Fraction(s)) for s in scales), structure=warped.S3_STRUCTURE
    )
    full = oracle.frame_ricci(chart_metric(spec, 2), frames_at(spec, 2, [1.0])[0])
    assert np.max(np.abs(full[2:, 2:] - want)) <= 1e-12 * size
    point = np.array([1.1, 0.4, 0.8])
    euler = oracle.frame_ricci(
        oracle.s3_left_invariant_chart(*scales), oracle.FrameAtPoint(point, oracle.su2_frame(point, scales))
    )
    assert np.max(np.abs(euler - want)) <= 1e-10 * size


def test_smoothness_reference_profiles():
    rep = smoothness_check(reference_torus_spec(), 1e-4)
    assert rep.all_ok


def test_smoothness_rejects_quadratic_profile():
    spec = WarpedFamilySpec(n=0, f=exprs.parse("r^2"), h=())
    rep = smoothness_check(spec, 1e-4)
    holds = {name: ok for name, ok, _, _ in rep.conditions}
    assert not holds["f-slope-one-at-axis"]
    assert not rep.all_ok


def test_smoothness_sine_profile():
    spec = WarpedFamilySpec(n=0, f=exprs.parse("sin(r)"), h=(), base_ricci=None)
    rep = smoothness_check(spec, 1e-4)
    holds = {name: ok for name, ok, _, _ in rep.conditions}
    assert holds["f-vanishes-at-axis"] and holds["f-slope-one-at-axis"]
    assert holds["f-second-derivative-zero-at-axis"]


def test_pd_round_sphere_margin():
    blocks = ricci_warped(round_sphere_spec(), 1.0, 4)
    pd = check_positive_definite(blocks)
    assert pd.positive_definite
    assert pd.min_eigen == pytest.approx(3.0, abs=1e-12)


def test_pd_reference_profiles_large_p():
    from ricciforge.positivity import reference_profiles

    f, h = reference_profiles()
    spec = WarpedFamilySpec(n=1, f=f, h=(h,))
    blocks = ricci_warped(spec, 1.0, 200)
    assert check_positive_definite(blocks).positive_definite


def test_pd_gershgorin_slack():
    spec = WarpedFamilySpec(
        n=2,
        f=exprs.parse("r"),
        h=(exprs.parse("1"), exprs.parse("1")),
        base_ricci="constant:[[1, 0], [0, 1]]",
    )
    blocks = ricci_warped(spec, 1.0, 3)
    # uu = 0 for the flat product, so fudge a strictly positive copy
    blocks = dataclasses.replace(blocks, rr=1.0, uu=1.0)
    assert check_positive_definite(blocks, off_diag_slack=0.4).positive_definite
    assert not check_positive_definite(blocks, off_diag_slack=1.1).positive_definite
    # a nan slack makes every yy lower bound nan, which min() skips: it read
    # positive_definite=True with min_eigen rr = 1.0 here
    for slack in (-0.1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="^off_diag_slack must be a finite nonnegative number$"):
            check_positive_definite(blocks, off_diag_slack=slack)


def test_spec_json_base_ricci_forms():
    base = {"n": 1, "f": "r", "h": ["1"], "structure": []}
    zero = spec_from_json({**base, "baseRicci": "zero"})
    assert zero.modelled_base(1.0) == ((0.0,),)
    const = spec_from_json({**base, "baseRicci": "constant:[[2.5]]"})
    assert const.modelled_base(3.0) == [[2.5]]
    scaled = spec_from_json({**base, "baseRicci": "scaledIdentity:(1+r^2)^(-1)"})
    assert scaled.modelled_base(1.0) == [[0.5]]
    with pytest.raises(ValueError):
        spec_from_json({**base, "baseRicci": "mystery:1"})
    with pytest.raises(ValueError):
        spec_from_json({**base, "baseRicci": "constant:[[1, 2]]"})
    # the base is text, read once at construction: specs compare equal,
    # and replacing the text re-reads it
    base = {"n": 2, "f": "r", "h": ["1", "2"]}
    for text in ["zero", "constant:[[1, 0.5], [0.5, -2]]", "scaledIdentity:(1+r^2)^(-1)"]:
        assert spec_from_json({**base, "baseRicci": text}) == spec_from_json({**base, "baseRicci": text})
    spec = spec_from_json({**base, "baseRicci": "constant:[[1, 0.5], [0.5, -2]]"})
    assert spec.modelled_base(3.0) == [[1.0, 0.5], [0.5, -2.0]]
    zero = dataclasses.replace(spec, base_ricci="zero")
    assert zero.modelled_base(3.0) == ((0.0, 0.0), (0.0, 0.0))
    assert dataclasses.replace(zero, base_ricci=None).modelled_base is None
    with pytest.raises(ValueError, match="^unknown baseRicci form 'mystery:1'$"):
        WarpedFamilySpec(n=0, f=exprs.parse("r"), h=(), base_ricci="mystery:1")
    with pytest.raises(ValueError):
        spec_from_json({"n": 1, "f": "r"})
    with pytest.raises(exprs.ParseError):
        spec_from_json({**base, "f": "r +"})


def test_spec_json_structure_rows():
    data = {
        "n": 3,
        "f": "r",
        "h": ["1", "1", "1"],
        "structure": [[0, 1, 2, 2.0], [1, 2, 0, 2.0], [2, 0, 1, 2.0]],
        "baseRicci": "zero",
    }
    spec = spec_from_json(json.dumps(data))
    assert spec.structure[(0, 1, 2)] == 2.0
    assert spec.structure[(1, 0, 2)] == -2.0


CERTIFY_SPEC = {
    "n": 2,
    "f": "r*(1+r^2)^(-3/4)",
    "h": ["(1+r^2)^(-1/3)", "(1+r^2)^(-5/4)"],
    "structure": [],
    "baseRicci": "scaledIdentity:-1/2*(1+r^2)^(-2)",
}


def _built_specs():
    return [
        reference_torus_spec(),
        left_invariant_s3_spec(),
        round_sphere_spec(),
        spec_from_json(CERTIFY_SPEC),
    ]


def test_built_spec_derives_and_compiles_nothing(monkeypatch):
    specs = _built_specs()
    calls = []

    def counting(name):
        inner = getattr(exprs, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapper

    for name in ("diff", "evaluate", "compile_scalar"):
        monkeypatch.setattr(exprs, name, counting(name))
    for spec in specs:
        for r in (0.3, 1.7):
            ricci_warped(spec, r, 4)
        smoothness_check(spec, 1e-4)
        frames_at(spec, 3, [1.2])[0]
    assert calls == []


def test_profile_values_equal_one_shot_derivatives():
    rng = np.random.default_rng(20261018)
    for spec in _built_specs():
        for r in rng.uniform(0.05, 5.0, size=6):
            fv, fp, fpp, hv, hp, hpp = spec.profile_values(float(r))
            for e, values in [(spec.f, (fv, fp, fpp))] + [
                (h, (hv[i], hp[i], hpp[i])) for i, h in enumerate(spec.h)
            ]:
                want = [exprs.evaluate(e, r)] + [exprs.evaluate(exprs.diff(e, k), r) for k in (1, 2)]
                assert list(values) == want


def test_specs_from_equal_json_share_their_derived_objects():
    a = spec_from_json(CERTIFY_SPEC)
    b = spec_from_json(json.loads(json.dumps(CERTIFY_SPEC)))
    # the profile cache is keyed by structure: fresh but equal trees hit it too
    exprs._parse_cached.cache_clear()
    c = spec_from_json(CERTIFY_SPEC)
    assert c.f is not a.f and c.f == a.f
    for other in (b, c):
        assert len(other.compiled) == len(a.compiled) == 1 + a.n
        assert all(x is y for x, y in zip(a.compiled, other.compiled))


def test_a_repeated_spec_compiles_nothing():
    # spec_from_json builds the scaledIdentity base anew for every spec; its
    # function, like the profiles', comes from compile_scalar's cache
    spec_from_json(CERTIFY_SPEC)
    misses = exprs._compile.cache_info().misses
    spec = spec_from_json(json.loads(json.dumps(CERTIFY_SPEC)))
    ricci_warped(spec, 0.8, 4)
    assert exprs._compile.cache_info().misses == misses


def _profile_bits(spec, rs):
    fv, fp, fpp, hv, hp, hpp = zip(*(spec.profile_values(r) for r in rs))
    return [v.hex() for v in (*fv, *fp, *fpp)] + [v.hex() for rows in (hv, hp, hpp) for row in rows for v in row]


def test_profile_values_are_bit_identical_after_the_caches_are_cleared():
    rs = [float(r) for r in np.random.default_rng(20261019).uniform(0.01, 6.0, size=9)]
    warm = [_profile_bits(spec, rs) for spec in _built_specs()]
    exprs._parse_cached.cache_clear()
    warped._profile.cache_clear()
    cold = [_profile_bits(spec, rs) for spec in _built_specs()]
    assert warped._profile.cache_info().misses > 0
    assert cold == warm
    assert [_profile_bits(spec, rs) for spec in _built_specs()] == warm


def test_the_profile_cache_has_a_finite_bound():
    info = warped._profile.cache_info()
    assert info.maxsize == exprs.CACHE_SIZE and 0 < info.maxsize < 10_000
    assert warped._grid_min.cache_info().maxsize == exprs.CACHE_SIZE
    for k in range(info.maxsize + 10):
        WarpedFamilySpec(n=0, f=exprs.parse(f"r + {k}*r^3"), h=())
    assert warped._profile.cache_info().currsize == info.maxsize


@pytest.mark.parametrize("key, name", [("f", "f"), ("h", "h[0]")])
def test_a_profile_too_deep_to_hash_fails_on_every_build(key, name):
    deep = "+".join(["r"] * 3000)
    data = {**CERTIFY_SPEC, key: deep if key == "f" else [deep, "1"]}
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^profile {re.escape(name)}: maximum recursion depth"):
            spec_from_json(data)


# the certify draw: 3 sphere-profile exponents, 8 fiber exponents, 4 base scales
CERTIFY_F = ("-1/4", "-1/2", "-3/4")
CERTIFY_H = ("1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "3/2")
CERTIFY_SCALES = ("0", "1/4", "1/2", "1")


def _certify_specs():
    rng = np.random.default_rng(20261021)
    for a in CERTIFY_F:
        for c in CERTIFY_SCALES:
            for n in (1, 2, 3):
                for _ in range(len(CERTIFY_H) if n == 1 else 3):
                    ms = [CERTIFY_H[k] for k in rng.integers(len(CERTIFY_H), size=n)]
                    yield spec_from_json({
                        "n": n, "f": f"r*(1+r^2)^({a})", "h": [f"(1+r^2)^(-{m})" for m in ms],
                        "baseRicci": f"scaledIdentity:-{c}*(1+r^2)^(-2)",
                    })


def _reference_conditions(spec, tol):
    eps = warped.AXIS_EPS
    grid = np.linspace(eps, warped.SMOOTHNESS_R_MAX, warped.SMOOTHNESS_GRID_POINTS)
    f0, f1, f2 = (exprs.evaluate(e, eps) for e in (spec.f, exprs.diff(spec.f, 1), exprs.diff(spec.f, 2)))
    slopes = [abs(exprs.evaluate(exprs.diff(h, 1), eps)) for h in spec.h]
    least = [float(exprs.evaluate_grid(e, grid).min()) for e in (spec.f, *spec.h)]
    return (
        ("f-vanishes-at-axis", abs(f0) <= tol, abs(f0), tol),
        ("f-slope-one-at-axis", abs(f1 - 1.0) <= tol, abs(f1 - 1.0), tol),
        ("f-second-derivative-zero-at-axis", abs(f2) <= tol, abs(f2), tol),
        ("f-positive", bool(np.all(exprs.evaluate_grid(spec.f, grid) > 0.0)), least[0], 0.0),
        *((f"h[{i}]-even-at-axis", v <= tol, v, tol) for i, v in enumerate(slopes)),
        *((f"h[{i}]-positive", bool(np.all(exprs.evaluate_grid(h, grid) > 0.0)), v, 0.0)
          for i, (h, v) in enumerate(zip(spec.h, least[1:]))),
    )


def test_smoothness_rows_equal_a_direct_grid_evaluation_cold_and_warm(monkeypatch):
    specs = list(_certify_specs())
    want = [_reference_conditions(spec, 1e-4) for spec in specs]
    grid = np.linspace(warped.AXIS_EPS, warped.SMOOTHNESS_R_MAX, warped.SMOOTHNESS_GRID_POINTS)
    calls, evaluate_grid = [], exprs.evaluate_grid

    def recording(e, rs):
        calls.append(e)
        assert np.array_equal(rs, grid)
        return evaluate_grid(e, rs)

    monkeypatch.setattr(exprs, "evaluate_grid", recording)
    warped._grid_min.cache_clear()
    assert [smoothness_check(spec, 1e-4).conditions for spec in specs] == want
    # cold, each distinct tree is evaluated on the grid once; warm, none is
    assert sorted(map(exprs.to_text, calls)) == sorted({exprs.to_text(e) for spec in specs for e in (spec.f, *spec.h)})
    assert len(calls) == len(CERTIFY_F) + len(CERTIFY_H)
    calls.clear()
    assert [smoothness_check(spec, 1e-4).conditions for spec in specs] == want
    assert calls == []


def test_a_grid_failure_is_raised_on_every_call_and_in_row_order():
    spec = spec_from_json({"n": 2, "f": "r", "h": ["1", "1 + r^400"]})
    warped._grid_min.cache_clear()
    for _ in range(2):
        with pytest.raises(exprs.DomainError, match=r"^overflow in power in subexpression 'r\^400'$"):
            smoothness_check(spec, 1e-4)
    assert warped._grid_min.cache_info().currsize == 2  # r and 1, not the failing h[1]
    # f's grid fails before an h_i's, and h[0]'s before h[1]'s
    both = spec_from_json({"n": 2, "f": "r + r^310", "h": ["1 + r^400", "1 + r^500"]})
    with pytest.raises(exprs.DomainError, match=r"'r\^310'$"):
        smoothness_check(both, 1e-4)
    with pytest.raises(exprs.DomainError, match=r"'r\^400'$"):
        smoothness_check(dataclasses.replace(both, f=exprs.parse("r")), 1e-4)


def test_a_closed_form_block_past_float_range_is_named():
    # f(1) = 1e-160 is finite, but 1/f^2 is not
    spec = spec_from_json({"n": 1, "f": "1e-160*r", "h": ["1"]})
    with pytest.raises(FloatingPointError) as err:
        ricci_warped(spec, 1.0, 3)
    assert str(err.value) == "closed-form block uu is inf at r=1.0, p=3"
    # a base scale past float range names its overflowing product, as a profile does
    spec = spec_from_json({"n": 2, "f": "r", "h": ["1", "1"], "baseRicci": "scaledIdentity:1e300*r*r"})
    assert ricci_warped(spec, 10.0, 3).yy[0, 0] == 1e302
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exprs.DomainError) as err:
            ricci_warped(spec, 1e10, 3)
    assert str(err.value) == "overflow in product in subexpression '1e300*r'"
    assert err.value.node == exprs.parse("1e300*r")


def test_a_derived_base_dividing_by_an_underflowed_scale_product_is_named():
    # h_a h_b = 1e-340 underflows to 0.0 in C_abk = b_abk h_k/(h_a h_b)
    rows = [[0, 1, 2, 2.0], [1, 2, 0, 2.0], [2, 0, 1, 2.0]]
    spec = spec_from_json({"n": 3, "f": "r", "h": ["1e-170"] * 3, "structure": rows})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^closed-form block yy\[0,0\] is nan at r=1.0, p=3$"):
            ricci_warped(spec, 1.0, 3)


@pytest.mark.parametrize("r", [float("inf"), float("nan")])
def test_a_non_finite_radius_is_named_without_a_warning(r):
    # inf and nan pass the r > 0 check; the profiles name r, not an overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exprs.DomainError) as err:
            ricci_warped(reference_torus_spec(), r, 3)
    assert str(err.value) == f"non-finite value {r} in subexpression 'r'"
    assert err.value.node == exprs.Var()


@pytest.mark.parametrize("r", [1.0, 10.0])
def test_a_block_dividing_by_an_underflowed_f_squared_is_named(r):
    # f(r)^2 underflows to 0.0 for f = 1e-170*r; Python's float division
    # would raise a ZeroDivisionError that names nothing
    spec = spec_from_json({"n": 1, "f": "1e-170*r", "h": ["1"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError) as err:
            ricci_warped(spec, r, 3)
    assert str(err.value) == f"closed-form block uu is inf at r={r}, p=3"
    # a zero f(r) fails first in rr, as 0/0
    with pytest.raises(FloatingPointError, match=r"^closed-form block rr is nan at r=1.0, p=3$"):
        ricci_warped(spec_from_json({"n": 1, "f": "r - 1", "h": ["1"]}), 1.0, 3)


def test_derived_attributes_are_not_fields():
    spec = spec_from_json(CERTIFY_SPEC)
    assert len(spec.compiled) == 1 + len(spec.h)
    want = [exprs.evaluate(spec.f, 0.7)] + [exprs.evaluate(exprs.diff(spec.f, k), 0.7) for k in (1, 2)]
    assert list(spec.compiled[0](0.7)) == want
    assert "compiled" not in repr(spec) and not hasattr(spec, "derivatives")
    assert spec == dataclasses.replace(spec)
    flat = dataclasses.replace(spec, f=exprs.parse("r"))
    assert flat.compiled[0](2.0) == (2.0, 1.0, 0.0)


@pytest.mark.parametrize("f", ["r + r^200*r^200", "r + exp(r^200*r^200)"])
def test_scalar_overflow_names_the_innermost_operation(f):
    # the compiled functions let the product overflow to inf; the finished
    # values are checked once and the overflowing node is named
    spec = spec_from_json({"n": 1, "f": f, "h": ["1"]})
    with pytest.raises(exprs.DomainError) as err:
        ricci_warped(spec, 10.0, 3)
    assert str(err.value) == "overflow in product in subexpression 'r^200*r^200'"
    assert np.isfinite(ricci_warped(spec, 1.0, 3).rr)


def test_scalar_overflow_in_an_h_profile_or_a_derivative_is_named():
    spec = spec_from_json({"n": 1, "f": "r", "h": ["2 - r^200*r^200"]})
    with pytest.raises(exprs.DomainError, match=r"overflow in product in subexpression 'r\^200\*r\^200'"):
        spec.profile_values(10.0)
    # at r = 1e154, f = sin(r*r) and f' are finite, but f'' overflows
    spec = spec_from_json({"n": 0, "f": "sin(r*r)", "h": []})
    with pytest.raises(exprs.DomainError) as err:
        spec.profile_values(1e154)
    assert str(err.value) == "overflow in product in subexpression '-sin(r*r)*(r + r)*(r + r)'"


def _eigvalsh_min(rr, yy, uu):
    """The exact check's min_eigen by eigvalsh on the (n+1) x (n+1) reduced block."""
    n = len(yy)
    reduced = np.zeros((n + 1, n + 1))
    reduced[0, 0], reduced[1:, 1:] = rr, yy
    return float(min(np.linalg.eigvalsh(reduced).min(), uu)) + 0.0


def _numpy_blocks(spec, r, p, slack):
    """rr, uu, yy and the min_eigen of both PD checks by the numpy formula
    the float code replaced, as the reference: profile arrays, sums by
    ndarray.sum, the base as an array, eigvalsh on the reduced block for
    the exact check and per-row np.sum for the Gershgorin one."""
    f_at, *hs = spec.compiled
    fv, fp, fpp = f_at(r)
    hv, hp, hpp = (np.array([h(r)[k] for h in hs]) for k in range(3))
    lh, lhh = hp / hv, hpp / hv
    s1 = lh.sum(axis=0)
    uu = (p - 2) * (1.0 - fp**2) / fv**2 - (fp / fv) * s1 - fpp / fv
    rr = -(p - 1) * fpp / fv - lhh.sum(axis=0)
    corr = -(p - 1) * (fp / fv) * lh - lh * (s1 - lh) - lhh
    base = np.asarray(spec.derived_base(hv.tolist()) if spec.base_ricci is None else spec.modelled_base(r), dtype=float)
    n = spec.n
    yy = 0.5 * (base + base.T) + np.diag(corr) if n else np.zeros((0, 0))
    lowers = [rr]
    for i in range(n):
        known_off = float(np.sum(np.abs(yy[i]))) - abs(float(yy[i, i]))
        lowers.append(yy[i, i] - known_off - (n - 1) * slack)
    return float(rr), float(uu), yy, _eigvalsh_min(rr, yy, uu), float(min(min(lowers), uu)) + 0.0


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


def _random_cases(rng):
    """120 specs with n = 0..7 and a zero, scaled-identity or constant base,
    each with a radius, p and a slack."""
    for trial in range(120):
        n = trial % 8
        scales = rng.integers(1, 9, size=n)
        powers = rng.integers(1, 7, size=n)
        bases = [
            "zero",
            f"scaledIdentity:-{rng.integers(1, 5)}/3*(1+r^2)^(-1)",
            "constant:" + json.dumps(np.round(rng.normal(size=(n, n)), 3).tolist()),
        ]
        data = {
            "n": n,
            "f": f"r*(1+r^2/{rng.integers(1, 5)})^(-{rng.integers(1, 4)}/4)",
            "h": [f"(1+{a}*r^2)^(-{b}/4)" for a, b in zip(scales, powers)],
            "baseRicci": bases[trial % 3 if n else 0],
        }
        yield data, float(rng.uniform(0.05, 6.0)), int(rng.integers(2, 64)), float(rng.uniform(0, 1))


# S^3, the Heisenberg algebra and the 4-dimensional filiform algebra, as rows
DERIVED_BASES = [
    (3, [[0, 1, 2, 2.0], [1, 2, 0, 2.0], [2, 0, 1, 2.0]]),
    (3, [[0, 1, 2, 1.0]]),
    (4, [[0, 1, 2, 1.0], [0, 2, 3, 1.0]]),
]


def _structure_cases(rng):
    """20 specs for each structure of DERIVED_BASES, with the base it derives."""
    for n, rows in DERIVED_BASES:
        for _ in range(20):
            h = [f"(1+r^2)^(-{b}/4)" for b in rng.integers(1, 7, size=n)]
            data = {"n": n, "f": "r*(1+r^2)^(-1/4)", "h": h, "structure": rows}
            yield data, float(rng.uniform(0.05, 6.0)), int(rng.integers(2, 64)), float(rng.uniform(0, 1))


CERTIFY_EXPONENTS = ("1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "3/2")


def _certify_cases(seed):
    """10 specs shaped as the certify workload draws them, n = 1..3 power
    profiles and a scaled-identity base of scale c in {0, 1/4, 1/2, 1}, each
    at 4 radii log-uniform on [0.25, 4] with p in 2..64 and slack c + 1/8."""
    rng = np.random.default_rng(seed)
    for k in range(10):
        n, c = 1 + k % 3, (0.0, 0.25, 0.5, 1.0)[rng.integers(4)]
        data = {
            "n": n,
            "f": f"r*(1+r^2)^(-{rng.integers(1, 4)}/4)",
            "h": [f"(1+r^2)^(-{CERTIFY_EXPONENTS[i]})" for i in rng.integers(0, 8, size=n)],
            "structure": [],
            "baseRicci": f"scaledIdentity:-{c}*(1+r^2)^(-2)",
        }
        for _ in range(4):
            yield data, float(np.exp(rng.uniform(np.log(0.25), np.log(4.0)))), int(rng.integers(2, 65)), c + 0.125


# LAPACK ?syevd scales a matrix whose largest |entry| is outside [SYEVD_RMIN, SYEVD_RMAX]
SYEVD_RMIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)  # sqrt(safmin/eps)
SYEVD_RMAX = 1.0 / SYEVD_RMIN


def _diagonal_blocks_across_the_syevd_band():
    """RicciBlocks with a diagonal yy whose largest |entry| sits on either
    side of SYEVD_RMIN and of SYEVD_RMAX, with signed zeros, an all-zero
    block, n = 0 and -0.0 off the diagonal."""
    low, high = SYEVD_RMIN, SYEVD_RMAX
    edges = [low, high, 7.3e-147, 1.006e146, 1.0, 1e-300, 1e300]
    edges += [np.nextafter(x, toward) for x in (low, high) for toward in (0.0, np.inf)]
    rng = np.random.default_rng(20261020)
    cases = []
    for top in edges:
        for n in range(5):
            for sign in (1.0, -1.0):
                rest = (rng.uniform(-1.0, 1.0, n) * top).tolist()
                rr, *diag = rng.permutation([sign * top] + rest).tolist()
                cases.append((rr, np.diag(diag), abs(top)))
    for _ in range(300):  # random signs and magnitudes from 1e-300 to 1e300
        n = int(rng.integers(0, 6))
        rr, *diag = (rng.choice([-1.0, 1.0], n + 1) * 10.0 ** rng.uniform(-300, 300, n + 1)).tolist()
        cases.append((rr, np.diag(diag), 1.0))
    cases += [
        (0.0, np.zeros((3, 3)), 1.0),
        (-0.0, np.diag([0.0, -0.0]), -0.0),
        (1.0, np.zeros((0, 0)), 2.0),
        (-0.0, np.zeros((0, 0)), 1.0),
        (1.0, np.array([[2.0, -0.0], [-0.0, 3.0]]), 4.0),
        (1.0, np.array([[2.0, 1e-300], [1e-300, 3.0]]), 4.0),
    ]
    for rr, yy, uu in cases:
        yield warped.RicciBlocks(rr=rr, uu=uu, yy=yy, p=3, r=1.0)


def test_float_blocks_equal_the_numpy_formula_bit_for_bit():
    """ricci_warped and both check_positive_definite branches equal the
    numpy formula bit for bit on random specs with n = 0..7, where numpy
    also sums left to right from 0.0, on bases derived from structures
    and on certify-shaped specs of seeds 0..5. For n >= 8 numpy sums
    pairwise, so the two may differ by roundoff."""
    rng = np.random.default_rng(20261019)
    cases = [*_random_cases(rng), *_structure_cases(rng)]
    cases += [case for seed in range(6) for case in _certify_cases(seed)]
    for trial, (data, r, p, slack) in enumerate(cases):
        spec = spec_from_json(data)
        rr, uu, yy, exact, gersh = _numpy_blocks(spec, r, p, slack)
        blocks = ricci_warped(spec, r, p)
        got = (blocks.rr, blocks.uu, blocks.yy)
        got += tuple(check_positive_definite(blocks, s).min_eigen for s in (0.0, slack))
        assert _bits(*got) == _bits(rr, uu, yy, exact, gersh), (trial, data)


def test_diagonal_blocks_read_their_least_entry_at_every_magnitude():
    """The exact check's min_eigen of a block with a diagonal yy is its
    least entry among rr, uu and the diagonal, on both sides of the band
    where eigvalsh would rescale the (n+1) x (n+1) block first."""
    for blocks in _diagonal_blocks_across_the_syevd_band():
        got = check_positive_definite(blocks).min_eigen
        assert _bits(got) == _bits(min(blocks.rr, blocks.uu, *np.diag(blocks.yy).tolist()) + 0.0), blocks


def test_a_diagonal_block_past_the_band_reads_its_entry():
    # eigvalsh on the 3 x 3 block with rr read -6.8799999999999984e+154 here
    data = {"n": 2, "f": "r", "h": ["1", "1"], "baseRicci": "constant:[[2.28e154, 0], [0, -6.88e154]]"}
    blocks = ricci_warped(spec_from_json(data), 1.0, 3)
    pd = check_positive_definite(blocks)
    assert pd.min_eigen == blocks.yy[1, 1] == -6.88e154
    assert format(pd.min_eigen, ".17g") == "-6.8799999999999996e+154"  # as --json prints it


def test_blocks_with_off_diagonal_entries_equal_eigvalsh_on_the_reduced_block():
    """Inside the band, eigvalsh on yy alone gives the min_eigen of eigvalsh
    on the (n+1) x (n+1) block with rr bit for bit, for n = 2..7."""
    rng = np.random.default_rng(20261022)
    for trial in range(600):
        n = 2 + trial % 6
        scale = 10.0 ** rng.uniform(-100, 100)
        a = rng.normal(size=(n, n)) * scale
        yy = a + a.T
        rr, uu = rng.normal(size=2) * scale
        blocks = warped.RicciBlocks(rr=rr, uu=uu, yy=yy, p=3, r=1.0)
        got = check_positive_definite(blocks).min_eigen
        assert _bits(got) == _bits(_eigvalsh_min(rr, yy, uu)), (trial, blocks)


@pytest.mark.parametrize(
    "rr, uu, yy, err",
    [
        (1.0, 3.0, np.diag([np.nan, 2.0]), "yy[0,0] is nan"),
        (1.0, 3.0, np.diag([np.inf, 2.0]), "yy[0,0] is inf"),
        (-np.inf, 3.0, np.diag([1.0, 2.0]), "rr is -inf"),
        (np.inf, 1.0, np.zeros((0, 0)), "rr is inf"),
        (1.0, np.nan, np.array([[2.0]]), "uu is nan"),
        (1.0, 1.0, np.diag([np.nan, 1.0]), "yy[0,0] is nan"),
        (1.0, 1.0, np.diag([np.inf, 1.0]), "yy[0,0] is inf"),
        (np.nan, np.inf, np.array([[1.0, np.inf], [np.nan, 1.0]]), "rr is nan"),
        (1.0, 1.0, np.array([[1.0, np.inf], [np.nan, 1.0]]), "yy[0,1] is inf"),
    ],
)
def test_a_non_finite_block_is_refused_naming_the_first(rr, uu, yy, err):
    # so check_positive_definite never sees one: min() skips a nan that is
    # not first, and eigvalsh raises LinAlgError on an inf
    with pytest.raises(FloatingPointError) as raised:
        warped.RicciBlocks(rr=rr, uu=uu, yy=yy, p=3, r=1.0)
    assert str(raised.value) == f"closed-form block {err} at r=1.0, p=3"


def test_a_verify_leaves_no_cyclic_garbage():
    # a reference cycle would hold each chart call's stencil until the
    # collector runs, and the freed heap would be trimmed and faulted back
    spec = left_invariant_s3_spec()

    def run():
        exprs.evaluate_grid(spec.f, np.array([0.5, 1.0 + 1e-30j]))
        warped.verify_against_oracle(spec, 5, [0.25, 1.0, 4.0], 1e-5)

    run()  # fills the caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
