import dataclasses
import json

import numpy as np
import pytest

from ricciforge import exprs, oracle
from ricciforge.warped import (
    WarpedFamilySpec,
    assemble_full,
    chart_metric,
    check_positive_definite,
    frame_at,
    left_invariant_s3_spec,
    reference_torus_spec,
    ricci_warped,
    round_sphere_spec,
    smoothness_check,
    spec_from_json,
    spec_to_json,
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
        base_ricci=lambda r: base,
    )
    for r in (0.5, 1.0, 7.0):
        blocks = ricci_warped(spec, r, 4)
        assert blocks.rr == 0.0
        assert blocks.uu == 0.0
        assert np.array_equal(blocks.yy, base)
        assert not assemble_full(blocks)[0, 1:].any()  # radial row is diagonal


def test_assembled_matrix_is_exactly_symmetric():
    spec = reference_torus_spec()
    blocks = ricci_warped(spec, 1.3, 5)
    full = assemble_full(blocks)
    assert np.array_equal(full, full.T)
    assert full.shape == (6, 6)
    assert full[1, 1] == blocks.uu == full[4, 4]


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
    assert not spec.structure_vanishes


def test_torus_spec_verifies_against_oracle():
    rep = verify_against_oracle(reference_torus_spec(), 3, RS, 1e-5)
    assert rep.passed
    assert rep.max_gating_deviation() <= 1e-5
    zero_rows = [row for row in rep.rows if row["entry"] == "mixed-zero"]
    assert [row["r"] for row in zero_rows] == RS
    assert all(row["gating"] and row["closed"] == 0.0 for row in zero_rows)
    assert all(row["oracle"] <= 1e-8 for row in zero_rows)


@pytest.mark.parametrize("p", [4, 5])
def test_torus_spec_other_sphere_dimensions(p):
    rep = verify_against_oracle(reference_torus_spec(), p, RS, 1e-5)
    assert rep.passed


def test_round_sphere_spec_verifies_tightly():
    rep = verify_against_oracle(round_sphere_spec(), 4, [0.25, 0.5, 1.0, 2.0], 1e-8, step=2e-3)
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
    full = oracle.frame_ricci(chart_metric(spec, p), frame_at(spec, p, r))
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
    fr = frame_at(spec, 4, 1.0)
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
    fr = frame_at(spec, p, r)
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


@pytest.mark.parametrize("spec_fn", [reference_torus_spec, left_invariant_s3_spec])
@pytest.mark.parametrize("p", [3, 5])
def test_chart_components_batch_matches_single_rows(spec_fn, p):
    chart = chart_metric(spec_fn(), p)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (9, chart.dim))
    pts[:, 0] = rng.uniform(0.1, 3.0, 9)  # inside the Euler-angle chart of the 3-sphere
    pts[:, -1] = rng.uniform(0.01, 4.0, 9)  # r > 0
    batch = chart.components(pts)
    assert batch.shape == (9, chart.dim, chart.dim)
    rows = np.stack([chart.components(pts[i : i + 1])[0] for i in range(len(pts))])
    np.testing.assert_array_equal(batch, rows)


def test_verify_rejects_unrealizable_spec():
    spec = WarpedFamilySpec(
        n=3,
        f=exprs.parse("r"),
        h=(exprs.parse("1"),) * 3,
        structure={(0, 1, 2): 1.0},  # not the quaternionic normalization
    )
    with pytest.raises(ValueError):
        verify_against_oracle(spec, 3, [1.0], 1e-5)
    with pytest.raises(ValueError):
        verify_against_oracle(reference_torus_spec(), 6, [1.0], 1e-5)


def test_smoothness_reference_profiles():
    rep = smoothness_check(reference_torus_spec(), 1e-4)
    assert rep.all_ok


def test_smoothness_rejects_quadratic_profile():
    spec = WarpedFamilySpec(n=0, f=exprs.parse("r^2"), h=())
    rep = smoothness_check(spec, 1e-4)
    assert not rep.f_prime_one_at_axis
    assert not rep.all_ok


def test_smoothness_sine_profile():
    spec = WarpedFamilySpec(n=0, f=exprs.parse("sin(r)"), h=(), base_ricci=None)
    rep = smoothness_check(spec, 1e-4, r_max=3.0)
    assert rep.f_zero_at_axis and rep.f_prime_one_at_axis and rep.f_second_zero_at_axis


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
        base_ricci=lambda r: np.eye(2),
    )
    blocks = ricci_warped(spec, 1.0, 3)
    # uu = 0 for the flat product, so fudge a strictly positive copy
    blocks = dataclasses.replace(blocks, rr=1.0, uu=1.0)
    assert check_positive_definite(blocks, off_diag_slack=0.4).positive_definite
    assert not check_positive_definite(blocks, off_diag_slack=1.1).positive_definite
    with pytest.raises(ValueError):
        check_positive_definite(blocks, off_diag_slack=-0.1)


def test_spec_json_roundtrip():
    spec = reference_torus_spec()
    data = spec_to_json(spec)
    again = spec_from_json(data)
    assert again.n == spec.n
    assert exprs.to_text(again.f) == exprs.to_text(spec.f)
    blocks_a = ricci_warped(spec, 1.0, 3)
    blocks_b = ricci_warped(again, 1.0, 3)
    assert blocks_a.rr == blocks_b.rr
    assert blocks_a.uu == blocks_b.uu


def test_spec_json_base_ricci_forms():
    base = {"n": 1, "f": "r", "h": ["1"], "structure": []}
    zero = spec_from_json({**base, "baseRicci": "zero"})
    assert np.array_equal(zero.base_ricci(1.0), np.zeros((1, 1)))
    const = spec_from_json({**base, "baseRicci": "constant:[[2.5]]"})
    assert const.base_ricci(3.0)[0, 0] == 2.5
    scaled = spec_from_json({**base, "baseRicci": "scaledIdentity:(1+r^2)^(-1)"})
    assert scaled.base_ricci(1.0)[0, 0] == 0.5
    with pytest.raises(ValueError):
        spec_from_json({**base, "baseRicci": "mystery:1"})
    with pytest.raises(ValueError):
        spec_from_json({**base, "baseRicci": "constant:[[1, 2]]"})
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
