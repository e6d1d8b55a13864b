import re
from fractions import Fraction

import numpy as np
import pytest

from ricciforge import exprs, positivity
from ricciforge.positivity import (
    RadialGrid,
    derive_coefficients,
    grid_positive,
    k_bound,
    min_p,
    profile_gap,
    reference_profiles,
)
from ricciforge.warped import diagonal_blocks

EXPECTED_PSTAR = {1: 25, 2: 49, 3: 73}


def test_reference_profiles_values():
    f, h = reference_profiles()
    assert exprs.evaluate(h, 1.0) == 0.5
    assert exprs.evaluate(f, 1.0) == pytest.approx(2.0 ** (-0.25), abs=1e-15)
    assert exprs.evaluate(exprs.diff(f, 1), 0.0) == 1.0


def test_reference_profiles_are_smooth_at_axis():
    from ricciforge.warped import WarpedFamilySpec, smoothness_check

    f, h = reference_profiles()
    spec = WarpedFamilySpec(n=1, f=f, h=(h,))
    assert smoothness_check(spec, 1e-4).all_ok


def test_coefficients_positive_and_validated():
    coeffs = derive_coefficients(2, 1.0, [1, 1])
    for cf in coeffs.directions.values():
        assert cf.K > 0 and cf.R > 0
    assert set(coeffs.directions) == {"r", "u", "y0", "y1"}


def test_coefficients_reject_degenerate_exponents():
    with pytest.raises(ValueError):
        derive_coefficients(1, 0.0, [0])
    with pytest.raises(ValueError):
        derive_coefficients(2, 0.0, [1])  # wrong length
    with pytest.raises(ValueError):
        derive_coefficients(1, -1.0, [1])


def test_c_enters_only_the_offset_terms():
    base = derive_coefficients(2, 1.0, [1, 1])
    double = derive_coefficients(2, 2.0, [1, 1])
    for name in base.directions:
        assert double.directions[name].K == base.directions[name].K
        assert double.directions[name].R == base.directions[name].R
        assert double.directions[name].L == base.directions[name].L
    assert double.directions["y0"].S == 2.0 * base.directions["y0"].S


def test_sphere_direction_dominates_early():
    # for c = 0 and unit exponents, the sphere direction is positive for
    # every admissible p
    for n in (0, 1, 2, 3, 5):
        coeffs = derive_coefficients(n, 0.0, [1] * n)
        cf = coeffs.directions["u"]
        for p in (2, 3, 10):
            assert p * cf.K - cf.L >= 0.0
            assert p * cf.R - cf.S > 0.0


def _exact_margins(n, c, mi, rs, p):
    f, h = reference_profiles()
    fv = exprs.evaluate_grid(f, rs)
    fp = exprs.evaluate_grid(exprs.diff(f, 1), rs)
    fpp = exprs.evaluate_grid(exprs.diff(f, 2), rs)
    hs = [exprs.pow_(h, m) for m in mi]
    hv = np.stack([exprs.evaluate_grid(e, rs) for e in hs]) if mi else np.zeros((0, rs.size))
    hp = (
        np.stack([exprs.evaluate_grid(exprs.diff(e, 1), rs) for e in hs])
        if mi
        else np.zeros((0, rs.size))
    )
    hpp = (
        np.stack([exprs.evaluate_grid(exprs.diff(e, 2), rs) for e in hs])
        if mi
        else np.zeros((0, rs.size))
    )
    rr, uu, yy = diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp)
    h2 = exprs.evaluate_grid(h, rs) ** 2
    return rr, uu, yy - c * h2


def test_bound_soundness_sampled():
    # the exact diagonal values stay above the coefficient bounds at ten
    # thousand sampled (r, p) pairs
    rng = np.random.default_rng(11)
    n, c, mi = 2, 1.0, [1, 1]
    coeffs = derive_coefficients(n, c, mi)
    f, h = reference_profiles()
    for _ in range(25):
        rs = np.sort(rng.uniform(1e-3, 60.0, size=400))
        p = int(rng.integers(2, 1000))
        rr, uu, yy = _exact_margins(n, c, mi, rs, p)
        h2 = exprs.evaluate_grid(h, rs) ** 2

        def bound(cf):
            return h2 * (rs**2 * (p * cf.K - cf.L) + p * cf.R - cf.S)

        assert np.all(rr >= bound(coeffs.directions["r"]) - 1e-12)
        assert np.all(uu >= bound(coeffs.directions["u"]) - 1e-12)
        for i in range(n):
            assert np.all(yy[i] >= bound(coeffs.directions[f"y{i}"]) - 1e-12)


def test_sweep_agrees_with_blockwise_pd_check():
    # the vectorized margins and the assembled-block Gershgorin check are
    # the same predicate: at pStar every sampled radius passes blockwise,
    # at pStar - 1 the radial direction fails in the far region
    from ricciforge.warped import WarpedFamilySpec, check_positive_definite, ricci_warped

    n, c = 2, 1.0
    res = min_p(n, c, [1] * n)
    f, h = reference_profiles()
    spec = WarpedFamilySpec(
        n=n,
        f=f,
        h=(h, h),
        base_ricci=lambda r: -c * exprs.evaluate(h, r) ** 2 * np.eye(n),
    )
    radii = [1e-3, 0.3, 1.0, 7.0, 20.0, 45.0]
    for r in radii:
        slack = c * exprs.evaluate(h, r) ** 2
        blocks = ricci_warped(spec, r, res.p_star)
        assert check_positive_definite(blocks, off_diag_slack=slack).positive_definite
    failed = False
    for r in radii:
        slack = c * exprs.evaluate(h, r) ** 2
        blocks = ricci_warped(spec, r, res.p_star - 1)
        if not check_positive_definite(blocks, off_diag_slack=slack).positive_definite:
            failed = True
    assert failed


def test_auxiliary_profile_inequality_dense():
    rs = np.geomspace(1e-6, 1e3, 10000)
    assert np.all(profile_gap(rs) >= -1e-12)


def test_profile_gap_branches_agree():
    # the expression-tree evaluation is accurate away from the axis
    # (its 1 - f'^2 loses digits for small r); compare where it is solid
    rs = np.geomspace(0.2, 1e3, 500)
    f, h = reference_profiles()
    fp = exprs.evaluate_grid(exprs.diff(f, 1), rs)
    fv = exprs.evaluate_grid(f, rs)
    hv = exprs.evaluate_grid(h, rs)
    direct = (1.0 - fp**2) / fv**2 - hv**2 * (1.5 + rs**2)
    assert np.allclose(profile_gap(rs), direct, rtol=1e-11, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [0.0, 1.0])
def test_min_p_reference_cases(n, c):
    res = min_p(n, c, [1] * n)
    assert res.p_star == EXPECTED_PSTAR[n]
    assert res.margin is not None and res.margin > 0.0
    assert grid_positive(n, c, [1] * n, res.p_star)
    assert not grid_positive(n, c, [1] * n, res.p_star - 1)
    assert res.p_star <= k_bound(n, c, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_min_p_stable_under_longer_grid(n):
    near = min_p(n, 1.0, [1] * n)
    far = min_p(n, 1.0, [1] * n, grid=RadialGrid(r_max=500.0))
    assert near.p_star == far.p_star


def test_min_p_monotone_in_p():
    res = min_p(2, 0.0, [1, 1])
    for extra in (1, 5, 100):
        assert grid_positive(2, 0.0, [1, 1], res.p_star + extra)


def test_min_p_zero_exponent_returns_none():
    res = min_p(1, 0.0, [0])
    assert res.p_star is None
    assert "y0" in res.reason


def test_min_p_mixed_exponents():
    res = min_p(2, 0.5, [1, "1/2"])
    assert res.p_star is not None
    assert grid_positive(2, 0.5, [1, "1/2"], res.p_star)


def test_min_p_determinism():
    a = min_p(1, 1.0, [1])
    b = min_p(1, 1.0, [1])
    assert a == b


def test_min_p_validation():
    with pytest.raises(ValueError):
        min_p(2, 0.0, [1])
    with pytest.raises(ValueError):
        min_p(1, -1.0, [1])


@pytest.mark.parametrize(
    "n,c,mi",
    [(2, 0.0, [1]), (1, 0.0, [1, 1]), (1, -1.0, [1]), (1, 0.0, [-1])],
    ids=["too-few-exponents", "too-many-exponents", "negative-c", "negative-exponent"],
)
def test_grid_positive_validates_like_min_p(n, c, mi):
    with pytest.raises(ValueError):
        grid_positive(n, c, mi, 50)
    with pytest.raises(ValueError):
        min_p(n, c, mi)


def test_k_bound_values_and_monotonicity():
    assert k_bound(1, 0.0, 1.0) == 25.0
    assert k_bound(2, 0.0, 1.0) == 49.0
    assert k_bound(3, 0.0, 1.0) == 73.0
    assert k_bound(1, 0.0, 1.0) <= k_bound(1, 1.0, 1.0)
    assert k_bound(2, 1.0, 1.0) <= k_bound(3, 1.0, 1.0)
    assert k_bound(2, 1.0, 0.5) <= k_bound(2, 1.0, 1.0)
    with pytest.raises(ValueError):
        k_bound(1, 0.0, 0.0)
    with pytest.raises(ValueError):
        k_bound(1, 0.0, 1.0, m_lower=2.0)


def test_k_bound_brute_force_cross_check():
    # a ten-thousand-point sweep passes one step above the threshold
    k = k_bound(1, 0.0, 1.0)
    grid = RadialGrid(points=10000)
    assert grid_positive(1, 0.0, [1], int(np.ceil(k)) + 1, grid=grid)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p_star_within_one_of_threshold(n):
    res = min_p(n, 0.0, [1] * n)
    assert res.p_star <= int(np.ceil(k_bound(n, 0.0, 1.0))) + 1


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(r_max=10.0)
    with pytest.raises(ValueError):
        RadialGrid(points=100)
    values = RadialGrid().values()
    assert values.min() >= 1e-4 and values.max() == 50.0
    assert values.size >= 1000


def _clear_grid_caches():
    positivity._reference_rows.cache_clear()
    positivity._exponent_rows.cache_clear()


def test_min_p_derives_each_exponent_once(monkeypatch):
    _clear_grid_caches()
    derived, grid_calls = [], []
    inner_diff, inner_grid = exprs.diff, exprs.evaluate_grid

    def counting_diff(e, order=1):
        derived.append(e)
        return inner_diff(e, order)

    def counting_grid(e, rs):
        grid_calls.append(e)
        return inner_grid(e, rs)

    monkeypatch.setattr(exprs, "diff", counting_diff)
    monkeypatch.setattr(exprs, "evaluate_grid", counting_grid)
    f, h = reference_profiles()
    hm = exprs.pow_(h, Fraction(1, 2))
    assert min_p(3, 1.0, ["1/2"] * 3).p_star is not None
    # the first call derives f' and f'' for the reference rows, then h^(1/2)
    assert derived == [f, inner_diff(f, 1), hm, inner_diff(hm, 1)]
    derived.clear()
    assert min_p(3, 1.0, ["1/2", 1, "1/2"]).p_star is not None
    assert derived == [h, inner_diff(h, 1)]
    derived.clear()
    grid_calls.clear()
    assert min_p(3, 1.0, ["1/2", 1, "1/2"]).p_star is not None
    assert grid_positive(3, 1.0, [1, "1/2", 1], 60)
    assert derived == [] and grid_calls == []


def test_cached_grid_rows_are_read_only():
    min_p(2, 0.5, [1, "1/2"])
    grid = RadialGrid()
    rows = positivity._reference_rows(grid) + positivity._exponent_rows(grid, Fraction(1, 2))
    assert len(rows) == 8
    # every flag is checked before any write, so a failure cannot corrupt the shared rows
    assert not any(row.flags.writeable for row in rows)
    for row in rows:
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0


def test_min_p_warm_cache_equals_cold_cache():
    cases = [
        (0, 0.0, [], RadialGrid()),
        (1, 0.0, [1], RadialGrid()),
        (2, 0.5, ["1/4", "3/2"], RadialGrid(r_max=500.0)),
        (3, 1.0, ["1/3", "1/2", "1/3"], RadialGrid(r_max=80.0, points=2000)),
        (1, 2.0, ["5/4"], RadialGrid(points=1001)),
        (2, 0.0, [0, 1], RadialGrid()),
    ]

    def sweep():
        return [
            (min_p(n, c, mi, grid=grid), grid_positive(n, c, mi, 40, grid=grid))
            for n, c, mi, grid in cases
        ]

    warm = sweep()
    warmer = sweep()
    _clear_grid_caches()
    cold = sweep()
    for got in (warmer, cold):
        for (a, pa), (b, pb) in zip(warm, got):
            assert pa == pb
            # repr spells each float in full, so equal reprs are equal bits
            assert repr(a) == repr(b)


@pytest.mark.parametrize(
    "n,mi,r_max",
    [(1, [10], 1e20), (1, [1], 1e150), (0, [], 1e150), (1, [1], 1e200), (1, [200], 50.0)],
)
def test_min_p_rejects_a_grid_past_float_range(n, mi, r_max):
    grid = RadialGrid(r_max=r_max)
    named = re.escape(f"r_max={r_max:g}]")
    with pytest.raises(ValueError, match=named):
        min_p(n, 0.0, mi, grid=grid)
    with pytest.raises(ValueError, match=named):
        grid_positive(n, 0.0, mi, 50, grid=grid)


@pytest.mark.parametrize(
    "n,c,mi,direction",
    [(1, 1.0, [1], "radial"), (2, 0.5, ["1/4", "3/2"], "radial"), (1, 2.0, ["1/4"], "y0")],
)
def test_min_p_margin_direction_names_the_binding_row(n, c, mi, direction):
    res = min_p(n, c, mi)
    assert res.margin_direction == direction
    grid = RadialGrid()
    rs = grid.values()
    base2, slope = positivity._grid_diagonals(n, c, [Fraction(m) for m in mi], grid)
    names = ["radial", "sphere"] + [f"y{i}" for i in range(n)]
    row = positivity._margins(base2, slope, res.p_star)[names.index(direction)]
    assert row[int(np.flatnonzero(rs == res.margin_r)[0])] == res.margin == row.min()


def test_min_p_without_p_star_has_no_direction():
    res = min_p(1, 0.0, [0])
    assert res.p_star is None
    assert res.margin is res.margin_r is res.margin_direction is None
