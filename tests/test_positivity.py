import itertools
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from ricciforge import exprs, positivity
from ricciforge.positivity import (
    k_bound,
    min_p,
    p_bound,
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


def _scaled_rows(c, mi):
    """The module's integer rows at c and exponents mi, and their unit u:
    at half = D, the least common denominator, c and mi enter as integers
    times u = 2 D and each row is u^2 times the true one."""
    c, mi = Fraction(c), [Fraction(m) for m in mi]
    half = math.lcm(c.denominator, *(m.denominator for m in mi))
    u = 2 * half
    return u, positivity._quadruples(int(c * u), [int(m * u) for m in mi], half)


def _rows(c, mi):
    """The true quadruples at c and exponents mi, read off the integer rows."""
    u, rows = _scaled_rows(c, mi)
    return {
        name: positivity.DirectionCoefficients(*(Fraction(v, u * u) for v in (cf.K, cf.L, cf.R, cf.S)))
        for name, cf in rows.items()
    }


def _y(rows, mi, i):
    """Direction i's row: _quadruples keys each distinct exponent's row
    by the first index holding it."""
    mi = [Fraction(m) for m in mi]
    return rows[f"y{mi.index(mi[i])}"]


def test_coefficients_positive_and_validated():
    coeffs = _rows(1, [1, 1])
    for cf in coeffs.values():
        assert cf.K > 0 and cf.R > 0
    assert set(coeffs) == {"r", "u", "y0"}
    assert set(_rows(1, [1, 2])) == {"r", "u", "y0", "y1"}
    for i in (0, 1):
        assert _y(coeffs, [1, 1], i) == positivity.DirectionCoefficients(K=1, L=11, R=2, S=1)


def test_equal_exponents_share_one_y_row():
    mi = [1, "3/4", 1]
    _, rows = _scaled_rows("1/2", mi)
    assert list(rows) == ["r", "u", "y0", "y1"]
    assert _y(rows, mi, 2) is rows["y0"] and rows["y1"] != rows["y0"]
    # at unit 1 each direction's row is the true one
    true = _rows("1/2", mi)
    want = _ref_quadruples(Fraction(1, 2), [Fraction(m) for m in mi])
    assert [_y(true, mi, i) for i in range(3)] == [want[f"y{i}"] for i in range(3)]


def test_min_p_decides_each_distinct_row_once(monkeypatch):
    # a uniform profile of any length has one radial and one y row
    calls = []
    least_p = positivity._least_p
    monkeypatch.setattr(positivity, "_least_p", lambda cf: calls.append(cf) or least_p(cf))
    res = min_p(1000, 0.5, ["3/4"] * 1000)
    assert len(calls) == 2 and res.binding in ("radial", "y0")
    assert list(positivity._box_rows(10**5, 1, 3, 2, 1)) == ["r", "u", "y0", "y-lower"]


def test_coefficients_reject_degenerate_exponents():
    # a zero exponent leaves its y row K = R = 0: no p works
    for c in (0, 1):
        assert _rows(c, [0])["y0"].K == _rows(c, [0])["y0"].R == 0
        assert positivity._least_p(_scaled_rows(c, [0])[1]["y0"]) is None
    for n, c, m, m_lower in [(1, 0, 0, 0), (1, 0, 1, 0), (1, 0, 1, 2), (1, -1, 1, 1), (-1, 0, 1, 1)]:
        with pytest.raises(ValueError):
            p_bound(n, c, Fraction(m), Fraction(m_lower))
        with pytest.raises(ValueError):
            k_bound(n, c, m, m_lower)


def test_c_enters_only_the_offset_terms():
    base = _rows(1, [1, 1])
    double = _rows(2, [1, 1])
    for name in base:
        assert double[name].K == base[name].K
        assert double[name].R == base[name].R
        assert double[name].L == base[name].L
    assert double["y0"].S == 2 * base["y0"].S


def test_sphere_direction_dominates_early():
    # for c = 0 and unit exponents, the sphere direction is positive for
    # every admissible p
    for n in (0, 1, 2, 3, 5):
        coeffs = _rows(0, [1] * n)
        cf = coeffs["u"]
        for p in (2, 3, 10):
            assert p * cf.K - cf.L >= 0.0
            assert p * cf.R - cf.S > 0.0


def _exact_margins(n, c, mi, rs, p):
    """The worst-case diagonal margins min_p decides on, through
    diagonal_blocks: the E rows carry the base term -c h^2 and the
    Gershgorin absorption -(n-1) c h^2."""
    f, h = reference_profiles()
    fv = exprs.evaluate_grid(f, rs)
    fp = exprs.evaluate_grid(exprs.diff(f, 1), rs)
    fpp = exprs.evaluate_grid(exprs.diff(f, 2), rs)
    hs = [exprs.pow_(h, m) for m in mi]
    hv, hp, hpp = (
        [exprs.evaluate_grid(exprs.diff(e, k) if k else e, rs) for e in hs] for k in range(3)
    )
    rr, uu, yy = diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp)
    h2 = exprs.evaluate_grid(h, rs) ** 2
    return rr, uu, np.reshape(yy, (len(mi), rs.size)) - n * c * h2


def _all_positive(n, c, mi, rs, p):
    rr, uu, yy = _exact_margins(n, c, mi, rs, p)
    return bool(np.all(rr > 0) and np.all(uu > 0) and np.all(yy > 0))


def test_bound_soundness_sampled():
    # the exact diagonal values stay above the coefficient bounds at ten
    # thousand sampled (r, p) pairs
    rng = np.random.default_rng(11)
    n, c, mi = 2, 1.0, [1, 1]
    coeffs = _rows(c, mi)
    f, h = reference_profiles()
    for _ in range(25):
        rs = np.sort(rng.uniform(1e-3, 60.0, size=400))
        p = int(rng.integers(2, 1000))
        rr, uu, yy = _exact_margins(n, c, mi, rs, p)
        h2 = exprs.evaluate_grid(h, rs) ** 2
        yy = yy + (n - 1) * c * h2  # the bound's S = c leaves out the Gershgorin term

        def bound(cf):
            return h2 * (rs**2 * float(p * cf.K - cf.L) + float(p * cf.R - cf.S))

        assert np.all(rr >= bound(coeffs["r"]) - 1e-12)
        assert np.all(uu >= bound(coeffs["u"]) - 1e-12)
        for i in range(n):
            assert np.all(yy[i] >= bound(_y(coeffs, mi, i)) - 1e-12)


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


def _decimal_gap(r: float) -> Decimal:
    """f^(-2)(1 - f'^2) - h^2 (3/2 + r^2) in 60-digit decimals, from the
    unfactored form f'^2 = (1 + u/2)^2 / (1 + u)^(5/2), f^2 = u (1 + u)^(-1/2)."""
    with localcontext() as ctx:
        ctx.prec = 60
        u = Decimal(r) ** 2
        root = (1 + u).sqrt()
        fp2 = (1 + u / 2) ** 2 / ((1 + u) ** 2 * root)
        return (1 - fp2) * root / u - (Decimal(3) / 2 + u) / (1 + u) ** 2


def test_profile_gap_matches_decimal_reference():
    rs = np.geomspace(1e-6, 1e3, 100)
    got = profile_gap(rs)
    for r, value in zip(rs, got):
        want = _decimal_gap(float(r))
        assert abs(Decimal(float(value)) - want) <= Decimal("1e-14") * want, r


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [0.0, 1.0])
def test_min_p_reference_cases(n, c):
    res = min_p(n, c, [1] * n)
    assert res.p_star == EXPECTED_PSTAR[n]
    assert res.reason == "ok"
    rs = np.geomspace(1e-3, 1e3, 2000)
    assert _all_positive(n, c, [1] * n, rs, res.p_star)
    assert not _all_positive(n, c, [1] * n, rs, res.p_star - 1)
    assert res.p_star <= k_bound(n, c, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_min_p_stable_under_longer_grid(n):
    # no radius cut-off: the margins at p_star stay positive far past the
    # 50 or 500 where a sampled sweep would stop
    res = min_p(n, 1.0, [1] * n)
    assert _all_positive(n, 1.0, [1] * n, np.geomspace(1e-3, 1e6, 3000), res.p_star)


def test_min_p_monotone_in_p():
    res = min_p(2, 0.0, [1, 1])
    rs = np.geomspace(1e-3, 1e3, 2000)
    for extra in (1, 5, 100):
        assert _all_positive(2, 0.0, [1, 1], rs, res.p_star + extra)


def test_min_p_zero_exponent_returns_none():
    res = min_p(1, 0.0, [0])
    assert res.p_star is None
    assert "y0" in res.reason


def test_min_p_mixed_exponents():
    mi = [1, Fraction(1, 2)]
    res = min_p(2, 0.5, mi)
    assert res.p_star is not None
    assert _all_positive(2, 0.5, mi, np.geomspace(1e-3, 1e3, 2000), res.p_star)


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
def test_min_p_rejects_bad_inputs(n, c, mi):
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
    # ten thousand radii pass one step above the threshold
    k = k_bound(1, 0.0, 1.0)
    rs = np.concatenate([np.geomspace(1e-4, 1.0, 5000), np.linspace(1.0, 1e3, 5001)[1:]])
    assert _all_positive(1, 0.0, [1], rs, int(np.ceil(k)) + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p_star_within_one_of_threshold(n):
    res = min_p(n, 0.0, [1] * n)
    assert res.p_star <= int(np.ceil(k_bound(n, 0.0, 1.0))) + 1


@pytest.mark.parametrize(
    "n,c,mi,p_star",
    [
        (1, 0.0, [5], 441),
        (1, 0.0, [10], 1681),
        (3, 0.5, ["1/2", "3/4", "1"], 48),
        (1, 2.0, ["1/4"], 5),
        (1, 0.0, [1], 25),
        (0, 0.0, [], 2),
        (1, 0.0, [200], 641601),
        (1, 0.0, [0], None),
        (2, 0.5, [0, 1], None),
    ],
)
def test_min_p_exact_answers(n, c, mi, p_star):
    assert min_p(n, c, mi).p_star == p_star


@pytest.mark.parametrize("r", [10**150, 10**200], ids=["1e+150", "1e+200"])
def test_min_p_answer_holds_past_float_range(r):
    # at radii whose t^2 = 1 + r^2 overflows a float, the rows a + b t^2
    # (h^2 > 0 dropped) are positive at p_star, and the radial row, whose
    # b = pK - L is 0 there, is negative one step lower
    p_star = min_p(1, 0.0, [1]).p_star
    rows = _rows(0, [1])
    t2 = Fraction(1 + r * r)

    def margin(cf, p):
        b = p * cf.K - cf.L
        return p * cf.R - cf.S - b + b * t2

    assert all(margin(rows[name], p_star) > 0 for name in ("r", "y0"))
    assert margin(rows["r"], p_star - 1) < 0


def _polynomial_margins(n, c, mi, rs, p):
    """min_p's rows h^2 (a + b t^2), b = pK - L and a + b = pR - S, and the
    sphere polynomial of its docstring, in floats at the radii rs."""
    rows = _rows(Fraction(c) * n, mi)
    t2 = 1.0 + rs**2
    t = np.sqrt(t2)
    h2 = 1.0 / t2**2

    def row(cf):
        b = p * cf.K - cf.L
        return h2 * (float(p * cf.R - cf.S - b) + float(b) * t2)

    s = float(sum(Fraction(m) for m in mi))
    sphere = ((p + 3 + 4 * s) * (1 + t) + (3 * p - 5 + 4 * s) * (t2 + t2 * t) + (4 * p - 8) * t2**2)
    sphere = h2 * sphere / (4 * (1 + t))
    yy = np.array([row(_y(rows, mi, i)) for i in range(n)]).reshape(n, rs.size)
    return row(rows["r"]), sphere, yy


def test_margin_polynomials_match_diagonal_blocks():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(0, 3)
        c = rng.choice([0.0, 0.5, 1.0, 2.0])
        mi = [Fraction(rng.randint(1, 12), rng.randint(1, 8)) for _ in range(n)]
        p = rng.randint(2, 500)
        # nearer the axis, 1 - f'^2 in the float blocks loses digits
        rs = np.array([10 ** rng.uniform(-1, 2) for _ in range(5)])
        want = _exact_margins(n, c, mi, rs, p)
        got = _polynomial_margins(n, c, mi, rs, p)
        # relative 1e-12 of the margin, or of its p term (about p h^2 t^2)
        # where the margin is a small difference of large terms
        for w, g in zip(want, got):
            assert np.allclose(g, w, rtol=1e-12, atol=1e-12 * p / (1.0 + rs**2)), (n, c, mi, p)


def test_sphere_row_never_binds():
    # every coefficient of the sphere polynomial is nonnegative for p >= 2
    # and s >= 0, and the t^0 and t^1 ones are positive; at p = 2, where all
    # are smallest, the sphere margins are positive on dense radii
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(0, 3)
        mi = [Fraction(rng.randint(0, 12), rng.randint(1, 8)) for _ in range(n)]
        s = sum(mi)
        for p in (2, 3, 10):
            assert p + 3 + 4 * s > 0 and 3 * p - 5 + 4 * s > 0 and 4 * p - 8 >= 0
        if all(m > 0 for m in mi):
            _, uu, _ = _exact_margins(n, 0.0, mi, np.geomspace(1e-3, 1e3, 500), 2)
            assert np.all(uu > 0)


def test_p_star_within_k_bound_on_random_specs():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 3)
        c = rng.choice([0.0, 0.5, 1.0, 2.0, 7 / 3])
        mi = [Fraction(rng.randint(1, 12), rng.randint(1, 8)) for _ in range(n)]
        kb = k_bound(n, c, float(max(mi)), m_lower=float(min(mi)))
        p_star = min_p(n, c, mi).p_star
        assert 2 <= p_star <= math.floor(kb) + 1, (n, c, mi)


@pytest.mark.parametrize(
    "n,c,m,m_lower,want",
    [
        (1, 0.0, 1, 1, 25),
        (2, 1.0, 1, "1/2", 49),
        (3, 0.5, "3/2", "1/4", 145),
        (0, 0.0, 1, 1, 2),
        (1, 1.0, "1/4", "1/8", 4),
    ],
)
def test_p_bound_exact_values(n, c, m, m_lower, want):
    # floor(k_bound) + 1 is one higher on the first three; on the last,
    # the y row's L/K = 4 (at m) and S/R = 4 (at m_lower) tie at
    # different profiles, and min_p is 4 at both
    assert p_bound(n, c, Fraction(m), Fraction(m_lower)) == want


def test_p_bound_between_the_box_grid_and_k_bound():
    # p_bound is the least p over every exponent profile of the box, and
    # each row's worst case sits on the 3^n grid {m_lower, midpoint, m}, so
    # it equals the largest min_p there; it never exceeds the float
    # ratio's floor(k_bound) + 1
    rng = random.Random(400)
    for _ in range(400):
        n = rng.randint(0, 3)
        c = rng.choice([0.0, 0.25, 0.5, 1.0, 7 / 3, rng.uniform(0, 20)])
        m = Fraction(rng.randint(1, 12), rng.randint(1, 8))
        m_lower = m * Fraction(rng.randint(1, 8), 8)
        levels = (m_lower, (m_lower + m) / 2, m)
        grid = [min_p(n, c, mi).p_star for mi in itertools.product(levels, repeat=n)]
        pb = p_bound(n, c, m, m_lower)
        assert max(grid) == pb <= math.floor(k_bound(n, c, m, m_lower)) + 1, (n, c, m, m_lower)


@pytest.mark.parametrize(
    "n,c,mi,direction",
    [(1, 1.0, [1], "radial"), (2, 0.5, ["1/4", "3/2"], "radial"), (1, 2.0, ["1/4"], "y0")],
)
def test_min_p_margin_direction_names_the_binding_row(n, c, mi, direction):
    res = min_p(n, c, mi)
    assert res.binding == direction
    assert res.pk_minus_l >= 0 and res.pr_minus_s >= 0
    # one step lower, the binding row alone turns negative somewhere
    names = ["radial", "sphere"] + [f"y{i}" for i in range(n)]
    rs = np.geomspace(1e-3, 1e3, 2000)
    rr, uu, yy = _exact_margins(n, c, [Fraction(m) for m in mi], rs, res.p_star - 1)
    failing = [name for name, row in zip(names, [rr, uu, *yy]) if np.any(row <= 0)]
    assert failing == [direction]


def test_min_p_without_p_star_has_no_direction():
    res = min_p(1, 0.0, [0])
    assert res.p_star is None
    assert res.binding is res.pk_minus_l is res.pr_minus_s is None
    assert res.grid_points == 0


# --- the Fraction reference --------------------------------------------------
# The rows and the least-p rule stated in Fraction arithmetic, as positivity
# decided them before it moved to integers over a common denominator. The
# integer path must agree with them exactly, and k_bound, which reads the
# same formulas in floats, bit for bit.


def _ref_quadruples(c, mi) -> dict:
    s1 = sum(mi)
    directions = {
        "r": positivity.DirectionCoefficients(
            K=Fraction(1, 4),
            L=Fraction(1, 4) + sum(2 * m + 4 * m * m for m in mi),
            R=Fraction(3, 2),
            S=Fraction(3, 2) - 2 * s1,
        ),
        "u": positivity.DirectionCoefficients(
            K=Fraction(1), L=Fraction(7, 4) - s1, R=Fraction(3, 2), S=Fraction(3, 2) - 2 * s1
        ),
    }
    directions.update((f"y{i}", _ref_y_row(c, m, s1)) for i, m in enumerate(mi))
    return directions


def _ref_y_row(c, m, s1):
    return positivity.DirectionCoefficients(K=m, L=3 * m + 4 * m * (s1 - m) + 4 * m * m, R=2 * m, S=c)


def _ref_box_rows(n, c, m, m_lower) -> dict:
    r, u, *ys = _ref_quadruples(c + (n - 1) * c, [m] * n).values()
    rows = {"r": r, "u": u}
    if ys:
        rows["y"] = ys[0]
        rows["y-lower"] = _ref_y_row(ys[0].S, m_lower, sum([m_lower] + [m] * (n - 1)))
    return rows


def _ref_least_p(cf):
    p = 2
    for slope, offset in ((cf.K, cf.L), (cf.R, cf.S)):
        if slope > 0:
            p = max(p, math.ceil(offset / slope))
        elif offset > 0:
            return None
    if p * cf.K == cf.L and p * cf.R == cf.S:
        return p + 1 if cf.K or cf.R else None
    return p


def _ref_min_p(n, c, mi):
    mi = tuple(exprs.frac(m) for m in mi)
    rows = {
        "radial" if name == "r" else name: cf
        for name, cf in _ref_quadruples(Fraction(c) * n, mi).items()
        if name != "u"
    }
    least = {name: _ref_least_p(cf) for name, cf in rows.items()}
    common = dict(n=n, c=float(c), mi=mi)
    for name, cf in rows.items():
        if least[name] is None:
            reason = (
                f"direction {name} has (K, L, R, S) = ({cf.K}, {cf.L}, {cf.R}, {cf.S}); "
                "no p makes pK - L and pR - S both nonnegative and not both zero"
            )
            return positivity.MinPResult(None, None, None, None, reason, **common)
    name = max(least, key=least.get)
    p, cf = least[name], rows[name]
    return positivity.MinPResult(p, name, p * cf.K - cf.L, p * cf.R - cf.S, "ok", **common)


def _ref_p_bound(n, c, m, m_lower):
    rows = _ref_box_rows(n, Fraction(c), exprs.frac(m), exprs.frac(m_lower))
    return max(_ref_least_p(cf) for name, cf in rows.items() if name != "u")


def _ref_k_bound(n, c, m, m_lower):
    rows = _ref_box_rows(n, float(c), float(m), float(m_lower))
    return float(max(max(cf.L / cf.K, cf.S / cf.R) for cf in rows.values()))


_EXTREME_CS = (0.0, 0.25, 1 / 3, 5e-324, 1e308)


def _draw_exponent(rng):
    """An exact exponent: sometimes 0, sometimes with a large prime
    denominator coprime to the others, mostly a small rational."""
    kind = rng.random()
    if kind < 0.1:
        return Fraction(0)
    if kind < 0.35:
        return Fraction(rng.randint(1, 400), rng.choice([97, 1009, 65537, 999983, 2**31 - 1]))
    return Fraction(rng.randint(1, 12), rng.randint(1, 8))


def test_integer_rows_are_the_true_rows_scaled():
    # at any common denominator D as half, the rows are integers, u^2 times
    # the Fraction reference's rows with u = 2 D
    rng = random.Random(28)
    for _ in range(100):
        n = rng.randint(0, 6)
        c = Fraction(rng.randint(0, 20), rng.randint(1, 9))
        mi = [_draw_exponent(rng) for _ in range(n)]
        lcm = math.lcm(c.denominator, *(m.denominator for m in mi))
        want = _ref_quadruples(c, mi)
        for half in (lcm, 3 * lcm):
            u = 2 * half
            rows = positivity._quadruples(int(c * u), [int(m * u) for m in mi], half)
            assert list(rows) == ["r", "u"] + [f"y{i}" for i, m in enumerate(mi) if mi.index(m) == i]
            directions = [("r", rows["r"]), ("u", rows["u"])] + [(f"y{i}", _y(rows, mi, i)) for i in range(n)]
            for name, cf in directions:
                values = (cf.K, cf.L, cf.R, cf.S)
                assert all(type(v) is int for v in values)
                assert values == tuple(u * u * v for v in (want[name].K, want[name].L, want[name].R, want[name].S))


def test_min_p_equals_the_fraction_reference():
    # every MinPResult field, the reason text and the binding tie order too
    rng = random.Random(2800)
    bindings, ties = set(), 0
    for i in range(420):
        n = i % 7
        c = _EXTREME_CS[i % len(_EXTREME_CS)]
        mi = [_draw_exponent(rng) for _ in range(n)]
        got, want = min_p(n, c, mi), _ref_min_p(n, c, mi)
        assert got == want, (n, c, mi)
        assert type(got.pk_minus_l) is type(want.pk_minus_l)
        bindings.add(got.binding)
        rows = _ref_quadruples(Fraction(c) * n, [Fraction(m) for m in mi])
        least = [_ref_least_p(cf) for name, cf in rows.items() if name != "u"]
        ties += got.p_star is not None and least.count(got.p_star) > 1
    # the corpus reaches radial and y bindings, rows with no p, and ties
    assert {"radial", "y0", "y1", None} <= bindings and ties >= 5


def test_min_p_tie_binds_the_first_row():
    # at m = 1/4 the radial and y0 rows both need p = 4; radial comes first
    res = min_p(1, 0.0, ["1/4"])
    assert (res.p_star, res.binding) == (4, "radial")
    assert res == _ref_min_p(1, 0.0, ["1/4"])


def test_p_bound_equals_the_fraction_reference():
    rng = random.Random(2801)
    lower_binds = 0
    for i in range(300):
        n = i % 7
        c = _EXTREME_CS[i % len(_EXTREME_CS)]
        m = _draw_exponent(rng) or Fraction(1, 3)
        m_lower = m * Fraction(rng.randint(1, 8), rng.choice([8, 9, 65537]))
        got = p_bound(n, c, m, m_lower)
        assert got == _ref_p_bound(n, c, m, m_lower), (n, c, m, m_lower)
        rows = _ref_box_rows(n, Fraction(c), m, m_lower)
        least = {name: _ref_least_p(cf) for name, cf in rows.items() if name != "u"}
        lower_binds += n > 0 and least["y-lower"] > max(v for k, v in least.items() if k != "y-lower")
    assert lower_binds >= 20


_KBOUND_EXPONENTS = [Fraction(t) for t in ("1/4", "1/3", "1/2", "2/3", "3/4", "1", "5/4", "3/2")]


def test_k_bound_is_the_reference_float_formula_bit_for_bit():
    # n 0-5, four c, and every m >= m_lower of the certify exponents: 864
    # cases. k_bound reads the float rows; the correctly rounded ratio of
    # the exact rows differs from it in 32 of them, so it cannot be taken
    # from the integer rows.
    cases = moved = 0
    for n in range(6):
        for c in (0.0, 0.25, 0.5, 1.0):
            for m, m_lower in itertools.combinations_with_replacement(_KBOUND_EXPONENTS, 2):
                m, m_lower = float(max(m, m_lower)), float(min(m, m_lower))
                got = k_bound(n, c, m, m_lower)
                assert got.hex() == _ref_k_bound(n, c, m, m_lower).hex(), (n, c, m, m_lower)
                exact = _ref_box_rows(n, Fraction(c), Fraction(m), Fraction(m_lower))
                moved += float(max(max(cf.L / cf.K, cf.S / cf.R) for cf in exact.values())) != got
                cases += 1
    assert (cases, moved) == (864, 32)


def test_k_bound_is_bit_for_bit_at_float_extremes():
    for n in (0, 1, 3):
        for c in (0.0, 5e-324, 1e-300, 1.0, 1e308):
            for m in (1e-320, 1e-162, 1e100, 2e153, 6e153, 1e300, 1e308):
                assert k_bound(n, c, m).hex() == _ref_k_bound(n, c, m, m).hex(), (n, c, m)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("value", [_NAN, _INF, -_INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda x: k_bound(1, x, 1.0), "c"),
        (lambda x: k_bound(1, 0.25, x), "m"),
        (lambda x: k_bound(1, 0.25, 1.0, x), "m_lower"),
        (lambda x: p_bound(1, x, 1, 1), "c"),
        (lambda x: p_bound(1, 0.25, x, 1), "m"),
        (lambda x: p_bound(1, 0.25, 1, x), "m_lower"),
        (lambda x: min_p(1, x, [1]), "c"),
        (lambda x: min_p(2, 0.25, [1, x]), "mi[1]"),
    ],
    ids=["k_bound-c", "k_bound-m", "k_bound-m_lower", "p_bound-c", "p_bound-m", "p_bound-m_lower", "min_p-c", "min_p-mi"],
)
def test_non_finite_input_is_a_value_error_naming_it(call, name, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a finite number, got "):
        call(value)
