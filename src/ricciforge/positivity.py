"""Minimal sphere dimension making the warped Ricci tensor positive.

With the reference profiles f = r (1+r^2)^(-1/4) and h = (1+r^2)^(-1),
and per-direction exponents m_i > 0 (h_i = h^(m_i)), every diagonal of
the warped Ricci tensor under the worst-case base assumption
(diagonal base Ricci bounded below by -c h^2, off-diagonals bounded by
c h^2 in magnitude) satisfies a bound of the form

    Ric_diag >= h^2 ( r^2 (p K - L) + p R - S )

with K, R > 0, so positivity for all radii holds once p clears the
coefficient ratios. Two independent routes are provided and cross
checked: a grid sweep of the exact closed forms (min_p) and the closed
form threshold from the derived coefficients (k_bound).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import exprs
from .exprs import Expr
from .warped import diagonal_blocks

__all__ = [
    "reference_profiles",
    "DirectionCoefficients",
    "PositivityCoefficients",
    "derive_coefficients",
    "RadialGrid",
    "MinPResult",
    "min_p",
    "k_bound",
    "grid_positive",
    "profile_gap",
    "P_SEARCH_CAP",
]

P_SEARCH_CAP = 10**6

_F_TEXT = "r*(1+r^2)^(-1/4)"
_H_TEXT = "(1+r^2)^(-1)"


def reference_profiles() -> tuple[Expr, Expr]:
    """The profile pair (f, h) used by the positivity construction:
    f(r) = r (1+r^2)^(-1/4) and h(r) = (1+r^2)^(-1)."""
    return exprs.parse(_F_TEXT), exprs.parse(_H_TEXT)


@dataclass(frozen=True)
class DirectionCoefficients:
    """One direction's bound Ric >= h^2 (r^2 (pK - L) + pR - S)."""

    K: float
    L: float
    R: float
    S: float


@dataclass(frozen=True)
class PositivityCoefficients:
    """Per-direction coefficient quadruples, keyed 'r', 'u', 'y0'.. 'y(n-1)'."""

    directions: dict


def derive_coefficients(n: int, c: float, mi: Sequence) -> PositivityCoefficients:
    """Coefficient quadruples for the reference profiles with exponents mi.

    Substituting h_i = h^(m_i) and the closed-form identities

        f''/f              = -h^2 (3/2 + r^2/4)
        f' h_i' / (f h_i)  = -m_i h^2 (2 + r^2)
        h_i''/h_i          =  h^2 (2 m_i (r^2 - 1) + 4 m_i^2 r^2)
        (h_i'/h_i)(h_k'/h_k) = 4 m_i m_k r^2 h^2

    into the diagonal Ricci formulas, with the worst-case base value
    -c h^2 on the E-block diagonal and the auxiliary profile inequality
    f^(-2)(1 - f'^2) >= h^2 (3/2 + r^2) for the sphere block, gives

        radial:  K = 1/4, L = 1/4 + sum(2 m_i + 4 m_i^2),
                 R = 3/2, S = 3/2 - 2 sum(m_i)        (exact equality)
        sphere:  K = 1,   L = 7/4 - sum(m_i),
                 R = 3/2, S = 3/2 - 2 sum(m_i)        (inequality)
        Y_i:     K = m_i, L = 3 m_i + 4 m_i sum(m_k, k != i) + 4 m_i^2,
                 R = 2 m_i, S = c                     (exact equality)

    Every direction needs K, R > 0, which forces every m_i > 0.
    """
    mi = [float(m) for m in mi]
    if len(mi) != n:
        raise ValueError(f"expected {n} exponents, got {len(mi)}")
    if any(m <= 0.0 for m in mi):
        raise ValueError("all direction exponents m_i must be positive")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    s1 = sum(mi)
    directions = {
        "r": DirectionCoefficients(
            K=0.25,
            L=0.25 + sum(2.0 * m + 4.0 * m * m for m in mi),
            R=1.5,
            S=1.5 - 2.0 * s1,
        ),
        "u": DirectionCoefficients(K=1.0, L=1.75 - s1, R=1.5, S=1.5 - 2.0 * s1),
    }
    for i, m in enumerate(mi):
        directions[f"y{i}"] = DirectionCoefficients(
            K=m,
            L=3.0 * m + 4.0 * m * (s1 - m) + 4.0 * m * m,
            R=2.0 * m,
            S=float(c),
        )
    return PositivityCoefficients(directions=directions)


def k_bound(n: int, c: float, m, m_lower=None) -> float:
    """Closed-form sufficient threshold: every p > k_bound(n, c, m) makes
    the worst-case warped Ricci positive definite for all radii.

    Computed from the derived coefficients with all exponents equal to m,
    taking max(L/K, S/R) over directions, with the E-block S raised by
    the Gershgorin absorption (n-1) c of the off-diagonal bound. The
    division by the direction exponent in the S/R ratio uses m_lower when
    the certificate only guarantees exponents down to some smaller value.
    Monotone nondecreasing in n, c and m.
    """
    m = float(m)
    if m <= 0.0:
        raise ValueError("m must be positive")
    lower = m if m_lower is None else float(m_lower)
    if lower <= 0.0 or lower > m:
        raise ValueError("m_lower must lie in (0, m]")
    coeffs = derive_coefficients(n, c, [m] * n)
    worst = max(cf.L / cf.K for cf in coeffs.directions.values())
    worst = max(worst, coeffs.directions["r"].S / coeffs.directions["r"].R)
    worst = max(worst, coeffs.directions["u"].S / coeffs.directions["u"].R)
    if n:
        worst = max(worst, (c + (n - 1) * c) / (2.0 * lower))
    return worst


GRID_LOG_MIN = 1e-4  # innermost radius of the log-spaced half of a RadialGrid


@dataclass(frozen=True)
class RadialGrid:
    """Sweep grid on (0, r_max]: half the points log spaced near the axis,
    half uniform out to r_max. Sign changes hide at both ends, so both are
    resolved."""

    r_max: float = 50.0
    points: int = 1500

    def __post_init__(self):
        if self.r_max < 50.0:
            raise ValueError("r_max must be at least 50")
        if self.points < 1000:
            raise ValueError("need at least 1000 grid points")

    def values(self) -> np.ndarray:
        half = self.points // 2
        low = np.geomspace(GRID_LOG_MIN, 1.0, half)
        high = np.linspace(1.0, self.r_max, self.points - half + 1)[1:]
        return np.concatenate([low, high])


@dataclass(frozen=True)
class MinPResult:
    """At p_star: the smallest raw worst-case diagonal margin on the grid,
    its radius, and its direction ("radial", "sphere" or "y<i>"); else
    None. The raw margin decays like h^2 r^2, so margin_r is usually the
    grid's end r_max, not the radius where positivity is tightest."""

    p_star: Optional[int]
    margin: Optional[float]
    margin_r: Optional[float]
    margin_direction: Optional[str]
    reason: str
    n: int
    c: float
    mi: tuple
    r_max: float
    grid_points: int


# Bound on each grid-row cache below, in entries. On the default 1500-point
# grid a reference entry holds 60 kB and an exponent entry 36 kB.
_GRID_CACHE_ENTRIES = 32


def _checked_rows(grid: RadialGrid, rs: np.ndarray, trees, positive) -> tuple:
    """The trees' rows on the grid radii rs, read-only, since every cache
    hit hands out the same arrays.

    For r > 0 the rows are finite and the arrays positive(*rows) derives
    from them are positive, so a row or array that breaks this has left
    float range. That is one ValueError naming r_max, not numpy warnings
    and a verdict.
    """
    with np.errstate(all="ignore"):
        try:
            rows = tuple(exprs.evaluate_grid(t, rs) for t in trees)
        except exprs.DomainError:
            rows = None
        ok = rows is not None and all(np.all(np.isfinite(x) & (x > 0.0)) for x in positive(*rows))
    if not ok:
        raise ValueError(
            f"the sweep grid leaves floating-point range on (0, r_max={grid.r_max:g}]: "
            "profile values underflow or overflow there, so the grid cannot decide positivity"
        )
    for row in rows:
        row.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=_GRID_CACHE_ENTRIES)
def _reference_rows(grid: RadialGrid) -> tuple:
    """The grid's radii rs and the rows of h, f, f' and f'', read-only.
    For r > 0 the radial p-slope -f''/f and the sphere p-slope
    (1 - f'^2)/f^2 are positive."""
    f, h = reference_profiles()
    fp = exprs.diff(f, 1)
    rs = grid.values()
    rs.setflags(write=False)

    def positive(hv, fv, fpv, fppv):
        return -fppv / fv, (1.0 - fpv**2) / fv**2

    return (rs, *_checked_rows(grid, rs, (h, f, fp, exprs.diff(fp, 1)), positive))


@functools.lru_cache(maxsize=_GRID_CACHE_ENTRIES)
def _exponent_rows(grid: RadialGrid, m) -> tuple:
    """The grid rows of h^m, (h^m)' and (h^m)'', read-only. h^m is
    positive, and for m > 0 so is the E-direction p-slope
    -f' (h^m)' / (f h^m)."""
    rs, _, fv, fp, _ = _reference_rows(grid)
    e = exprs.pow_(exprs.parse(_H_TEXT), m)
    d1 = exprs.diff(e, 1)

    def positive(hv, hp, hpp):
        return (hv, -(fp * hp) / (fv * hv)) if m > 0 else (hv,)

    return _checked_rows(grid, rs, (e, d1, exprs.diff(d1, 1)), positive)


def _grid_diagonals(n: int, c: float, mi, grid: RadialGrid):
    """Affine-in-p representation of the worst-case diagonal margins.

    Returns (base2, slope) arrays of shape (n+2, G): row 0 the radial
    direction, row 1 the sphere direction, rows 2.. the E directions with
    the worst-case base term and the Gershgorin absorption already
    subtracted. Entry value at p is base2 + (p-2) * slope, exact because
    each diagonal formula is affine in p. mi holds exact rationals.
    """
    rs, hv_scalar, fv, fp, fpp = _reference_rows(grid)
    rows = [_exponent_rows(grid, m) for m in mi]
    hv, hp, hpp = (np.array([row[k] for row in rows]).reshape(-1, rs.size) for k in range(3))
    h2 = hv_scalar**2
    slack = (n - 1) * c * h2 if n else 0.0

    def stack_at(p: int) -> np.ndarray:
        rr, uu, yy_corr = diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp)
        yy = yy_corr - c * h2 - slack if n else np.zeros((0, rs.size))
        return np.vstack([rr[None, :], uu[None, :], yy])

    at2 = stack_at(2)
    at3 = stack_at(3)
    return at2, at3 - at2


def _margins(base2: np.ndarray, slope: np.ndarray, p: int) -> np.ndarray:
    return base2 + (p - 2) * slope


def _checked_exponents(n: int, c: float, mi: Sequence) -> tuple:
    """min_p's and grid_positive's rule: n exponents, each a nonnegative exact rational; c >= 0."""
    if n < 0 or len(mi) != n:
        raise ValueError("mi must have length n")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    mi = tuple(exprs.frac(m) for m in mi)
    if any(m < 0 for m in mi):
        raise ValueError("exponents must be nonnegative")
    return mi


def _positive(base2: np.ndarray, slope: np.ndarray, p: int) -> bool:
    """The search predicate: every worst-case diagonal margin is positive."""
    return bool(np.all(_margins(base2, slope, p) > 0.0))


def min_p(n: int, c: float, mi: Sequence, grid: Optional[RadialGrid] = None) -> MinPResult:
    """Smallest integer p >= 2 with the worst-case Ricci positive definite
    at every grid radius.

    The worst case over the certificate class replaces the base Ricci by
    -c h^2 on the diagonal and absorbs off-diagonal entries of magnitude
    up to c h^2 by the Gershgorin row sum (n-1) c h^2; positivity of the
    remaining diagonal margins is then exactly the positive-definiteness
    test. The margins are affine in p with nonnegative slope on the grid,
    so the predicate is monotone and an exponential-then-binary search
    applies. Returns p_star None when no p up to 10^6 works, which is
    forced whenever some m_i = 0 and c = 0 (that E-diagonal is then
    identically zero). Raises ValueError when the profile values leave
    float range on the grid, where the sweep could give no verdict.
    """
    if grid is None:
        grid = RadialGrid()
    mi = _checked_exponents(n, c, mi)
    base2, slope = _grid_diagonals(n, float(c), mi, grid)
    names = ["radial", "sphere"] + [f"y{i}" for i in range(n)]

    def result(reason, p_star=None, margin=None, margin_r=None, direction=None) -> MinPResult:
        return MinPResult(
            p_star=p_star,
            margin=margin,
            margin_r=margin_r,
            margin_direction=direction,
            reason=reason,
            n=n,
            c=float(c),
            mi=tuple(float(m) for m in mi),
            r_max=grid.r_max,
            grid_points=grid.points,
        )

    # Rows whose slope never helps and whose value is already nonpositive
    # somewhere can never pass; detect to avoid a futile search.
    hopeless = np.any((slope <= 0.0) & (base2 <= 0.0), axis=1)
    if np.any(hopeless):
        which = int(np.argmax(hopeless))
        return result(
            f"direction {names[which]} has a nonpositive diagonal bound with "
            "nonpositive p-slope at some radius; no p can make it positive"
        )

    hi = 2
    while not _positive(base2, slope, hi):
        hi *= 2
        if hi > P_SEARCH_CAP:
            return result(f"no p up to {P_SEARCH_CAP} satisfies the grid sweep")
    lo = max(2, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if _positive(base2, slope, mid):
            hi = mid
        else:
            lo = mid + 1
    marg = _margins(base2, slope, lo)
    rs = _reference_rows(grid)[0]
    row, col = divmod(int(np.argmin(marg)), rs.size)
    return result("ok", int(lo), float(marg.min()), float(rs[col]), names[row])


def grid_positive(
    n: int, c: float, mi: Sequence, p: int, grid: Optional[RadialGrid] = None
) -> bool:
    """Whether the worst-case diagonal margins are positive at every grid
    radius for this p; the same predicate min_p searches over."""
    if grid is None:
        grid = RadialGrid()
    mi = _checked_exponents(n, c, mi)
    return _positive(*_grid_diagonals(n, float(c), mi, grid), p)


# --- auxiliary profile inequality ------------------------------------------


def profile_gap(r) -> np.ndarray:
    """f^(-2)(1 - f'^2) - h^2 (3/2 + r^2) for the reference profiles.

    Positive for every r > 0. With u = r^2 the gap equals
    phi(u) / (u (1+u)^2) where phi(u) = (1+u)^(5/2) - 1 - 5u/2 - 5u^2/4;
    for small u the direct form loses everything to cancellation
    (the true margin is O(u^2) while 1 - f'^2 is computed near 1), so
    below u = 1e-4 the gap is evaluated through expm1/log1p, which keeps
    three significant digits even at r = 1e-6.
    """
    r = np.asarray(r, dtype=float)
    u = r * r
    out = np.empty_like(u)
    small = u < 1e-4
    us = u[small]
    phi = np.expm1(2.5 * np.log1p(us)) - 2.5 * us - 1.25 * us**2
    out[small] = phi / (us * (1.0 + us) ** 2)
    ub = u[~small]
    one_plus = 1.0 + ub
    fp2 = (1.0 + 0.5 * ub) ** 2 / one_plus**2.5
    lhs = (1.0 - fp2) * one_plus**0.5 / ub
    rhs = (1.5 + ub) / one_plus**2
    out[~small] = lhs - rhs
    return out
