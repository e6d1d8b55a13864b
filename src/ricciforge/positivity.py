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


@dataclass(frozen=True)
class RadialGrid:
    """Sweep grid on (0, r_max]: half the points log spaced near the axis,
    half uniform out to r_max. Sign changes hide at both ends, so both are
    resolved."""

    r_max: float = 50.0
    points: int = 1500
    log_min: float = 1e-4

    def __post_init__(self):
        if self.r_max < 50.0:
            raise ValueError("r_max must be at least 50")
        if self.points < 1000:
            raise ValueError("need at least 1000 grid points")
        if not 0.0 < self.log_min < 1.0:
            raise ValueError("log_min must lie in (0, 1)")

    def values(self) -> np.ndarray:
        half = self.points // 2
        low = np.geomspace(self.log_min, 1.0, half)
        high = np.linspace(1.0, self.r_max, self.points - half + 1)[1:]
        return np.concatenate([low, high])


@dataclass(frozen=True)
class MinPResult:
    p_star: Optional[int]
    margin: Optional[float]
    margin_r: Optional[float]
    reason: str
    n: int
    c: float
    mi: tuple
    r_max: float
    grid_points: int


def _grid_diagonals(n: int, c: float, mi, grid: np.ndarray):
    """Affine-in-p representation of the worst-case diagonal margins.

    Returns (base2, slope) arrays of shape (n+2, G): row 0 the radial
    direction, row 1 the sphere direction, rows 2.. the E directions with
    the worst-case base term and the Gershgorin absorption already
    subtracted. Entry value at p is base2 + (p-2) * slope, exact because
    each diagonal formula is affine in p.
    """
    f, h = reference_profiles()
    hv_scalar = exprs.evaluate_grid(h, grid)
    fv = exprs.evaluate_grid(f, grid)
    fp = exprs.evaluate_grid(exprs.diff(f, 1), grid)
    fpp = exprs.evaluate_grid(exprs.diff(f, 2), grid)
    h_list = [exprs.pow_(h, exprs.frac(m)) for m in mi]

    def stacked(order: int) -> np.ndarray:
        if not h_list:
            return np.zeros((0, grid.size))
        trees = [exprs.diff(e, order) if order else e for e in h_list]
        return np.stack([exprs.evaluate_grid(e, grid) for e in trees])

    hv, hp, hpp = stacked(0), stacked(1), stacked(2)
    h2 = hv_scalar**2
    slack = (n - 1) * c * h2 if n else 0.0

    def stack_at(p: int) -> np.ndarray:
        rr, uu, yy_corr = diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp)
        yy = yy_corr - c * h2 - slack if n else np.zeros((0, grid.size))
        return np.vstack([rr[None, :], uu[None, :], yy])

    at2 = stack_at(2)
    at3 = stack_at(3)
    return at2, at3 - at2


def _margins(base2: np.ndarray, slope: np.ndarray, p: int) -> np.ndarray:
    return base2 + (p - 2) * slope


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
    identically zero).
    """
    if grid is None:
        grid = RadialGrid()
    if n < 0 or len(mi) != n:
        raise ValueError("mi must have length n")
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    mi = tuple(exprs.frac(m) for m in mi)
    if any(m < 0 for m in mi):
        raise ValueError("exponents must be nonnegative")
    rs = grid.values()
    base2, slope = _grid_diagonals(n, float(c), mi, rs)

    def result(reason, p_star=None, margin=None, margin_r=None) -> MinPResult:
        return MinPResult(
            p_star=p_star,
            margin=margin,
            margin_r=margin_r,
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
        names = ["radial", "sphere"] + [f"y{i}" for i in range(n)]
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
    col = int(np.argmin(marg)) % rs.size
    return result("ok", p_star=int(lo), margin=float(marg.min()), margin_r=float(rs[col]))


def grid_positive(
    n: int, c: float, mi: Sequence, p: int, grid: Optional[RadialGrid] = None
) -> bool:
    """Whether the worst-case diagonal margins are positive at every grid
    radius for this p; the same predicate min_p searches over."""
    if grid is None:
        grid = RadialGrid()
    return _positive(*_grid_diagonals(n, float(c), mi, grid.values()), p)


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
