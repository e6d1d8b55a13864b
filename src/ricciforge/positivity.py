"""Minimal sphere dimension making the warped Ricci tensor positive.

With the reference profiles f = r (1+r^2)^(-1/4) and h = (1+r^2)^(-1),
and per-direction exponents m_i > 0 (h_i = h^(m_i)), every diagonal of
the warped Ricci tensor under the worst-case base assumption
(diagonal base Ricci bounded below by -c h^2, off-diagonals bounded by
c h^2 in magnitude) satisfies a bound of the form

    Ric_diag >= h^2 ( r^2 (p K - L) + p R - S )

with K, R > 0, so positivity for all radii holds once p clears the
coefficient ratios. min_p decides the least p exactly for one exponent
profile, in Python integers: over a common denominator D of c and the
exponents, every row is an integer quadruple times 4 D^2, and only the
values it reports are built as Fractions. A certificate bounds the
exponents only to a box [m_lower, m]; _box_rows states each row's worst
case over that box once. p_bound reads it in integers the same way for
the exact least p over the box, and k_bound reads it in floats for the
ratio every larger p clears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import exprs
from .exprs import Expr

__all__ = [
    "reference_profiles",
    "DirectionCoefficients",
    "MinPResult",
    "min_p",
    "k_bound",
    "p_bound",
    "profile_gap",
]

_F_TEXT = "r*(1+r^2)^(-1/4)"
_H_TEXT = "(1+r^2)^(-1)"


def reference_profiles() -> tuple[Expr, Expr]:
    """The profile pair (f, h) used by the positivity construction:
    f(r) = r (1+r^2)^(-1/4) and h(r) = (1+r^2)^(-1)."""
    return exprs.parse(_F_TEXT), exprs.parse(_H_TEXT)


@dataclass(frozen=True)
class DirectionCoefficients:
    """One direction's bound u^2 Ric >= h^2 (r^2 (pK - L) + pR - S), in
    the scaled form of _quadruples with unit u."""

    K: float
    L: float
    R: float
    S: float


def _quadruples(c, mi, half) -> dict:
    """Coefficient quadruples for the reference profiles with exponents
    mi, keyed 'r', 'u' and one 'y<i>' per distinct exponent, i the first
    index holding it, in the scaled form with unit u = 2 half: c and mi
    given as c u and m_i u, and each row u^2 times the true one. min_p
    and p_bound pass integers, with half a common denominator D; k_bound
    passes floats with half = 1/2, where u = 1 and each float operation
    is that of the true row.

    Substituting h_i = h^(m_i) and the closed-form identities

        f''/f              = -h^2 (3/2 + r^2/4)
        f' h_i' / (f h_i)  = -m_i h^2 (2 + r^2)
        h_i''/h_i          =  h^2 (2 m_i (r^2 - 1) + 4 m_i^2 r^2)
        (h_i'/h_i)(h_k'/h_k) = 4 m_i m_k r^2 h^2

    into the diagonal Ricci formulas, with the worst-case base value
    -c h^2 on the E-block diagonal and the auxiliary profile inequality
    f^(-2)(1 - f'^2) >= h^2 (3/2 + r^2) for the sphere block, gives the
    true rows

        radial:  K = 1/4, L = 1/4 + sum(2 m_i + 4 m_i^2),
                 R = 3/2, S = 3/2 - 2 sum(m_i)        (exact equality)
        sphere:  K = 1,   L = 7/4 - sum(m_i),
                 R = 3/2, S = 3/2 - 2 sum(m_i)        (inequality)
        Y_i:     K = m_i, L = 3 m_i + 4 m_i sum(m_k, k != i) + 4 m_i^2,
                 R = 2 m_i, S = c                     (exact equality)

    Every direction needs K, R > 0, which forces every m_i > 0.
    """
    s1 = sum(mi)
    unit, quarter = 2 * half, half * half
    radial, ys = {}, {}  # per distinct exponent: its radial L term and its Y row
    for i, m in enumerate(mi):
        if m not in radial:
            radial[m] = 2 * unit * m + 4 * m * m
            ys[f"y{i}"] = DirectionCoefficients(
                K=unit * m, L=3 * unit * m + 4 * m * (s1 - m) + 4 * m * m, R=2 * unit * m, S=unit * c
            )
    return {
        "r": DirectionCoefficients(
            K=quarter, L=quarter + sum(radial[m] for m in mi), R=6 * quarter, S=6 * quarter - 2 * unit * s1
        ),
        "u": DirectionCoefficients(
            K=4 * quarter, L=7 * quarter - unit * s1, R=6 * quarter, S=6 * quarter - 2 * unit * s1
        ),
        **ys,
    }


def _box_rows(n: int, c, m, m_lower, half) -> dict:
    """Each row's worst case over the exponent profiles with all m_i in
    [m_lower, m], keyed 'r', 'u' and (n > 0) 'y0' and 'y-lower', in the
    scaled form of _quadruples.

    r and u are _quadruples' rows at every m_i = m, where r's L/K peaks
    (its S/R <= 1 never binds; u never binds, see min_p). A y_i row's
    L/K = 3 + 4 sum(m_k) peaks at every m_k = m and its S/R = n c / (2 m_i)
    at m_i = m_lower, so the y row has two corners: 'y0' at every m_k = m,
    and 'y-lower' at m_i = m_lower with the others at m. Each has
    S = n c: the diagonal's c plus the Gershgorin sum (n-1) c of the
    off-diagonal bound.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if not 0 < m_lower <= m:
        raise ValueError("m_lower must lie in (0, m]")
    c_row = c + (n - 1) * c
    rows = _quadruples(c_row, [m] * n, half)
    if n:
        rows["y-lower"] = _quadruples(c_row, [m_lower] + [m] * (n - 1), half)["y0"]
    return rows


def _check(n: int, c, exponents) -> None:
    """The input check min_p, p_bound and k_bound share: n >= 0, c >= 0,
    and c and each (name, value) of exponents a finite number. A NaN or an
    infinity raises ValueError naming its argument."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for name, x in (("c", c), *exponents):
        if isinstance(x, float) and not math.isfinite(x):
            raise ValueError(f"{name} must be a finite number, got {x!r}")
    if c < 0:
        raise ValueError("c must be nonnegative")


def _scaled(*values: Fraction) -> tuple:
    """(D, [2 D x for x in values]) for D the least common denominator of
    values: _quadruples' half and the values at its unit 2 D, as ints."""
    d = math.lcm(*(x.denominator for x in values))
    return d, [x.numerator * (2 * d // x.denominator) for x in values]


def k_bound(n: int, c: float, m, m_lower=None) -> float:
    """Closed-form sufficient threshold: every p > k_bound(n, c, m) makes
    the worst-case warped Ricci positive definite for all radii and every
    exponent profile in [m_lower, m] (m_lower defaults to m): the largest
    L/K and S/R over _box_rows, in floats. Monotone nondecreasing in n, c
    and m.
    """
    c, m = float(c), float(m)
    m_lower = m if m_lower is None else float(m_lower)
    _check(n, c, (("m", m), ("m_lower", m_lower)))
    rows = _box_rows(n, c, m, m_lower, 0.5)
    return float(max(max(cf.L / cf.K, cf.S / cf.R) for cf in rows.values()))


def p_bound(n: int, c: float, m, m_lower) -> int:
    """Least integer p >= 2 with the worst-case warped Ricci positive
    definite at every radius for every exponent profile in [m_lower, m],
    decided exactly: the largest _least_p over _box_rows but u, in
    integers over the least common denominator of c, m and m_lower.

    Exact: each row of _box_rows is a profile in the box, and no profile
    between the y row's two corners needs a larger p, since a tie of its
    L/K and S/R at the largest corner value forces m_lower = m.
    """
    _check(n, c, (("m", m), ("m_lower", m_lower)))
    half, scaled = _scaled(Fraction(c), exprs.frac(m), exprs.frac(m_lower))
    rows = _box_rows(n, *scaled, half)
    return max(_least_p(cf) for name, cf in rows.items() if name != "u")


@dataclass(frozen=True)
class MinPResult:
    """p_star and the direction that binds at it ("radial" or "y<i>"),
    with that direction's t^2 coefficient pK - L and value at t = 1,
    pR - S, at p_star, as exact rationals; all None when no p works. mi
    echoes the exponents exactly: a plan's replay can exceed float range."""

    p_star: Optional[int]
    binding: Optional[str]
    pk_minus_l: Optional[Fraction]
    pr_minus_s: Optional[Fraction]
    reason: str
    n: int
    c: float
    mi: tuple

    # Not a field: min_p samples no radii. bench/tracer.py's min_p hook reads it.
    grid_points = 0


def _least_p(cf: DirectionCoefficients) -> Optional[int]:
    """The least integer p >= 2 with pK - L >= 0 and pR - S >= 0, not both
    zero, or None when there is none, for an integer row with K and R
    nonnegative; a positive scale of the row changes neither answer."""
    p = 2
    for slope, offset in ((cf.K, cf.L), (cf.R, cf.S)):
        if slope > 0:
            p = max(p, -(-offset // slope))
        elif offset > 0:
            return None
    if p * cf.K == cf.L and p * cf.R == cf.S:
        return p + 1 if cf.K or cf.R else None
    return p


def min_p(n: int, c: float, mi: Sequence) -> MinPResult:
    """Smallest integer p >= 2 with the worst-case Ricci positive definite
    at every radius r > 0, decided exactly.

    The worst case over the certificate class replaces the base Ricci by
    -c h^2 on the diagonal and absorbs off-diagonal entries of magnitude
    up to c h^2 by the Gershgorin row sum (n-1) c h^2; positivity of the
    remaining diagonal margins is then exactly the positive-definiteness
    test. Put t = sqrt(1 + r^2), so t ranges over (1, inf). The radial and
    y_i margins, divided by h^2, equal a + b t^2 with b = pK - L and
    a + b = pR - S (the rows of _quadruples, with y_i's S raised to
    n c). c is the exact value of its float, and each m_i an exact
    rational >= 0; the rows are decided in integers, scaled by 4 D^2 for
    D the least common multiple of the denominators of c and the m_i, a
    positive factor that changes no sign. Such a row is positive on t > 1
    exactly when b >= 0 and a + b >= 0, not both zero. The sphere margin
    divided by h^2 is

        [(p+3+4s)(1+t) + (3p-5+4s)(t^2+t^3) + (4p-8) t^4] / (4 (1+t))

    with s = sum(m_i), whose coefficients are all nonnegative and not all
    zero for p >= 2, so it never binds. Each row's condition is monotone
    in p, so p_star is the largest of the rows' least p. It is None when
    some row has none, which is forced whenever some m_i = 0 (that
    margin is then -n c h^2 for every p).
    """
    if len(mi) != n:
        raise ValueError("mi must have length n")
    _check(n, c, ((f"mi[{i}]", m) for i, m in enumerate(mi)))
    mi = [exprs.frac(m) for m in mi]
    if any(m.numerator < 0 for m in mi):
        raise ValueError("exponents must be nonnegative")
    half, (c_scaled, *scaled) = _scaled(Fraction(c), *mi)
    rows = {
        "radial" if name == "r" else name: cf
        for name, cf in _quadruples(n * c_scaled, scaled, half).items()
        if name != "u"
    }
    least = {name: _least_p(cf) for name, cf in rows.items()}
    scale = 4 * half * half
    common = dict(n=n, c=float(c), mi=tuple(mi))
    for name, cf in rows.items():
        if least[name] is None:
            K, L, R, S = (Fraction(v, scale) for v in (cf.K, cf.L, cf.R, cf.S))
            reason = (
                f"direction {name} has (K, L, R, S) = ({K}, {L}, {R}, {S}); "
                "no p makes pK - L and pR - S both nonnegative and not both zero"
            )
            return MinPResult(None, None, None, None, reason, **common)
    name = max(least, key=least.get)
    p, cf = least[name], rows[name]
    return MinPResult(
        p, name, Fraction(p * cf.K - cf.L, scale), Fraction(p * cf.R - cf.S, scale), "ok", **common
    )


# --- auxiliary profile inequality ------------------------------------------


def profile_gap(r) -> np.ndarray:
    """f^(-2)(1 - f'^2) - h^2 (3/2 + r^2) for the reference profiles.

    Positive for every r > 0. With u = r^2 and t = sqrt(1 + u) the gap
    equals phi / (u (1+u)^2) where phi = t^5 - 1 - 5u/2 - 5u^2/4, and phi
    factors as (t - 1)^2 (4t^3 + 3t^2 + 2t + 1) / 4 with (t - 1)^2 =
    u^2 / (t + 1)^2. So the gap is u (4t^3 + 3t^2 + 2t + 1) /
    (4 (t + 1)^2 (1 + u)^2): a product and quotient of positive terms,
    with no cancellation at any radius.
    """
    u = np.asarray(r, dtype=float) ** 2
    t = np.sqrt(1.0 + u)
    return u * (((4.0 * t + 3.0) * t + 2.0) * t + 1.0) / (4.0 * (t + 1.0) ** 2 * (1.0 + u) ** 2)
