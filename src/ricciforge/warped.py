"""Closed-form Ricci tensor of doubly warped metrics.

The metric lives on ``E x S^(p-1) x (0, inf)`` and has the block form
``g_r + f(r)^2 ds^2 + dr^2``, where ``g_r`` is an r-dependent family of
metrics on E diagonalized by a fixed basis of vector fields X_i with
``h_i(r)^2 = g_r(X_i, X_i)``. In the orthonormal frame
``{d_r, U_1..U_(p-1), Y_1..Y_n}`` (sphere directions normalized by f,
E-directions by h_i) the Ricci tensor is block diagonal, and every block
has a closed form in f, h_i, their first two derivatives, and the Ricci
tensor of g_r. The mixed radial/E entries Ric(d_r, Y_j) would be sums
over (i, j, i) structure coefficients, which the frame convention
forbids, so they vanish for every admissible spec.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from . import exprs, oracle
from .exprs import Expr

__all__ = [
    "WarpedFamilySpec",
    "RicciBlocks",
    "PdResult",
    "SmoothnessReport",
    "WarpedVerifyReport",
    "ricci_warped",
    "diagonal_blocks",
    "check_positive_definite",
    "verify_against_oracle",
    "smoothness_check",
    "chart_metric",
    "frames_at",
    "lie_ricci",
    "lie_jet",
    "spec_from_json",
    "reference_torus_spec",
    "left_invariant_s3_spec",
    "round_sphere_spec",
]


@dataclass(frozen=True)
class WarpedFamilySpec:
    """Data defining one doubly warped family.

    Fields
    ------
    n : dimension of E.
    f : profile for the sphere factor.
    h : one profile per E-direction, h_i(r) > 0.
    structure : Lie coefficients b_ijk of the fixed basis,
        [X_i, X_j] = sum_k b_ijk X_k (0-based indices, r-independent).
        Entries antisymmetric in (i, j), with the Jacobi identity; the frame
        convention requires every (i, j, i) entry to vanish.
    base_ricci : r -> symmetric (n, n) matrix, a modelled Ricci tensor of g_r
        in the frame Y_i = X_i / h_i; None derives it from the structure.

    Construction sets, outside the fields, ``compiled``: for f and for each
    h_i, one function r -> (e, e', e'') of that profile e. Each comes from a
    per-process cache keyed by the profile tree (see _profile), so specs
    with equal profiles share these functions. It also sets ``derived_base
    = lie_ricci(structure, n)``, the base Ricci as a function of the h_i(r),
    and ``jet = lie_jet(structure, n)``, the E-block of the oracle chart;
    specs with equal structure items in one order share both (see _lie).
    """

    n: int
    f: Expr
    h: tuple[Expr, ...]
    structure: Mapping[tuple[int, int, int], float] = field(default_factory=dict)
    base_ricci: Optional[Callable[[float], np.ndarray]] = None
    label: str = ""

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if len(self.h) != self.n:
            raise ValueError(f"need {self.n} h-profiles, got {len(self.h)}")
        full: dict[tuple[int, int, int], float] = {}
        for (i, j, k), v in self.structure.items():
            if not all(0 <= idx < self.n for idx in (i, j, k)):
                raise ValueError(f"structure index out of range in ({i},{j},{k})")
            if i == j or k in (i, j):
                if v != 0.0:
                    raise ValueError(
                        f"structure coefficient ({i},{j},{k}) must vanish: [X_i, X_i] = 0, and "
                        "the frame convention forbids (i,j,i)-type components"
                    )
                continue
            if (i, j, k) in full and full[(i, j, k)] != v:
                raise ValueError(f"conflicting entries for ({i},{j},{k})")
            if (j, i, k) in full and full[(j, i, k)] != -v:
                raise ValueError(f"structure coefficients not antisymmetric at ({i},{j},{k})")
            full[(i, j, k)] = v
            full[(j, i, k)] = -v
        object.__setattr__(self, "structure", full)
        derived_base, jet = _lie(tuple(full.items()), self.n)
        object.__setattr__(self, "derived_base", derived_base)
        object.__setattr__(self, "jet", jet)
        compiled = []
        for name, e in [("f", self.f)] + [(f"h[{i}]", h) for i, h in enumerate(self.h)]:
            try:
                compiled.append(_profile(e))
            except RecursionError as err:  # a tree nested too deeply to hash or differentiate
                raise ValueError(f"profile {name}: {err}") from None
        object.__setattr__(self, "compiled", tuple(compiled))

    def profile_values(self, r: float):
        """f, f', f'', and lists of h_i, h_i', h_i'' at r, all floats.

        The profiles are evaluated f first, then each h_i, by the rules of
        compile_scalar: a domain violation or an overflow raises DomainError
        naming its node, and so does a non-finite r. Raises DomainError
        naming the h profile when some h_i(r) <= 0.
        """
        (fv, fp, fpp), *hs = [at(r) for at in self.compiled]
        hv, hp, hpp = ([h[k] for h in hs] for k in range(3))
        for i, v in enumerate(hv):
            if v <= 0.0:
                raise exprs.DomainError(f"h[{i}]({r}) = {v} is not positive", self.h[i])
        return fv, fp, fpp, hv, hp, hpp


# _profile and _lie each keep at most this many entries, dropping the least recently used
PROFILE_CACHE_SIZE = 256


@functools.lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _profile(e: Expr) -> Callable[[float], tuple]:
    """The compiled function r -> (e, e', e'') of one profile e.

    Trees are immutable and hash by structure, and the function is pure,
    so each distinct profile is differentiated and compiled once per
    process; a failure is not cached."""
    d1 = exprs.diff(e, 1)
    return exprs.compile_scalar((e, d1, exprs.diff(d1, 1)))


# --- the base Ricci of a structure ---------------------------------------


def lie_ricci(structure: Mapping[tuple[int, int, int], float], n: int):
    """h -> the Ricci tensor, as n rows of n floats in the frame Y_i = X_i/h_i,
    of the metric with g(X_i, X_i) = h_i^2 on the Lie algebra [X_a, X_b] =
    sum_k b_abk X_k, b the structure in the antisymmetric form a spec stores.
    The frame convention makes the algebra unimodular, so with C_abk = b_abk
    h_k/(h_a h_b) (Milnor, Adv. Math. 21 (1976); Besse, Einstein Manifolds, 7.38)
    Ric(Y_i, Y_j) = -1/2 sum_ab C_iab C_jab + 1/4 sum_ab C_abi C_abj - 1/2 B_ij,
    with B_ij = sum_ab C_iba C_jab the Killing form. The products are listed
    once, from the nonzero entries, which must satisfy the Jacobi identity:
    a triple whose cyclic sum has a component past roundoff is a ValueError."""
    entries = [(a, b, k, v) for (a, b, k), v in structure.items() if v != 0.0]
    terms: list = []  # (i, j, weight, p, q): a term weight C_p C_q of Ric(Y_i, Y_j)
    sums: dict = {}  # (triple rotated to its least index, q) -> (sum, sum of |terms|)
    for p, (a, b, k, v) in enumerate(entries):
        for q, (c, d, l, w) in enumerate(entries):
            if b == d and k == l:  # C_iab C_jab
                terms.append((a, c, -0.5, p, q))
            if a == c and b == d:  # C_abi C_abj
                terms.append((k, l, 0.25, p, q))
            if b == l and k == d:  # C_iba C_jab, the Killing form
                terms.append((a, c, -0.5, p, q))
            if c == k and d not in (a, b):  # [[X_a, X_b], X_d] has v w along X_l
                key = (min((a, b, d), (b, d, a), (d, a, b)), l)
                total, size = sums.get(key, (0.0, 0.0))
                sums[key] = (total + v * w, size + abs(v * w))
    for (ijl, q), (total, size) in sums.items():
        if abs(total) > 1e-12 * size:
            raise ValueError(f"structure fails the Jacobi identity on {ijl}: cyclic sum has {total:g} X_{q}")
    zero = ((0.0,) * n,) * n

    def ricci(h) -> list:
        if not terms:  # a vanishing structure: one shared, immutable zero matrix
            return zero
        cs = [v * h[k] / (h[a] * h[b]) for a, b, k, v in entries]
        rows = [[0.0] * n for _ in range(n)]
        for i, j, weight, p, q in terms:
            rows[i][j] += weight * cs[p] * cs[q]
        return rows

    return ricci


def lie_jet(structure: Mapping[tuple[int, int, int], float], n: int) -> dict:
    """The left-invariant metric theta^T S theta, S = diag(h_k^2), of the
    structure's group in exponential coordinates x, cut to its 2-jet at 0,
    all that the curvature at 0 reads. With (ad_x)_kb = sum_a x_a b_abk,
    theta = I + A + B + ..., A = -ad_x/2, B = ad_x^2/6 (Helgason, Differential
    Geometry, Lie Groups, and Symmetric Spaces, II.1.7), so the 2-jet is S +
    S A + A^T S + A^T S A + S B + B^T S. As {(i, j): {k: [(c, m), ...]}} for
    i <= j: g_ij = sum_k h_k^2 sum c prod_(a in m) x_a, and no c is zero."""
    entries = [(a, b, k, v) for (a, b, k), v in structure.items() if v != 0.0]
    terms = {(i, i, i, ()): 1.0 for i in range(n)}

    def add(i: int, j: int, k: int, m: tuple, c: float) -> None:
        key = (min(i, j), max(i, j), k, tuple(sorted(m)))
        terms[key] = terms.get(key, 0.0) + c

    for a, b, k, v in entries:  # b_abk = v puts v x_a into (ad_x)_kb
        add(k, b, k, (a,), -0.5 * v)  # s_k A_kb, once in S A and once in A^T S
        for c, d, l, w in entries:
            if k == l and b <= d:  # s_k A_kb A_kd
                add(b, d, k, (a, c), 0.25 * v * w)
            if b == l:  # s_k B_kd, in S B and in B^T S
                add(k, d, k, (a, c), (2.0 if k == d else 1.0) * v * w / 6.0)
    jet: dict = {}
    for (i, j, k, m), c in sorted(terms.items()):
        if c != 0.0:
            jet.setdefault((i, j), {}).setdefault(k, []).append((c, m))
    return jet


@functools.lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _lie(items: tuple, n: int) -> tuple:
    """lie_ricci and lie_jet of the structure with these items in this order,
    which fixes the order of every sum, built once; callers only read them."""
    return lie_ricci(dict(items), n), lie_jet(dict(items), n)


@dataclass(frozen=True)
class RicciBlocks:
    """Block-compressed Ricci tensor in the frame {d_r, U_a, Y_i}.

    The sphere block is isotropic, so a single scalar ``uu`` stands for
    Ric(U_a, U_a). Every mixed entry other than the E-block
    off-diagonals vanishes. An entry that is not finite raises
    FloatingPointError naming the first one: rr, uu, then yy row by row.
    """

    rr: float
    uu: float
    yy: np.ndarray
    p: int
    r: float

    def __post_init__(self):
        # a quotient such as 1/f^2 can leave float range from finite profile
        # values, and Python floats overflow to inf silently
        values = [self.rr, self.uu, *self.yy.ravel().tolist()]
        if not all(map(math.isfinite, values)):
            names = ["rr", "uu"] + [f"yy[{i},{j}]" for i, j in np.ndindex(self.yy.shape)]
            name, v = next((name, v) for name, v in zip(names, values) if not math.isfinite(v))
            raise FloatingPointError(f"closed-form block {name} is {v} at r={self.r}, p={self.p}")


def diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp):
    """rr, uu, and the list of warping corrections to the diagonal E-block,
    which exclude the base Ricci term. hv, hp and hpp hold one value per
    E-direction; each value is a float or an array, such as a grid row.
    Sums over directions run left to right from 0.0, as numpy sums fewer
    than 8 floats."""
    lh = [d1 / v for d1, v in zip(hp, hv)]
    lhh = [d2 / v for d2, v in zip(hpp, hv)]
    s1 = s2 = 0.0
    for a, b in zip(lh, lhh):
        s1, s2 = s1 + a, s2 + b
    uu = (p - 2) * (1.0 - fp**2) / fv**2 - (fp / fv) * s1 - fpp / fv
    rr = -(p - 1) * fpp / fv - s2
    return rr, uu, [-(p - 1) * (fp / fv) * a - a * (s1 - a) - b for a, b in zip(lh, lhh)]


def _sphere_dim(p: int) -> int:
    """The dimension p - 1 of the sphere factor, for p >= 2."""
    if p < 2:
        raise ValueError("p must be at least 2")
    return p - 1


def ricci_warped(spec: WarpedFamilySpec, r: float, p: int) -> RicciBlocks:
    """Closed-form Ricci blocks of the warped metric at radius r.

    Requires r > 0 and an integer sphere dimension parameter p >= 2.
    The diagonal blocks are

        Ric(U, U)     = (p-2)(1-f'^2)/f^2 - (f'/f) sum_i h_i'/h_i - f''/f
        Ric(Y_i, Y_i) = base_ii - (p-1) f'h_i'/(f h_i)
                        - (h_i'/h_i) sum_(k!=i) h_k'/h_k - h_i''/h_i
        Ric(d_r, d_r) = -(p-1) f''/f - sum_i h_i''/h_i

    off-diagonal E-entries equal the base Ricci, and all sphere-mixed
    and radial/E entries vanish. RicciBlocks refuses a non-finite block.
    """
    _sphere_dim(p)
    if r <= 0.0:
        raise ValueError("r must be positive (the metric degenerates at r = 0)")
    fv, fp, fpp, hv, hp, hpp = spec.profile_values(r)
    n = spec.n
    try:
        rr, uu, yy_corr = diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp)
        base = spec.derived_base(hv) if spec.base_ricci is None else spec.base_ricci(r)
    # f, f^2 or some h_a h_b is 0.0, or f'^2 or f^2 overflows, which Python's
    # float ** raises; the check below names numpy's inf or nan
    except (ZeroDivisionError, OverflowError):
        with np.errstate(all="ignore"):
            rr, uu, yy_corr = diagonal_blocks(p, np.float64(fv), np.float64(fp), fpp, hv, hp, hpp)
            base = spec.derived_base(np.array(hv)) if spec.base_ricci is None else spec.base_ricci(r)
    if spec.base_ricci is not None:
        base = np.asarray(base, dtype=float)
        if base.shape != (n, n):
            raise ValueError(f"base_ricci(r) has shape {base.shape}, expected ({n}, {n})")
        base = base.tolist()
    # the operations of 0.5 (base + base^T) + diag(yy_corr), entry by entry;
    # adding 0.0 off the diagonal turns -0.0 into 0.0
    yy = [0.5 * (base[i][j] + base[j][i]) + (yy_corr[i] if i == j else 0.0) for i in range(n) for j in range(n)]
    return RicciBlocks(rr=rr, uu=uu, yy=np.array(yy, dtype=float).reshape(n, n), p=int(p), r=float(r))


# LAPACK ?syevd scales a matrix whose largest |entry| is outside this band
SYEVD_RMIN = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)  # sqrt(safmin/eps)
SYEVD_RMAX = 1.0 / SYEVD_RMIN


@dataclass(frozen=True)
class PdResult:
    positive_definite: bool
    min_eigen: float


def check_positive_definite(blocks: RicciBlocks, off_diag_slack: float = 0.0) -> PdResult:
    """Positive definiteness of the assembled Ricci matrix.

    The sphere block is uu times the identity and decouples, so the test
    reduces to uu > 0 plus the (n+1) x (n+1) block on {d_r, Y_i}. With
    off_diag_slack > 0 the E-block off-diagonals are treated as
    adversarial entries of at most that magnitude and absorbed by a
    Gershgorin row-sum certificate (sufficient, not sharp); with slack 0
    the reduced block is checked exactly by its eigenvalues.
    """
    if not 0.0 <= off_diag_slack < math.inf:  # a nan slack would drop every yy row from min()
        raise ValueError("off_diag_slack must be a finite nonnegative number")
    yy = blocks.yy.tolist()
    n = len(yy)
    if off_diag_slack == 0.0:
        lowers = [blocks.rr] + [row[i] for i, row in enumerate(yy)]
        # eigvalsh reads the lower triangle; when it is zero and ?syevd need
        # not scale, ?sterf gets the diagonal unchanged and returns its entries
        if any(v for i, row in enumerate(yy) for v in row[:i]) or not (
            all(abs(v) <= SYEVD_RMAX for v in lowers) and max(map(abs, lowers)) >= SYEVD_RMIN
        ):
            reduced = np.zeros((n + 1, n + 1))
            reduced[0, 0], reduced[1:, 1:] = blocks.rr, blocks.yy
            lowers = np.linalg.eigvalsh(reduced).tolist()
    else:
        lowers = [blocks.rr]
        for i, row in enumerate(yy):
            total = 0.0
            for v in row:
                total += abs(v)
            lowers.append(row[i] - (total - abs(row[i])) - (n - 1) * off_diag_slack)
    min_eigen = float(min(min(lowers), blocks.uu)) + 0.0  # + 0.0 turns -0.0 into 0.0
    return PdResult(positive_definite=bool(min_eigen > 0.0), min_eigen=min_eigen)


# --- chart realization and oracle verification ---------------------------


# The structure of the unit 3-sphere frame, from which the s3-unequal preset
# is built: [X_i, X_j] = 2 X_k, cyclic, with the (j, i, k) partners.
S3_STRUCTURE = {
    key: sign * 2.0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    for key, sign in (((i, j, k), 1.0), ((j, i, k), -1.0))
}


def chart_metric(spec: WarpedFamilySpec, p: int) -> oracle.ChartMetric:
    """Chart of the warped metric: exponential coordinates x_E with the 2-jet
    spec.jet, exact only at x_E = 0, the domain with r > 1e-3; then the unit
    (p-1)-sphere's stereographic chart scaled by f(r); then r. Entries are
    built elementwise from (N,) columns, so no row depends on another."""
    n, ps = spec.n, _sphere_dim(p)
    d = n + ps + 1
    profiles = exprs.compile_grid((spec.f, *spec.h))

    def comps(x: np.ndarray) -> np.ndarray:
        y = x[:, n : n + ps]
        fv, *hv = profiles(x[:, -1])
        s, xe, monomials = np.square(hv).reshape(n, len(x)), x[:, :n].T, {}
        conf = 4.0 * fv**2 / (1.0 + np.sum(y * y, axis=1)) ** 2
        g = np.zeros((len(x), d, d), dtype=x.dtype)
        for (i, j), polys in spec.jet.items():
            total = None
            for k, poly in polys.items():
                q = None
                for c, m in poly:
                    if m and m not in monomials:
                        monomials[m] = xe[m[0]] if len(m) == 1 else xe[m[0]] * xe[m[1]]
                    term = c if not m else monomials[m] if c == 1.0 else c * monomials[m]
                    q = term if q is None else q + term
                term = s[k] if poly == [(1.0, ())] else s[k] * q
                total = term if total is None else total + term
            g[:, i, j] = g[:, j, i] = total
        g[:, np.arange(n, n + ps), np.arange(n, n + ps)] = conf[:, None]
        g[:, -1, -1] = 1.0
        return g

    def domain(x: np.ndarray) -> bool:
        return x[-1] > 1e-3 and not x[:n].any()

    return oracle.ChartMetric(d, comps, domain=domain, label=spec.label or f"warped:n={n}:p={p}")


def frames_at(spec: WarpedFamilySpec, p: int, rs: Iterable[float]) -> list:
    """The orthonormal frame {d_r, U_a, Y_i = e_i/h_i} at the chart point
    with each radius r of rs, x_E = 0 and sphere coordinates spread over
    [0.2, 0.4]. The profiles are read radius by radius, f before the h_i,
    and each sphere column is a Python float quotient, so the first failing
    radius raises what it raises alone: a zero f(r) raises ZeroDivisionError."""
    n, ps = spec.n, p - 1
    d = n + ps + 1
    sphere_point = np.linspace(0.2, 0.4, ps)
    stretch = 1.0 + float(sphere_point @ sphere_point)
    f_at, *hs = spec.compiled
    radii, confs, scales = [], [], []
    for r in rs:
        fv = f_at(r)[0]
        scales.append([h_at(r)[0] for h_at in hs])
        confs.append(stretch / (2.0 * fv))
        radii.append(r)
    xs = np.zeros((len(radii), d))
    xs[:, n:-1] = sphere_point
    xs[:, -1] = radii
    cols = np.zeros((len(radii), d, d))
    cols[:, -1, 0] = 1.0  # d_r
    cols[:, np.arange(n, n + ps), np.arange(1, 1 + ps)] = np.array(confs)[:, None]
    cols[:, np.arange(n), np.arange(1 + ps, d)] = 1.0 / np.array(scales).reshape(len(radii), n)
    return [oracle.FrameAtPoint(x, c) for x, c in zip(xs, cols)]


@dataclass(frozen=True)
class WarpedVerifyReport:
    passed: bool
    rows: list
    tol: float

    def max_gating_deviation(self) -> float:
        return max((row["deviation"] for row in self.rows), default=0.0)


def verify_against_oracle(
    spec: WarpedFamilySpec,
    p: int,
    rs: Iterable[float],
    tol: float,
) -> WarpedVerifyReport:
    """Compare the closed-form blocks with the chart oracle at each radius.

    Every row gates the PASS verdict at the given tolerance: rr, each
    uu, each upper-triangular yy entry, and one ``mixed-zero`` row
    holding the largest oracle entry among those the closed form says
    vanish (sphere-mixed, sphere/E and radial/E). The radii are read
    once; their frames are built in one pass and go to the oracle in one
    batch. A failure is still the one a loop over the radii would raise
    first, running the closed form and then the frame at each radius and
    the oracle at the radii before it.
    """
    metric = chart_metric(spec, p)
    closed_forms, radii = [], []
    for r in rs:
        try:
            closed_forms.append(ricci_warped(spec, float(r), p))
        except Exception:
            # an oracle failure at an earlier radius is reported first
            oracle.frame_ricci_many(metric, frames_at(spec, p, radii))
            raise
        radii.append(float(r))
    if not radii:
        raise ValueError("rs is empty: there is no radius to verify")
    # a frame reads only profile values its closed form has read, and
    # divides only by f(r), which the closed form divides by too, so no
    # frame fails where its closed form passed
    fulls = oracle.frame_ricci_many(metric, frames_at(spec, p, radii))
    rows: list = []
    n, ps = spec.n, p - 1
    # frame order [d_r | U_1..U_ps | Y_1..Y_n]; the closed form says every
    # entry above the diagonal vanishes outside the Y block
    vanish = np.triu(np.ones((n + ps + 1, n + ps + 1), dtype=bool), 1)
    vanish[1 + ps :, 1 + ps :] = False
    for blocks, full in zip(closed_forms, fulls):
        ric, yy = full.tolist(), blocks.yy.tolist()

        def row(entry, closed, oracle_value):
            dev = abs(closed - oracle_value)
            rows.append(
                {
                    "r": blocks.r,
                    "entry": entry,
                    "closed": closed,
                    "oracle": oracle_value,
                    "deviation": dev,
                    "gating": True,
                    "pass": bool(dev <= tol),
                }
            )

        row("rr", blocks.rr, ric[0][0])
        for a in range(1, 1 + ps):
            row(f"uu[{a - 1}]", blocks.uu, ric[a][a])
        row("mixed-zero", 0.0, float(np.abs(full[vanish]).max()))
        for i in range(n):
            for j in range(i, n):
                row(f"yy[{i},{j}]", yy[i][j], ric[1 + ps + i][1 + ps + j])
    return WarpedVerifyReport(passed=all(row["pass"] for row in rows), rows=rows, tol=tol)


# --- smoothness at the axis ------------------------------------------------

AXIS_EPS = 1e-6  # the metric degenerates at r = 0; limits are taken here


@dataclass(frozen=True)
class SmoothnessReport:
    conditions: tuple[tuple[str, bool, float], ...]  # (name, holds, tolerance) rows in report order
    tol: float

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.conditions)


# positivity of f and h_i is sampled at this many radii on [AXIS_EPS, SMOOTHNESS_R_MAX]
SMOOTHNESS_GRID_POINTS = 200
SMOOTHNESS_R_MAX = 10.0


def smoothness_check(spec: WarpedFamilySpec, tol: float) -> SmoothnessReport:
    """Check the smooth-extension conditions at the degenerate axis r = 0:
    f(0) = 0, f'(0) = 1, f''(0) = 0 and each h_i'(0) = 0 within tol, read
    at r = 1e-6, and f > 0 and each h_i > 0 on a grid, with tolerance 0.0.
    The rows run f's four, then each h_i's evenness, then each positivity."""
    f_at, *hs = spec.compiled
    f0, f1, f2 = f_at(AXIS_EPS)
    grid = np.linspace(AXIS_EPS, SMOOTHNESS_R_MAX, SMOOTHNESS_GRID_POINTS)
    rows = [
        ("f-vanishes-at-axis", abs(f0) <= tol, tol),
        ("f-slope-one-at-axis", abs(f1 - 1.0) <= tol, tol),
        ("f-second-derivative-zero-at-axis", abs(f2) <= tol, tol),
        ("f-positive", np.all(exprs.evaluate_grid(spec.f, grid) > 0.0), 0.0),
    ]
    positive = []
    for i, (e, h_at) in enumerate(zip(spec.h, hs)):
        rows.append((f"h[{i}]-even-at-axis", abs(h_at(AXIS_EPS)[1]) <= tol, tol))
        positive.append((f"h[{i}]-positive", np.all(exprs.evaluate_grid(e, grid) > 0.0), 0.0))
    return SmoothnessReport(tuple((name, bool(ok), t) for name, ok, t in rows + positive), tol)


# --- JSON schema ----------------------------------------------------------


def spec_from_json(data) -> WarpedFamilySpec:
    """Build a spec from the JSON schema
    {"n", "f", "h", "structure", "baseRicci"}.

    Structure rows are [i, j, k, value] with 0-based indices. An absent
    baseRicci derives the base Ricci from the structure (lie_ricci); a
    given one is a modelled base: "zero", "constant:<json matrix>", or
    "scaledIdentity:<expression>".
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"a spec is a JSON object, not {type(data).__name__}")
    n = _spec_field(data, "n", exprs.integer)
    f = _spec_field(data, "f", exprs.parse)
    h = _spec_field(data, "h", lambda texts: tuple(exprs.parse(t) for t in texts), [])
    structure = _spec_field(data, "structure", _structure, [])
    base = _spec_field(data, "baseRicci", lambda text: _base_ricci(n, text)) if "baseRicci" in data else None
    return WarpedFamilySpec(
        n=n, f=f, h=h, structure=structure, base_ricci=base, label=data.get("label", "")
    )


def _spec_field(data: dict, key: str, read, default=None):
    """read(data[key]), or read(default) for an absent key; a list default
    asks for a list. A missing or wrong-typed field is a ValueError naming it."""
    if key not in data and default is None:
        raise ValueError(f"spec file missing field {key!r}")
    value = data.get(key, default)
    if isinstance(default, list) and not isinstance(value, list):
        raise ValueError(f"spec field {key!r}: expected a list, got {value!r}")
    try:
        return read(value)
    except (TypeError, AttributeError, LookupError, RecursionError) as err:
        raise ValueError(f"spec field {key!r}: {err}") from None


def _structure(rows) -> dict:
    structure = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != 4:
            raise TypeError(f"row {row!r} is not a list of four entries [i, j, k, value]")
        i, j, k, v = row
        structure[(exprs.integer(i), exprs.integer(j), exprs.integer(k))] = float(v)
    return structure


def _base_ricci(n: int, text: str) -> Callable[[float], np.ndarray]:
    if text == "zero":
        zero = np.zeros((n, n))
        return lambda r: zero
    if text.startswith("constant:"):
        matrix = np.asarray(json.loads(text[len("constant:") :]), dtype=float)
        if matrix.shape != (n, n):
            raise ValueError(f"constant base Ricci has shape {matrix.shape}, expected ({n},{n})")
        return lambda r: matrix
    if text.startswith("scaledIdentity:"):
        scale = exprs.compile_scalar((exprs.parse(text[len("scaledIdentity:") :]),))
        return lambda r: np.diag([scale(r)[0]] * n)
    raise ValueError(f"unknown baseRicci form {text!r}")


# --- presets ---------------------------------------------------------------


def reference_torus_spec() -> WarpedFamilySpec:
    """Flat circle factor with the reference profiles: n = 1,
    h_1 = (1+r^2)^(-1), f = r (1+r^2)^(-1/4), zero base Ricci."""
    from .positivity import reference_profiles

    f, h = reference_profiles()
    return WarpedFamilySpec(n=1, f=f, h=(h,), label="torus-reference")


def left_invariant_s3_spec() -> WarpedFamilySpec:
    """E = 3-sphere with a left-invariant family: three unequal scales
    h_i(r) = (1+r^2)^(-1), (1+r^2)^(-3/4), (1+r^2)^(-1/2) on the
    quaternionic frame, with the base Ricci derived from its structure."""
    from .positivity import reference_profiles

    f, _ = reference_profiles()
    h = tuple(exprs.parse(t) for t in ("(1+r^2)^(-1)", "(1+r^2)^(-3/4)", "(1+r^2)^(-1/2)"))
    return WarpedFamilySpec(n=3, f=f, h=h, structure=S3_STRUCTURE, label="s3-left-invariant")


def round_sphere_spec() -> WarpedFamilySpec:
    """n = 0 and f = sin r: the warped metric is the round p-sphere on
    r in (0, pi), with Ricci (p-1) times the identity."""
    return WarpedFamilySpec(n=0, f=exprs.parse("sin(r)"), h=(), label="round-sphere")
