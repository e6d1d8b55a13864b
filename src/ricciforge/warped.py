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

import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

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
    "assemble_full",
    "check_positive_definite",
    "verify_against_oracle",
    "smoothness_check",
    "chart_metric",
    "frame_at",
    "spec_from_json",
    "spec_to_json",
    "reference_torus_spec",
    "left_invariant_s3_spec",
    "round_sphere_spec",
    "zero_base_ricci",
]

QUATERNIONIC_BRACKET = 2.0  # [X_i, X_j] = 2 X_k (cyclic) for the unit 3-sphere frame


def zero_base_ricci(n: int) -> Callable[[float], np.ndarray]:
    def base(r: float) -> np.ndarray:
        return np.zeros((n, n))

    return base


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
        Entries antisymmetric in (i, j); the frame convention requires
        every (i, j, i) entry to vanish.
    base_ricci : r -> symmetric (n, n) matrix, the Ricci tensor of g_r in
        the normalized frame Y_i = X_i / h_i at the working point.
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
            for idx in (i, j, k):
                if not 0 <= idx < self.n:
                    raise ValueError(f"structure index {idx} out of range")
            if i == j and v != 0.0:
                raise ValueError("[X_i, X_i] must vanish")
            if k == i or k == j:
                if v != 0.0:
                    raise ValueError(
                        f"structure coefficient ({i},{j},{k}) must vanish: "
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
        if self.base_ricci is None:
            object.__setattr__(self, "base_ricci", zero_base_ricci(self.n))

    @property
    def structure_vanishes(self) -> bool:
        return all(v == 0.0 for v in self.structure.values())

    def profile_values(self, r: float):
        """f, f', f'', and arrays of h_i, h_i', h_i'' at r.

        Raises DomainError naming the h profile when some h_i(r) <= 0.
        """
        fv = exprs.evaluate(self.f, r)
        fp = exprs.evaluate(exprs.diff(self.f, 1), r)
        fpp = exprs.evaluate(exprs.diff(self.f, 2), r)
        hv = np.array([exprs.evaluate(e, r) for e in self.h])
        hp = np.array([exprs.evaluate(exprs.diff(e, 1), r) for e in self.h])
        hpp = np.array([exprs.evaluate(exprs.diff(e, 2), r) for e in self.h])
        if np.any(hv <= 0.0):
            bad = int(np.argmax(hv <= 0.0))
            raise exprs.DomainError(f"h[{bad}]({r}) = {hv[bad]} is not positive", self.h[bad])
        return fv, fp, fpp, hv, hp, hpp


@dataclass(frozen=True)
class RicciBlocks:
    """Block-compressed Ricci tensor in the frame {d_r, U_a, Y_i}.

    The sphere block is isotropic, so a single scalar ``uu`` stands for
    Ric(U_a, U_a). Every mixed entry other than the E-block
    off-diagonals vanishes.
    """

    rr: float
    uu: float
    yy: np.ndarray
    p: int
    r: float


def diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp):
    """rr, uu, and the warping corrections to the diagonal E-block.

    Inputs may be scalars with (n,) profile arrays, or grids with
    (n, G) profile arrays; everything broadcasts. The E-block correction
    excludes the base Ricci term, which the caller adds.
    """
    lh = hp / hv
    lhh = hpp / hv
    s1 = lh.sum(axis=0)
    uu = (p - 2) * (1.0 - fp**2) / fv**2 - (fp / fv) * s1 - fpp / fv
    rr = -(p - 1) * fpp / fv - lhh.sum(axis=0)
    yy_corr = -(p - 1) * (fp / fv) * lh - lh * (s1 - lh) - lhh
    return rr, uu, yy_corr


def ricci_warped(spec: WarpedFamilySpec, r: float, p: int) -> RicciBlocks:
    """Closed-form Ricci blocks of the warped metric at radius r.

    Requires r > 0 and an integer sphere dimension parameter p >= 2.
    The diagonal blocks are

        Ric(U, U)     = (p-2)(1-f'^2)/f^2 - (f'/f) sum_i h_i'/h_i - f''/f
        Ric(Y_i, Y_i) = base_ii - (p-1) f'h_i'/(f h_i)
                        - (h_i'/h_i) sum_(k!=i) h_k'/h_k - h_i''/h_i
        Ric(d_r, d_r) = -(p-1) f''/f - sum_i h_i''/h_i

    off-diagonal E-entries equal the base Ricci, and all sphere-mixed
    and radial/E entries vanish.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if r <= 0.0:
        raise ValueError("r must be positive (the metric degenerates at r = 0)")
    fv, fp, fpp, hv, hp, hpp = spec.profile_values(r)
    rr, uu, yy_corr = diagonal_blocks(p, fv, fp, fpp, hv, hp, hpp)
    base = np.asarray(spec.base_ricci(r), dtype=float)
    if base.shape != (spec.n, spec.n):
        raise ValueError(f"base_ricci(r) has shape {base.shape}, expected ({spec.n}, {spec.n})")
    yy = 0.5 * (base + base.T) + np.diag(yy_corr) if spec.n else np.zeros((0, 0))
    return RicciBlocks(rr=float(rr), uu=float(uu), yy=yy, p=int(p), r=float(r))


def assemble_full(blocks: RicciBlocks) -> np.ndarray:
    """Full (n+p) x (n+p) Ricci matrix in the frame order {d_r, U_a, Y_i}."""
    n = blocks.yy.shape[0]
    p = blocks.p
    d = 1 + (p - 1) + n
    out = np.zeros((d, d))
    out[0, 0] = blocks.rr
    for a in range(1, p):
        out[a, a] = blocks.uu
    out[p:, p:] = blocks.yy
    return out


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
    if off_diag_slack < 0.0:
        raise ValueError("off_diag_slack must be nonnegative")
    n = blocks.yy.shape[0]
    reduced = np.zeros((n + 1, n + 1))
    reduced[0, 0] = blocks.rr
    reduced[1:, 1:] = blocks.yy
    if off_diag_slack == 0.0:
        eigs = np.linalg.eigvalsh(reduced)
        min_eigen = float(min(eigs.min(), blocks.uu))
    else:
        lowers = [blocks.rr]
        for i in range(n):
            known_off = float(np.sum(np.abs(blocks.yy[i]))) - abs(float(blocks.yy[i, i]))
            lowers.append(blocks.yy[i, i] - known_off - (n - 1) * off_diag_slack)
        min_eigen = float(min(min(lowers), blocks.uu))
    min_eigen += 0.0  # normalize -0.0
    return PdResult(positive_definite=bool(min_eigen > 0.0), min_eigen=min_eigen)


# --- chart realization and oracle verification ---------------------------


def _classify(spec: WarpedFamilySpec) -> str:
    if spec.structure_vanishes:
        return "torus"
    if spec.n == 3:
        want = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0}
        ok = True
        for (i, j, k), v in spec.structure.items():
            expected = want.get((i, j, k), -want.get((j, i, k), 0.0) if (j, i, k) in want else None)
            if expected is None:
                ok = False
                break
            if v != expected * QUATERNIONIC_BRACKET:
                ok = False
                break
        if ok:
            return "s3"
    raise ValueError(
        "spec is not realizable as a preset chart (need vanishing structure "
        "coefficients, or the quaternionic 3-sphere pattern with bracket 2)"
    )


def chart_metric(spec: WarpedFamilySpec, p: int) -> oracle.ChartMetric:
    """Coordinate chart for a realizable spec: E-coordinates, then a
    stereographic chart of the unit (p-1)-sphere scaled by f(r), then r."""
    kind = _classify(spec)
    n, ps = spec.n, p - 1
    d = n + ps + 1
    if d > oracle.MAX_DIM:
        raise ValueError(f"chart dimension {d} exceeds the oracle cap {oracle.MAX_DIM}")
    f_expr = spec.f
    h_exprs = spec.h

    def comps(x: np.ndarray) -> np.ndarray:
        r = x[:, -1]
        y = x[:, n : n + ps]
        fv = exprs.evaluate_grid(f_expr, r)
        h2 = np.square([exprs.evaluate_grid(e, r) for e in h_exprs]).reshape(n, len(x)).T
        conf = 4.0 * fv**2 / (1.0 + np.sum(y * y, axis=1)) ** 2
        g = np.zeros((len(x), d, d))
        g[:, np.arange(n), np.arange(n)] = h2
        g[:, np.arange(n, n + ps), np.arange(n, n + ps)] = conf[:, None]
        g[:, -1, -1] = 1.0
        if kind == "s3":
            mm = oracle.su2_frame_matrix(x[:, :3])
            g[:, :3, :3] = 0.25 * np.swapaxes(mm, -1, -2) * h2[:, None, :] @ mm
        return g

    def domain(x: np.ndarray) -> bool:
        if x[-1] <= 1e-3:
            return False
        if kind == "s3" and not (0.05 < x[0] < np.pi - 0.05):
            return False
        return True

    return oracle.ChartMetric(d, comps, domain=domain, label=spec.label or f"warped:{kind}:p={p}")


def frame_at(
    spec: WarpedFamilySpec,
    p: int,
    r: float,
    e_point: Optional[np.ndarray] = None,
    sphere_point: Optional[np.ndarray] = None,
) -> oracle.FrameAtPoint:
    """The orthonormal frame {d_r, U_a, Y_i} at a chart point."""
    kind = _classify(spec)
    n, ps = spec.n, p - 1
    d = n + ps + 1
    if e_point is None:
        e_point = np.full(n, 1.1) if kind == "s3" else np.zeros(n)
    if sphere_point is None:
        sphere_point = np.linspace(0.2, 0.4, ps)
    x = np.concatenate([np.asarray(e_point, float), np.asarray(sphere_point, float), [r]])
    fv = exprs.evaluate(spec.f, r)
    hv = [exprs.evaluate(e, r) for e in spec.h]
    cols = np.zeros((d, d))
    cols[-1, 0] = 1.0  # d_r
    conf = (1.0 + float(sphere_point @ sphere_point)) / (2.0 * fv)
    for a in range(ps):
        cols[n + a, 1 + a] = conf
    if kind == "torus":
        for i in range(n):
            cols[i, 1 + ps + i] = 1.0 / hv[i]
    else:
        frame = 2.0 * np.linalg.inv(oracle.su2_frame_matrix(x[:3]))
        for i in range(3):
            cols[:3, 1 + ps + i] = frame[:, i] / hv[i]
    return oracle.FrameAtPoint(x, cols)


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
    rs: Sequence[float],
    tol: float,
    step: Optional[float] = None,
) -> WarpedVerifyReport:
    """Compare the closed-form blocks with the chart oracle at each radius.

    Every row gates the PASS verdict at the given tolerance: rr, each
    uu, each upper-triangular yy entry, and one ``mixed-zero`` row
    holding the largest oracle entry among those the closed form says
    vanish (sphere-mixed, sphere/E and radial/E).
    """
    if p not in (3, 4, 5):
        raise ValueError("oracle verification supports p in {3, 4, 5}")
    metric = chart_metric(spec, p)
    rows: list = []
    n, ps = spec.n, p - 1
    for r in rs:
        blocks = ricci_warped(spec, float(r), p)
        fr = frame_at(spec, p, float(r))
        full = oracle.frame_ricci(metric, fr, step=step)
        # frame order: [d_r | U_1..U_ps | Y_1..Y_n]
        o_uu = np.diag(full)[1 : 1 + ps]
        o_yy = full[1 + ps :, 1 + ps :]
        mixed = [abs(full[0, 1 + a]) for a in range(ps)]
        mixed += [abs(full[1 + a, 1 + b]) for a in range(ps) for b in range(a + 1, ps)]
        mixed += [abs(full[1 + a, 1 + ps + i]) for a in range(ps) for i in range(n)]
        mixed += [abs(full[0, 1 + ps + i]) for i in range(n)]

        def row(entry, closed, oracle_value):
            dev = abs(closed - oracle_value)
            rows.append(
                {
                    "r": float(r),
                    "entry": entry,
                    "closed": float(closed),
                    "oracle": float(oracle_value),
                    "deviation": float(dev),
                    "gating": True,
                    "pass": bool(dev <= tol),
                }
            )

        row("rr", blocks.rr, full[0, 0])
        for a in range(ps):
            row(f"uu[{a}]", blocks.uu, o_uu[a])
        row("mixed-zero", 0.0, max(mixed))
        for i in range(n):
            for j in range(i, n):
                row(f"yy[{i},{j}]", blocks.yy[i, j], o_yy[i, j])
    return WarpedVerifyReport(passed=all(row["pass"] for row in rows), rows=rows, tol=tol)


# --- smoothness at the axis ------------------------------------------------

AXIS_EPS = 1e-6  # the metric degenerates at r = 0; limits are taken here


@dataclass(frozen=True)
class SmoothnessReport:
    f_zero_at_axis: bool
    f_prime_one_at_axis: bool
    f_second_zero_at_axis: bool
    f_positive: bool
    h_prime_zero_at_axis: tuple[bool, ...]
    h_positive: tuple[bool, ...]
    tol: float

    @property
    def all_ok(self) -> bool:
        return (
            self.f_zero_at_axis
            and self.f_prime_one_at_axis
            and self.f_second_zero_at_axis
            and self.f_positive
            and all(self.h_prime_zero_at_axis)
            and all(self.h_positive)
        )


def smoothness_check(
    spec: WarpedFamilySpec, tol: float, r_max: float = 10.0, grid_points: int = 200
) -> SmoothnessReport:
    """Check the smooth-extension conditions at the degenerate axis r = 0:
    f(0) = 0, f'(0) = 1, f''(0) = 0, f > 0 away from the axis, and
    h_i'(0) = 0, each within tol, with axis values read at r = 1e-6."""
    eps = AXIS_EPS
    f0 = exprs.evaluate(spec.f, eps)
    f1 = exprs.evaluate(exprs.diff(spec.f, 1), eps)
    f2 = exprs.evaluate(exprs.diff(spec.f, 2), eps)
    grid = np.linspace(eps, r_max, grid_points)
    fgrid = exprs.evaluate_grid(spec.f, grid)
    hprimes = []
    hpos = []
    for e in spec.h:
        hprimes.append(bool(abs(exprs.evaluate(exprs.diff(e, 1), eps)) <= tol))
        hpos.append(bool(np.all(exprs.evaluate_grid(e, grid) > 0.0)))
    return SmoothnessReport(
        f_zero_at_axis=bool(abs(f0) <= tol),
        f_prime_one_at_axis=bool(abs(f1 - 1.0) <= tol),
        f_second_zero_at_axis=bool(abs(f2) <= tol),
        f_positive=bool(np.all(fgrid > 0.0)),
        h_prime_zero_at_axis=tuple(hprimes),
        h_positive=tuple(hpos),
        tol=tol,
    )


# --- JSON schema ----------------------------------------------------------


def spec_from_json(data) -> WarpedFamilySpec:
    """Build a spec from the JSON schema
    {"n", "f", "h", "structure", "baseRicci"}.

    baseRicci is "zero", "constant:<json matrix>", or
    "scaledIdentity:<expression>"; structure rows are [i, j, k, value]
    with 0-based indices.
    """
    if isinstance(data, str):
        data = json.loads(data)
    try:
        n = int(data["n"])
        f = exprs.parse(data["f"])
        h = tuple(exprs.parse(t) for t in data.get("h", []))
    except KeyError as err:
        raise ValueError(f"spec file missing field {err}") from None
    structure = {}
    for row in data.get("structure", []):
        i, j, k, v = row
        structure[(int(i), int(j), int(k))] = float(v)
    base_text = data.get("baseRicci", "zero")
    if base_text == "zero":
        base = zero_base_ricci(n)
    elif base_text.startswith("constant:"):
        matrix = np.asarray(json.loads(base_text[len("constant:") :]), dtype=float)
        if matrix.shape != (n, n):
            raise ValueError(f"constant base Ricci has shape {matrix.shape}, expected ({n},{n})")

        def base(r: float, _m=matrix) -> np.ndarray:
            return _m

    elif base_text.startswith("scaledIdentity:"):
        scale = exprs.parse(base_text[len("scaledIdentity:") :])

        def base(r: float, _s=scale) -> np.ndarray:
            return exprs.evaluate(_s, r) * np.eye(n)

    else:
        raise ValueError(f"unknown baseRicci form {base_text!r}")
    return WarpedFamilySpec(
        n=n, f=f, h=h, structure=structure, base_ricci=base, label=data.get("label", "")
    )


def spec_to_json(spec: WarpedFamilySpec, base_text: str = "zero") -> dict:
    rows = sorted((i, j, k, v) for (i, j, k), v in spec.structure.items() if i < j)
    return {
        "n": spec.n,
        "f": exprs.to_text(spec.f),
        "h": [exprs.to_text(e) for e in spec.h],
        "structure": [[i, j, k, v] for i, j, k, v in rows],
        "baseRicci": base_text,
        "label": spec.label,
    }


# --- presets ---------------------------------------------------------------


def reference_torus_spec() -> WarpedFamilySpec:
    """Flat circle factor with the reference profiles: n = 1,
    h_1 = (1+r^2)^(-1), f = r (1+r^2)^(-1/4), zero base Ricci."""
    from .positivity import reference_profiles

    f, h = reference_profiles()
    return WarpedFamilySpec(n=1, f=f, h=(h,), label="torus-reference")


def left_invariant_s3_spec(
    h_texts: Sequence[str] = ("(1+r^2)^(-1)", "(1+r^2)^(-3/4)", "(1+r^2)^(-1/2)"),
) -> WarpedFamilySpec:
    """E = 3-sphere with a left-invariant family: three unequal scales
    h_i(r) on the quaternionic frame, base Ricci from the closed-form
    left-invariant formula, nonzero structure coefficients."""
    from .positivity import reference_profiles

    f, _ = reference_profiles()
    h = tuple(exprs.parse(t) for t in h_texts)

    def base(r: float) -> np.ndarray:
        scales = [exprs.evaluate(e, r) for e in h]
        return np.diag(oracle.left_invariant_s3_ricci(scales))

    b = QUATERNIONIC_BRACKET
    structure = {(0, 1, 2): b, (1, 2, 0): b, (2, 0, 1): b}
    return WarpedFamilySpec(
        n=3, f=f, h=h, structure=structure, base_ricci=base, label="s3-left-invariant"
    )


def round_sphere_spec() -> WarpedFamilySpec:
    """n = 0 and f = sin r: the warped metric is the round p-sphere on
    r in (0, pi), with Ricci (p-1) times the identity."""
    return WarpedFamilySpec(n=0, f=exprs.parse("sin(r)"), h=(), label="round-sphere")
