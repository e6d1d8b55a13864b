"""Independent numerical curvature oracle for coordinate-chart metrics.

Christoffel symbols, the Riemann and Ricci tensors, and sectional
curvature are computed from metric components alone, by fourth-order
central differences with one level of Richardson extrapolation. Every
closed-form module in this package is tested against these routines;
nothing here shares code with the closed forms.

Conventions
-----------
Riemann tensor components follow ``R(d_mu, d_nu) d_sigma = R^rho_{sigma
mu nu} d_rho`` and the Ricci tensor is the contraction ``Ric_{sigma nu}
= R^mu_{sigma mu nu}``, which makes round spheres positively curved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ChartMetric",
    "FrameAtPoint",
    "OracleError",
    "SingularMetricError",
    "christoffel",
    "riemann",
    "ricci",
    "ricci_with_asymmetry",
    "frame_ricci",
    "sectional",
    "preset",
    "left_invariant_s3_ricci",
    "euclidean_chart",
    "sphere_chart",
    "hyperbolic_plane_chart",
    "s3_left_invariant_chart",
    "su2_frame_matrix",
    "MAX_DIM",
]

MAX_DIM = 8
DEFAULT_STEP = 1e-3


class OracleError(Exception):
    """Base class for oracle failures."""


class SingularMetricError(OracleError):
    """Metric is numerically singular at the evaluation point."""


def _symmetrize(g: np.ndarray) -> np.ndarray:
    return 0.5 * (g + np.swapaxes(g, -1, -2))


@dataclass(frozen=True)
class ChartMetric:
    """A coordinate-patch metric.

    Parameters
    ----------
    dim : positive chart dimension (capped at MAX_DIM; finite differencing
        cost grows like dim**4).
    components : (N, dim) array of points -> (N, dim, dim) array of metric
        components, one matrix per row. Only the symmetrized matrices are
        ever used.
    domain : predicate deciding whether a single point is inside the chart.
    label : human-readable name for reports.
    """

    dim: int
    components: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool] = field(default=lambda x: True)
    label: str = ""

    def __post_init__(self):
        if not (0 < self.dim <= MAX_DIM):
            raise ValueError(f"chart dimension must be in 1..{MAX_DIM}")

    def at(self, x: np.ndarray) -> np.ndarray:
        """Symmetrized metric components at the single point x."""
        batch = np.asarray(x, dtype=float)[None, :]
        return _symmetrize(np.asarray(self.components(batch), dtype=float))[0]

    def check_point(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        if not self.domain(x):
            raise OracleError(f"point {x} outside chart domain of {self.label or 'metric'}")
        g = self.at(x)
        w = np.linalg.eigvalsh(g)
        if w.min() <= 1e-12:
            raise SingularMetricError(
                f"metric not positive definite at {x} (min eigenvalue {w.min():.3e})"
            )


@dataclass(frozen=True)
class FrameAtPoint:
    """A g-orthonormal frame at a point, stored as matrix columns."""

    x: np.ndarray
    vectors: np.ndarray  # (dim, dim), columns are the frame vectors

    def orthonormality_defect(self, metric: ChartMetric) -> float:
        g = metric.at(self.x)
        gram = self.vectors.T @ g @ self.vectors
        return float(np.max(np.abs(gram - np.eye(metric.dim))))


# --- finite differences ---------------------------------------------------

# Fourth-order first-derivative stencil on offsets (-2, -1, 1, 2).
_D1_OFFSETS = (-2, -1, 1, 2)
_D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def _steps(x: np.ndarray, step: float) -> np.ndarray:
    return step * np.maximum(1.0, np.abs(x))


@functools.lru_cache(maxsize=None)
def _stencil(d: int):
    """Stencil tables for dimension d.

    Returns the offsets, in steps, of the 1 + 4d + 8d(d-1) distinct points
    (the centre, four points on each axis, sixteen in each coordinate
    plane) and index tables into them: ``axis[k, i]`` is the point
    ``_D1_OFFSETS[k]`` steps along axis i, and ``cross[a, b, q]`` the point
    ``_D1_OFFSETS[a]`` steps along ``iu[q]`` and ``_D1_OFFSETS[b]`` along
    ``ju[q]``, for the pairs iu < ju.
    """
    iu, ju = np.triu_indices(d, 1)
    on_axis = np.array(_D1_OFFSETS, dtype=float)[:, None, None] * np.eye(d)
    in_plane = on_axis[:, None, iu] + on_axis[None, :, ju]
    offsets = np.concatenate([np.zeros((1, d)), on_axis.reshape(-1, d), in_plane.reshape(-1, d)])
    axis = 1 + np.arange(4 * d).reshape(4, d)
    cross = 1 + 4 * d + np.arange(16 * len(iu)).reshape(4, 4, len(iu))
    return offsets, axis, cross, iu, ju


def _metric_derivatives(m: ChartMetric, x: np.ndarray, step: float):
    """Return g, dg[i] = d_i g, and d2g[i][j] = d_i d_j g by 4th-order stencils,
    from one chart evaluation at all stencil points."""
    d = m.dim
    h = _steps(x, step)
    offsets, axis, cross, iu, ju = _stencil(d)
    g = _symmetrize(np.asarray(m.components(x + h * offsets), dtype=float))
    g0 = g[0]

    acc = np.zeros((d, d, d))
    for k, w in enumerate(_D1_WEIGHTS):
        acc += w * g[axis[k]]
    dg = acc / h[:, None, None]

    d2g = np.empty((d, d, d, d))
    # pure second derivative, 4th order; axis[3], axis[2], axis[1], axis[0]
    # are the offsets +2, +1, -1, -2
    acc = -g[axis[3]] + 16.0 * g[axis[2]] - 30.0 * g0 + 16.0 * g[axis[1]] - g[axis[0]]
    diag = np.arange(d)
    d2g[diag, diag] = acc / (12.0 * h**2)[:, None, None]
    acc = np.zeros((len(iu), d, d))
    for a, wi in enumerate(_D1_WEIGHTS):
        for b, wj in enumerate(_D1_WEIGHTS):
            acc += wi * wj * g[cross[a, b]]
    d2g[iu, ju] = acc / (h[iu] * h[ju])[:, None, None]
    d2g[ju, iu] = d2g[iu, ju]
    return g0, dg, d2g


def _christoffel_and_derivative(m: ChartMetric, x: np.ndarray, step: float):
    g0, dg, d2g = _metric_derivatives(m, x, step)
    if np.linalg.cond(g0) > 1e12:
        raise SingularMetricError(f"metric condition number exceeds 1e12 at {x}")
    ginv = np.linalg.inv(g0)
    # comb[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    comb = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, comb)

    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}; d_m (d_i g_jl) = d2g[m, i, j, l]
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dcomb = d2g.transpose(0, 3, 1, 2) + d2g.transpose(0, 3, 2, 1) - d2g  # dcomb[m, l, i, j]
    dgamma = 0.5 * (
        np.einsum("mkl,lij->mkij", dginv, comb) + np.einsum("kl,mlij->mkij", ginv, dcomb)
    )
    return g0, gamma, dgamma


def christoffel(m: ChartMetric, x: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of the Levi-Civita connection at x.

    Metric derivatives are taken by fourth-order central differences with
    per-coordinate steps scaled by the local coordinate magnitude. The
    point must lie inside the chart with margin at least 2*step.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    m.check_point(x)
    _, gamma, _ = _christoffel_and_derivative(m, np.asarray(x, dtype=float), step)
    return gamma


def _riemann_once(m: ChartMetric, x: np.ndarray, step: float) -> np.ndarray:
    _, gamma, dgamma = _christoffel_and_derivative(m, x, step)
    # R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    #                      + Gamma^rho_{mu lam} Gamma^lam_{nu sigma}
    #                      - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}
    term1 = np.einsum("mrns->rsmn", dgamma)
    term2 = np.einsum("nrms->rsmn", dgamma)
    term3 = np.einsum("rml,lns->rsmn", gamma, gamma)
    term4 = np.einsum("rnl,lms->rsmn", gamma, gamma)
    return term1 - term2 + term3 - term4


def riemann(
    m: ChartMetric,
    x: np.ndarray,
    step: Optional[float] = None,
    richardson: bool = True,
) -> np.ndarray:
    """Riemann tensor R^rho_{sigma mu nu} at x.

    With richardson=True the fourth-order result is extrapolated once
    (evaluations at step and step/2), which recovers most of the digits
    lost to differencing second derivatives of the metric.
    """
    x = np.asarray(x, dtype=float)
    m.check_point(x)
    s = DEFAULT_STEP if step is None else float(step)
    if s <= 0:
        raise ValueError("step must be positive")
    coarse = _riemann_once(m, x, s)
    if not richardson:
        return coarse
    fine = _riemann_once(m, x, s / 2.0)
    return (16.0 * fine - coarse) / 15.0


def ricci_with_asymmetry(
    m: ChartMetric,
    x: np.ndarray,
    step: Optional[float] = None,
    richardson: bool = True,
) -> tuple[np.ndarray, float]:
    """Coordinate Ricci tensor and the max |R_ij - R_ji| before symmetrization."""
    riem = riemann(m, x, step=step, richardson=richardson)
    ric = np.einsum("rsrn->sn", riem)
    asym = float(np.max(np.abs(ric - ric.T)))
    return 0.5 * (ric + ric.T), asym


def ricci(
    m: ChartMetric,
    x: np.ndarray,
    step: Optional[float] = None,
    richardson: bool = True,
) -> np.ndarray:
    """Symmetrized coordinate-basis Ricci tensor R_ij at x."""
    return ricci_with_asymmetry(m, x, step=step, richardson=richardson)[0]


def frame_ricci(
    m: ChartMetric,
    fr: FrameAtPoint,
    step: Optional[float] = None,
    richardson: bool = True,
) -> np.ndarray:
    """Ricci tensor expressed in a g-orthonormal frame, Ric(e_a, e_b)."""
    defect = fr.orthonormality_defect(m)
    if defect > 1e-8:
        raise OracleError(f"frame is not orthonormal (defect {defect:.3e} > 1e-8)")
    ric = ricci(m, fr.x, step=step, richardson=richardson)
    return fr.vectors.T @ ric @ fr.vectors


def sectional(
    m: ChartMetric,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    step: Optional[float] = None,
    richardson: bool = True,
) -> float:
    """Sectional curvature of the plane spanned by u and v at x."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = m.at(x)
    uu = float(u @ g @ u)
    vv = float(v @ g @ v)
    uv = float(u @ g @ v)
    denom = uu * vv - uv * uv
    if denom < 1e-12:
        raise OracleError("degenerate plane: |u|^2 |v|^2 - <u,v>^2 < 1e-12")
    riem = riemann(m, x, step=step, richardson=richardson)
    # <R(u,v)v, u> = g_{ra} R^r_{smn} u^m v^n v^s u^a
    num = float(np.einsum("ra,rsmn,m,n,s,a->", g, riem, u, v, v, u))
    return num / denom


# --- preset charts --------------------------------------------------------


def euclidean_chart(d: int) -> ChartMetric:
    eye = np.eye(d)
    return ChartMetric(d, lambda x: np.broadcast_to(eye, (len(x), d, d)), label=f"euclidean:{d}")


def sphere_chart(d: int, radius: float = 1.0) -> ChartMetric:
    """Round d-sphere of the given radius in its stereographic chart.

    Components are 4 a^2 / (1 + |x|^2)^2 times the identity; the chart
    covers everything except one point, and test points are kept inside
    |x| <= 2.
    """
    a2 = float(radius) ** 2

    def comps(x: np.ndarray) -> np.ndarray:
        conf = 4.0 * a2 / (1.0 + np.sum(x * x, axis=1)) ** 2
        return conf[:, None, None] * np.eye(d)

    return ChartMetric(d, comps, label=f"sphere:{d}:{radius}")


def hyperbolic_plane_chart() -> ChartMetric:
    def comps(x: np.ndarray) -> np.ndarray:
        g = np.zeros((len(x), 2, 2))
        g[:, [0, 1], [0, 1]] = (1.0 / x[:, 1] ** 2)[:, None]
        return g

    return ChartMetric(2, comps, domain=lambda x: x[1] > 1e-3, label="hyperbolic2")


def su2_frame_matrix(point: np.ndarray) -> np.ndarray:
    """Coframe matrices M of the standard left-invariant one-forms on the
    3-sphere group in Euler-angle coordinates (theta, phi, psi); row i of
    M holds the components of the i-th one-form. Points of shape (..., 3)
    give matrices of shape (..., 3, 3)."""
    point = np.asarray(point, dtype=float)
    theta, psi = point[..., 0], point[..., 2]
    sin_theta = np.sin(theta)
    mm = np.zeros(point.shape[:-1] + (3, 3))
    mm[..., 0, 0] = np.cos(psi)
    mm[..., 0, 1] = np.sin(psi) * sin_theta
    mm[..., 1, 0] = np.sin(psi)
    mm[..., 1, 1] = -np.cos(psi) * sin_theta
    mm[..., 2, 1] = np.cos(theta)
    mm[..., 2, 2] = 1.0
    return mm


def s3_left_invariant_chart(l1: float, l2: float, l3: float) -> ChartMetric:
    """Left-invariant metric diag(l1^2, l2^2, l3^2) against the unit frame
    of the round 3-sphere, in an Euler-angle chart (valid for sin(theta) != 0).

    With l1 = l2 = l3 = 1 this is the round unit 3-sphere; scaling only
    the third direction gives the family obtained by shrinking the circle
    fibers of the Hopf map.
    """
    lam2 = np.diag([float(l1) ** 2, float(l2) ** 2, float(l3) ** 2])

    def comps(x: np.ndarray) -> np.ndarray:
        mm = su2_frame_matrix(x)
        return 0.25 * np.swapaxes(mm, -1, -2) @ lam2 @ mm

    return ChartMetric(
        3,
        comps,
        domain=lambda x: 0.05 < x[0] % (2 * np.pi) < np.pi - 0.05,
        label=f"s3-left-invariant:{l1}:{l2}:{l3}",
    )


def left_invariant_s3_ricci(scales) -> np.ndarray:
    """Closed-form Ricci eigenvalues of the left-invariant 3-sphere metric
    with the given scales, in the orthonormal frame aligned with the group
    frame.

    For orthonormal frame fields with brackets [f_i, f_j] = c_k f_k
    (cyclic), the principal Ricci curvatures are 2 mu_j mu_k where
    mu_i = (c_1 + c_2 + c_3)/2 - c_i. The unit round sphere (all scales 1)
    gives c_i = 2 and Ricci 2 in every direction.
    """
    h1, h2, h3 = (float(s) for s in scales)
    c = np.array([2.0 * h1 / (h2 * h3), 2.0 * h2 / (h1 * h3), 2.0 * h3 / (h1 * h2)])
    mu = c.sum() / 2.0 - c
    return np.array([2.0 * mu[1] * mu[2], 2.0 * mu[0] * mu[2], 2.0 * mu[0] * mu[1]])


def preset(name: str) -> ChartMetric:
    """Look up a chart by registry name.

    Supported: ``euclidean:d``, ``sphere:d:a``, ``hyperbolic2``,
    ``s3-left-invariant:l1:l2:l3``. Warped charts are constructed from a
    warped-family spec by the warped module, not by name.
    """
    parts = name.split(":")
    kind = parts[0]
    try:
        if kind == "euclidean" and len(parts) == 2:
            return euclidean_chart(int(parts[1]))
        if kind == "sphere" and len(parts) == 3:
            return sphere_chart(int(parts[1]), float(parts[2]))
        if kind == "hyperbolic2" and len(parts) == 1:
            return hyperbolic_plane_chart()
        if kind == "s3-left-invariant" and len(parts) == 4:
            return s3_left_invariant_chart(float(parts[1]), float(parts[2]), float(parts[3]))
    except ValueError as err:
        raise ValueError(f"bad preset parameters in {name!r}: {err}") from None
    if kind == "warped":
        raise ValueError("warped charts are built from a spec; see ricciforge.warped.chart_metric")
    raise ValueError(f"unknown preset {name!r}")
