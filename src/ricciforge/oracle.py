"""Independent numerical curvature oracle for coordinate-chart metrics.

The Ricci tensor, in coordinates or in an orthonormal frame, and
sectional curvature are computed from metric components alone, through
the Christoffel symbols and the Riemann tensor. First derivatives
are complex-step derivatives, Im g(x + i eta e_k) / eta with eta = 1e-30,
which subtract nothing; second derivatives are fourth-order central
differences of those in a real step. Every closed-form module in this
package is tested against these routines; nothing here shares code with
the closed forms.

Conventions
-----------
Riemann tensor components follow ``R(d_mu, d_nu) d_sigma = R^rho_{sigma
mu nu} d_rho`` and the Ricci tensor is the contraction ``Ric_{sigma nu}
= R^mu_{sigma mu nu}``, which makes round spheres positively curved.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ChartMetric",
    "FrameAtPoint",
    "OracleError",
    "SingularMetricError",
    "ricci",
    "frame_ricci",
    "frame_ricci_many",
    "sectional",
    "preset",
    "euclidean_chart",
    "sphere_chart",
    "hyperbolic_plane_chart",
    "s3_left_invariant_chart",
    "su2_frame_matrix",
    "su2_metric",
    "su2_frame",
    "orthonormal_frames",
    "MAX_DIM",
]

MAX_DIM = 8
DEFAULT_STEP = 3e-4  # the real step, scaled by max(1, |x_l|) along axis l


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
    dim : positive chart dimension, at most MAX_DIM: the largest warped
        chart (n = 3, p = 5) has dimension 8. One point's stencil has
        1 + dim + 2 dim (dim + 1) rows, 153 at dimension 8, and holds
        16 * dim**2 bytes of components per row, 153 KiB at dimension 8,
        so one chart call of CHART_CALL_BYTES holds the stencils of 8
        points at dimension 8, 13 at 7 and 23 at 6.
    components : (N, dim) array of points -> (N, dim, dim) array of metric
        components, one matrix per row from that row's point alone; the
        rows of one call may belong to several points' stencils. Only the
        symmetrized matrices are ever used. The oracle passes complex
        points and reads derivatives from the imaginary parts, so
        components must return an array of the input dtype, built only
        from operations that extend holomorphically: no abs, comparisons
        or float casts on coordinate values. A real array returned for
        complex points raises OracleError.
    domain : predicate deciding whether a single point is inside the chart.
    label : human-readable name for reports.
    """

    dim: int
    components: Callable[[np.ndarray], np.ndarray]
    domain: Callable[[np.ndarray], bool] = field(default=lambda x: True)
    label: str = ""

    def __post_init__(self):
        if not (0 < self.dim <= MAX_DIM):
            raise ValueError(f"chart dimension {self.dim} is not in 1..{MAX_DIM}")

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


@dataclass(frozen=True)
class FrameAtPoint:
    """A g-orthonormal frame at a point, stored as matrix columns."""

    x: np.ndarray
    vectors: np.ndarray  # (dim, dim), columns are the frame vectors


def orthonormal_frames(m: ChartMetric, xs) -> list:
    """A g-orthonormal frame at each row of xs: the eigenvectors of g, each
    divided by the square root of its eigenvalue, from one chart call and
    one batched eigh."""
    xs = np.asarray(xs, dtype=float)
    vals, vecs = np.linalg.eigh(_symmetrize(np.asarray(m.components(xs), dtype=float)))
    return [FrameAtPoint(x, v / np.sqrt(w)) for x, w, v in zip(xs, vals, vecs)]


# --- finite differences ---------------------------------------------------

# Fourth-order first-derivative stencil on offsets (-2, -1, 1, 2).
_D1_OFFSETS = (-2, -1, 1, 2)
_D1_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)
# The imaginary step: Im g(x + i eta e_k) / eta is d_k g up to O(eta^2)
# and subtracts nothing, so eta sits far below any real step.
_ETA = 1e-30


@functools.lru_cache(maxsize=None)
def _stencil(d: int):
    """Real offsets, in steps, and imaginary directions of the
    1 + d + 4 d(d+1)/2 stencil rows, and the pairs kk <= ll. Row 0 is the
    centre; row 1 + k takes the imaginary step along k; row
    1 + d + a * len(kk) + q adds _D1_OFFSETS[a] real steps along ll[q] to
    the imaginary step along kk[q]."""
    kk, ll = np.triu_indices(d)
    eye = np.eye(d)
    along = np.array(_D1_OFFSETS, dtype=float)[:, None, None] * eye[ll]
    shift = np.concatenate([np.zeros((1 + d, d)), along.reshape(-1, d)])
    imag = np.concatenate([np.zeros((1, d)), eye, np.tile(eye[kk], (len(_D1_OFFSETS), 1))])
    return shift, imag, kk, ll


def _metric_derivatives(m: ChartMetric, xs: np.ndarray, step: float = DEFAULT_STEP):
    """Check the points, then return g, dg[:, k] = d_k g and d2g[:, k, l] =
    d_k d_l g at each row of the (R, d) array xs, from one chart evaluation
    at the stencil rows of all R points. d_k g is the complex-step
    derivative; d_k d_l g is its 4th-order central difference in l, with
    step * max(1, |x_l|). Only the real centre row and the imaginary
    derivative rows are symmetrized; that is elementwise, so no point's
    values depend on R. The checks run over all R points at once and raise
    what a loop over the points would raise first."""
    for x in xs:
        m.check_point(x)
    r, d = xs.shape
    h = step * np.maximum(1.0, np.abs(xs))
    shift, imag, kk, ll = _stencil(d)
    # chart row j * R + p is stencil row j of point p
    pts = xs + h * shift[:, None] + 1j * _ETA * imag[:, None]
    # an overflow shows up as a non-finite entry, reported below; rows combine in place
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(m.components(pts.reshape(-1, d))).reshape(len(shift), r, d, d)
        del pts
        real, g0, im = not np.iscomplexobj(g), _symmetrize(g[0].real), g[1:].imag
        der = im + im.swapaxes(-1, -2)
        del g, im
        np.divide(np.multiply(der, 0.5, out=der), _ETA, out=der)
        dg = np.ascontiguousarray(der[:d].swapaxes(0, 1))
        cross = der[d:].reshape(len(_D1_OFFSETS), len(kk), r, d, d)
        acc = np.zeros(cross.shape[1:])  # from +0.0, so that a sum of -0.0 terms is +0.0
        for w, term in zip(_D1_WEIGHTS, cross):
            acc += w * term
        d2g = np.zeros((r, d, d, d, d))
        d2g[:, kk, ll] = np.divide(acc, h.T[ll][:, :, None, None], out=acc).swapaxes(0, 1)
        d2g[:, ll, kk] = d2g[:, kk, ll]
    _finite("metric derivatives are", xs, g0, dg, d2g)
    # ascending eigenvalues; g is symmetric, so its condition number is w[-1] / w[0]
    w = np.linalg.eigvalsh(g0)
    with np.errstate(all="ignore"):
        bad = (w[:, 0] <= 1e-12) | (w[:, -1] / w[:, 0] > 1e12)
    if bad.any():
        i = np.argmax(bad)
        if w[i, 0] <= 1e-12:
            raise SingularMetricError(
                f"metric not positive definite at {xs[i]} (min eigenvalue {w[i, 0]:.3e})"
            )
        raise SingularMetricError(f"metric condition number exceeds 1e12 at {xs[i]}")
    if real:
        raise OracleError(
            f"chart {m.label or 'metric'} returned real components at complex points, "
            "so every derivative would read 0; build them holomorphically in x.dtype"
        )
    return g0, dg, d2g


def _finite(what: str, xs: np.ndarray, *arrays: np.ndarray) -> None:
    """Raise OracleError naming the first point of the (R, d) array xs at
    which an entry of the (R, ...) arrays is not finite."""
    if not all(np.isfinite(a).all() for a in arrays):  # then find the point
        ok = np.logical_and.reduce([np.isfinite(a).reshape(len(xs), -1).all(axis=1) for a in arrays])
        raise OracleError(f"{what} not finite at {xs[np.argmin(ok)]}")


def _christoffel(g0: np.ndarray, dg: np.ndarray):
    """(g^{-1}, comb, Gamma) at each point from the (R, d, d) metric and its
    (R, d, d, d) first derivatives."""
    ginv = np.linalg.inv(g0)
    # comb[:, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij; Gamma sums over l by a matmul
    comb = dg.transpose(0, 3, 1, 2) + dg.transpose(0, 3, 2, 1) - dg
    return ginv, comb, 0.5 * (ginv @ comb.reshape(*comb.shape[:2], -1)).reshape(comb.shape)


def _curvature(g0: np.ndarray, dg: np.ndarray, d2g: np.ndarray) -> np.ndarray:
    """Riemann tensor at each point from g, dg and d2g with a leading point axis."""
    ginv, comb, gamma = _christoffel(g0, dg)
    r, d = g0.shape[:2]
    # each sum over l is a batched matmul, with (i, j) flattened into one column axis
    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}; d_m (d_i g_jl) = d2g[:, m, i, j, l]
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    dcomb = d2g.transpose(0, 1, 4, 2, 3) + d2g.transpose(0, 1, 4, 3, 2) - d2g  # [:, m, l, i, j]
    dgamma = 0.5 * (
        dginv @ comb.reshape(r, 1, d, d * d) + ginv[:, None] @ dcomb.reshape(r, d, d, d * d)
    ).reshape(r, d, d, d, d)  # [:, m, k, i, j]
    # R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    #                      + Gamma^rho_{mu lam} Gamma^lam_{nu sigma}
    #                      - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}
    # and each odd term is the even one before it with mu and nu swapped
    term1 = dgamma.transpose(0, 2, 4, 1, 3)
    term3 = (gamma.reshape(r, d * d, d) @ gamma.reshape(r, d, d * d)).reshape(dgamma.shape)
    term3 = term3.transpose(0, 1, 4, 2, 3)  # from [:, rho, mu, nu, sigma]
    return term1 - term1.swapaxes(-1, -2) + term3 - term3.swapaxes(-1, -2)


# Bytes of metric components one chart call of frame_ricci_many may build, each
# chunk contracted before the next: 8 points' stencils at d = 8 (see ChartMetric),
# so a verify of up to 8 radii at d = 8 is one call. Page faults and tracemalloc
# peaks per verify, at this cap and at 600 KiB, are in BENCH_10.json.
CHART_CALL_BYTES = 1224 * 1024


def _riemann(m: ChartMetric, xs, step: float = DEFAULT_STEP):
    """(g, Riemann) at the points of the (R, d) array xs, as (R, d, d) and
    (R, d, d, d, d) arrays, from one chart call contracted in one pass over
    a leading point axis. No step mixes points, so every result is the
    same for any R. step is the real step delta; the public routines all
    use DEFAULT_STEP."""
    xs = np.asarray(xs, dtype=float)
    g0, dg, d2g = _metric_derivatives(m, xs, step)
    with np.errstate(over="ignore", invalid="ignore"):
        riem = _curvature(g0, dg, d2g)
    _finite("curvature is", xs, riem)
    return g0, riem


def _ricci_of(riem: np.ndarray) -> np.ndarray:
    """Ric_{sigma nu} = R^mu_{sigma mu nu}, before symmetrization, over leading axes."""
    return np.einsum("...rsrn->...sn", riem)


def ricci(m: ChartMetric, x: np.ndarray) -> np.ndarray:
    """Symmetrized coordinate-basis Ricci tensor R_ij at x."""
    return _symmetrize(_ricci_of(_riemann(m, [x])[1][0]))


def _in_frame(frames: Sequence[FrameAtPoint], g0: np.ndarray, riem: np.ndarray) -> list:
    """Ric(e_a, e_b) in each frame, from g and Riemann at the frames'
    points, once every frame is checked to be orthonormal."""
    v = np.stack([fr.vectors for fr in frames])
    vt = v.swapaxes(-1, -2)
    defect = np.abs(vt @ g0 @ v - np.eye(v.shape[-1])).max(axis=(1, 2))
    if (defect > 1e-8).any():
        worst = defect[np.argmax(defect > 1e-8)]
        raise OracleError(f"frame is not orthonormal (defect {worst:.3e} > 1e-8)")
    return list(vt @ _symmetrize(_ricci_of(riem)) @ v)


def frame_ricci(m: ChartMetric, fr: FrameAtPoint) -> np.ndarray:
    """Ricci tensor expressed in a g-orthonormal frame, Ric(e_a, e_b)."""
    return _in_frame([fr], *_riemann(m, [fr.x]))[0]


def frame_ricci_many(m: ChartMetric, frames: Sequence[FrameAtPoint]) -> list:
    """frame_ricci at each frame. The frames go to the chart in chunks of
    at most CHART_CALL_BYTES, one call per chunk, and each chunk is
    contracted to its frame Ricci before the next is built. Each result
    equals frame_ricci's bit for bit, and a failure raises what the first
    failing frame raises on its own."""
    per_call = max(1, CHART_CALL_BYTES // (16 * m.dim**2 * len(_stencil(m.dim)[0])))
    chunks = [frames[start : start + per_call] for start in range(0, len(frames), per_call)]
    try:
        return [ric for chunk in chunks for ric in _in_frame(chunk, *_riemann(m, [fr.x for fr in chunk]))]
    except Exception:
        for fr in frames:
            frame_ricci(m, fr)
        raise


def sectional(m: ChartMetric, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Sectional curvature of the plane spanned by u and v at x."""
    u, v = (np.asarray(a, dtype=float) for a in (u, v))
    g, riem = (a[0] for a in _riemann(m, [x]))
    uu = float(u @ g @ u)
    vv = float(v @ g @ v)
    uv = float(u @ g @ v)
    denom = uu * vv - uv * uv
    if denom < 1e-12:
        raise OracleError("degenerate plane: |u|^2 |v|^2 - <u,v>^2 < 1e-12")
    # <R(u,v)v, u> = g_{ra} R^r_{smn} u^m v^n v^s u^a, one vector at a time
    return float((u @ g) @ (((riem @ v) @ u) @ v)) / denom


# --- preset charts --------------------------------------------------------


def _require_positive(**values) -> None:
    """Each value must be finite and positive, and its square, which the
    charts and their closed forms divide by or scale with, a normal float."""
    for name, value in values.items():
        v = float(value)
        if not 0.0 < v < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
        if not np.finfo(float).tiny <= v * v < np.inf:
            raise ValueError(f"{name} squared must be a positive normal float, got {value}")


def euclidean_chart(d: int) -> ChartMetric:
    eye = np.eye(d)
    return ChartMetric(
        d, lambda x: np.broadcast_to(eye.astype(x.dtype), (len(x), d, d)), label=f"euclidean:{d}"
    )


def sphere_chart(d: int, radius: float = 1.0) -> ChartMetric:
    """Round d-sphere of the given radius in its stereographic chart.

    Components are 4 a^2 / (1 + |x|^2)^2 times the identity; the chart
    covers everything except one point, and test points are kept inside
    |x| <= 2.
    """
    _require_positive(radius=radius)
    a2 = float(radius) ** 2
    if not 4.0 * a2 < np.inf:
        raise ValueError(f"radius {radius}: the chart scale 4 radius^2 is not a normal float")

    def comps(x: np.ndarray) -> np.ndarray:
        conf = 4.0 * a2 / (1.0 + np.sum(x * x, axis=1)) ** 2
        return conf[:, None, None] * np.eye(d)

    return ChartMetric(d, comps, label=f"sphere:{d}:{radius}")


def hyperbolic_plane_chart() -> ChartMetric:
    def comps(x: np.ndarray) -> np.ndarray:
        g = np.zeros((len(x), 2, 2), dtype=x.dtype)
        g[:, [0, 1], [0, 1]] = (1.0 / x[:, 1] ** 2)[:, None]
        return g

    return ChartMetric(2, comps, domain=lambda x: x[1] > 1e-3, label="hyperbolic2")


def su2_frame_matrix(point: np.ndarray) -> np.ndarray:
    """Coframe matrices M of the standard left-invariant one-forms on the
    3-sphere group in Euler-angle coordinates (theta, phi, psi); row i of
    M holds the components of the i-th one-form. Points of shape (..., 3)
    give matrices of shape (..., 3, 3), complex for complex points."""
    point = np.asarray(point, dtype=np.result_type(point, float))
    theta, psi = point[..., 0], point[..., 2]
    sin_theta, cos_psi, sin_psi = np.sin(theta), np.cos(psi), np.sin(psi)
    mm = np.zeros(point.shape[:-1] + (3, 3), dtype=point.dtype)
    mm[..., 0, 0], mm[..., 0, 1] = cos_psi, sin_psi * sin_theta
    mm[..., 1, 0], mm[..., 1, 1] = sin_psi, -cos_psi * sin_theta
    mm[..., 2, 1], mm[..., 2, 2] = np.cos(theta), 1.0
    return mm


def su2_metric(x: np.ndarray, squares) -> np.ndarray:
    """Components g = 0.25 M^T diag(s) M, M = su2_frame_matrix(x), at the
    (N, 3) points x, as the sum of three broadcast outer products
    s_a m_a m_a^T over the rows m_a of M: the squares s, one (3,) row for
    all points, are the squared lengths of the unit-sphere frame fields."""
    m, s = su2_frame_matrix(x), np.asarray(squares)
    return 0.25 * sum(s[a] * m[..., a, :, None] * m[..., a, None, :] for a in range(3))


def su2_frame(point: np.ndarray, scales) -> np.ndarray:
    """Columns 2 M^-1 / scales: the unit-sphere frame fields divided by
    their scales, a frame orthonormal for su2_metric(point, scales**2).
    Scales of shape (..., 3) give one frame per row, all at the one point,
    whose 2 M^-1 is computed once."""
    return 2.0 * np.linalg.inv(su2_frame_matrix(point)) / np.asarray(scales, dtype=float)[..., None, :]


def s3_left_invariant_chart(l1: float, l2: float, l3: float) -> ChartMetric:
    """Left-invariant metric diag(l1^2, l2^2, l3^2) against the unit frame
    of the round 3-sphere, in an Euler-angle chart (valid for sin(theta) != 0).

    With l1 = l2 = l3 = 1 this is the round unit 3-sphere; scaling only
    the third direction gives the family obtained by shrinking the circle
    fibers of the Hopf map.
    """
    _require_positive(l1=l1, l2=l2, l3=l3)
    squares = np.array([float(l1) ** 2, float(l2) ** 2, float(l3) ** 2])
    label = f"s3-left-invariant:{l1}:{l2}:{l3}"

    def domain(x: np.ndarray) -> bool:  # theta (mod 2 pi) 0.05 away from sin(theta) = 0
        return 0.05 < x[0] % (2 * np.pi) < np.pi - 0.05

    return ChartMetric(3, lambda x: su2_metric(x, squares), domain=domain, label=label)


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
