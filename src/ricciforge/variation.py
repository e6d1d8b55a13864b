"""Ricci curvature under fiber scaling of a Riemannian submersion.

For a submersion with totally geodesic fibers, scaling the fiber metric
by t^2 while keeping horizontal lengths produces a family g_t whose
Ricci tensor has closed-form blocks in terms of the unscaled fiber and
base Ricci tensors and three pointwise invariants of the integrability
tensor A:

    a_uv[i,j]    = <A W_i, A W_j>      (vertical pair)
    a_xy[i,j]    = <A_{H_i}, A_{H_j}>  (horizontal pair)
    delta_a[i,j] = <div A (H_i), W_j>  (mixed)

All data are pointwise matrices in frames diagonalizing the fiber and
base Ricci tensors; everything is stored in the t-orthonormal frame
{H_i, W_j / t}, so the blocks read

    vv = ric_f / t^2 + t^2 a_uv
    hh = ric_b - 2 t^2 a_xy
    hv = -t delta_a

The Hopf preset (circle fibers of the round 3-sphere over the half
radius 2-sphere) is stated exactly from O'Neill's formulas, and its
scaled family is exactly the squashed-sphere family. The oracle checks
the closed form on that family, read on the chart warped-verify uses for
a Lie base (the 2-jet at the identity), without supplying any of its data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import oracle, warped

__all__ = [
    "SubmersionData",
    "ScaledRicci",
    "canonical_variation_ricci",
    "a_invariants_from_ricci",
    "bounded_error_constant",
    "error_bound_check",
    "ErrorBoundReport",
    "hopf_preset",
    "verify_hopf_against_oracle",
]


@dataclass(frozen=True)
class SubmersionData:
    """Pointwise data of a Riemannian submersion with totally geodesic fibers.

    ric_b and ric_f are given in frames of eigenvectors, so they must be
    diagonal; a_uv and a_xy are Gram-type quantities of the A-tensor and
    must be positive semidefinite.
    """

    dim_b: int
    dim_f: int
    ric_b: np.ndarray
    ric_f: np.ndarray
    a_uv: np.ndarray
    a_xy: np.ndarray
    delta_a: np.ndarray  # (dim_b, dim_f)

    def __post_init__(self):
        shapes = {
            "ric_b": (self.dim_b, self.dim_b),
            "ric_f": (self.dim_f, self.dim_f),
            "a_uv": (self.dim_f, self.dim_f),
            "a_xy": (self.dim_b, self.dim_b),
            "delta_a": (self.dim_b, self.dim_f),
        }
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)
        for name in ("ric_b", "ric_f"):
            arr = getattr(self, name)
            off = arr - np.diag(np.diag(arr))
            if np.max(np.abs(off), initial=0.0) > 1e-10:
                raise ValueError(f"{name} must be diagonal (eigenframe convention)")
        for name in ("a_uv", "a_xy"):
            arr = getattr(self, name)
            if np.linalg.eigvalsh(0.5 * (arr + arr.T)).min() < -1e-10:
                raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class ScaledRicci:
    """Ricci blocks of the scaled metric in the frame {H_i, W_j / t}."""

    t: float
    vv: np.ndarray
    hh: np.ndarray
    hv: np.ndarray  # (dim_b, dim_f)


def canonical_variation_ricci(d: SubmersionData, t: float) -> ScaledRicci:
    """Closed-form Ricci blocks of the fiber-scaled metric for t in (0, 1]
    whose square, which the blocks divide by, is a normal float."""
    if not 0.0 < t <= 1.0:
        raise ValueError("t must lie in (0, 1]")
    oracle._require_positive(t=t)
    vv = d.ric_f / t**2 + t**2 * d.a_uv
    hh = d.ric_b - 2.0 * t**2 * d.a_xy
    hv = -t * d.delta_a
    return ScaledRicci(t=float(t), vv=vv, hh=hh, hv=hv)


def a_invariants_from_ricci(ric_e_vv, ric_e_hh, ric_e_hv, ric_b, ric_f):
    """Recover the three A-tensor invariants from unscaled Ricci data.

    Inverts the t = 1 block formulas: a_uv = Ric_E(vert) - Ric_F,
    a_xy = (Ric_B - Ric_E(hor)) / 2, delta_a = -Ric_E(mixed).
    """
    ric_e_vv = np.asarray(ric_e_vv, dtype=float)
    ric_e_hh = np.asarray(ric_e_hh, dtype=float)
    ric_e_hv = np.asarray(ric_e_hv, dtype=float)  # (dim_b, dim_f)
    ric_b = np.asarray(ric_b, dtype=float)
    ric_f = np.asarray(ric_f, dtype=float)
    a_uv = ric_e_vv - ric_f
    a_xy = 0.5 * (ric_b - ric_e_hh)
    delta_a = -ric_e_hv
    return a_uv, a_xy, delta_a


def bounded_error_constant(d: SubmersionData) -> float:
    """Smallest constant C for which the three scaled-Ricci inequalities
    hold at every t in (0, 1]: the off-diagonal bounds need C at least the
    off-diagonal magnitudes of a_uv and all of delta_a, and the diagonal
    base inequality needs C at least twice the a_xy entries.

    Each inequality of error_bound_check is then monotone in t, so with
    c = C it reports no violation at any t in (0, 1], and with any c
    below C it reports one at t = 1. That needs ric_b and ric_f exactly
    diagonal: an off-diagonal entry e of ric_f, within the 1e-10 that
    SubmersionData allows, adds e / t^2 to vv and breaks |vv| <= C t as
    t -> 0."""
    def off_max(a: np.ndarray) -> float:
        return float(np.max(np.abs(a - np.diag(np.diag(a))), initial=0.0))

    return max(
        off_max(d.a_uv),
        float(np.max(np.abs(d.delta_a), initial=0.0)),
        2.0 * float(np.max(np.abs(d.a_xy), initial=0.0)),
    )


@dataclass(frozen=True)
class ErrorBoundReport:
    passed: bool
    rows: list
    violations: list
    per_tensor_slack: dict


def _inequalities(d: SubmersionData, s: ScaledRicci, c: float):
    """(tensor, name, kind, lhs, rhs) for each scaled-Ricci inequality at
    s.t, in report order; an "upper" row needs lhs <= rhs, a "lower" row
    lhs >= rhs."""
    t = s.t
    for i in range(d.dim_f):
        for j in range(i + 1, d.dim_f):
            yield "fiber-offdiag", f"|vv[{i},{j}]| <= C t", "upper", abs(s.vv[i, j]), c * t
    for i in range(d.dim_b):
        for j in range(i + 1, d.dim_b):
            yield "base-offdiag", f"|hh[{i},{j}]| <= C t", "upper", abs(s.hh[i, j]), c * t
    for i in range(d.dim_b):
        for j in range(d.dim_f):
            yield "mixed", f"|hv[{i},{j}]| <= C t", "upper", abs(s.hv[i, j]), c * t
    for i in range(d.dim_f):
        rhs = d.ric_f[i, i] / t**2
        yield "fiber-diag", f"vv[{i},{i}] >= ricF[{i},{i}]/t^2", "lower", s.vv[i, i], rhs
    for i in range(d.dim_b):
        rhs = d.ric_b[i, i] - c * t**2
        yield "base-diag", f"hh[{i},{i}] >= ricB[{i},{i}] - C t^2", "lower", s.hh[i, i], rhs


def error_bound_check(d: SubmersionData, c: float, ts: Sequence[float]) -> ErrorBoundReport:
    """Check the scaled-Ricci inequality suite for each t.

    Off-diagonal and mixed entries must satisfy |entry| <= c t, the fiber
    diagonal must not drop below ric_f / t^2, and the base diagonal must
    not drop below ric_b - c t^2. Violations are listed rather than
    raised, so an undersized constant produces a readable report. The
    slack summary records, per tensor, the worst margin over the sweep.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("ts is empty: there is no t to check")
    rows: list = []
    slack = dict.fromkeys(("fiber-offdiag", "base-offdiag", "mixed", "fiber-diag", "base-diag"), np.inf)
    eps = 1e-12
    for t in ts:
        s = canonical_variation_ricci(d, float(t))
        for tensor, name, kind, lhs, rhs in _inequalities(d, s, c):
            lhs, rhs = float(lhs), float(rhs)
            ok, margin = (lhs <= rhs + eps, rhs - lhs) if kind == "upper" else (lhs >= rhs - eps, lhs - rhs)
            rows.append({"t": s.t, "inequality": name, "lhs": lhs, "rhs": rhs, "pass": ok})
            slack[tensor] = min(slack[tensor], margin)
    violations = [row for row in rows if not row["pass"]]
    slack = {k: (None if not np.isfinite(v) else float(v)) for k, v in slack.items()}
    return ErrorBoundReport(not violations, rows, violations, slack)


# --- Hopf preset ------------------------------------------------------------


def hopf_preset() -> SubmersionData:
    """Exact submersion data of the circle fibration of the round unit
    3-sphere over the 2-sphere of radius 1/2.

    The Ricci tensors are Einstein: 2 on S^3(1), 4 on S^2(1/2) and 0 on
    the flat circle fiber. O'Neill's formulas for totally geodesic fibers
    (O'Neill, "The fundamental equations of a submersion", Michigan Math.
    J. 13, 1966; Besse, Einstein Manifolds, 9.70), inverted as in
    a_invariants_from_ricci, give a_uv = 2 - 0 = 2, a_xy = (4 - 2)/2 = 1
    on each horizontal direction and delta_a = 0, since the mixed Ricci of
    an Einstein metric vanishes.
    """
    return SubmersionData(
        dim_b=2,
        dim_f=1,
        ric_b=4.0 * np.eye(2),
        ric_f=np.zeros((1, 1)),
        a_uv=np.full((1, 1), 2.0),
        a_xy=np.eye(2),
        delta_a=np.zeros((2, 1)),
    )


def verify_hopf_against_oracle(ts: Sequence[float], tol: float) -> dict:
    """Compare the closed-form scaled blocks of the Hopf preset with the oracle
    for each t, on the metric with squares (1, 1, t^2) by warped.lie_metric, at
    x = 0 in the orthonormal frame [vertical, horizontal, horizontal]."""
    data, jet = hopf_preset(), warped.lie_jet(warped.S3_STRUCTURE, 3)
    rows = []
    for t in map(float, ts):
        s, squares = canonical_variation_ricci(data, t), (1.0, 1.0, t * t)
        chart = oracle.ChartMetric(
            3, lambda x: warped.lie_metric(jet, x.T, squares, np.zeros((len(x), 3, 3), x.dtype)),
            domain=lambda x: not x.any(), label=f"hopf:{t}",
        )
        frame = oracle.FrameAtPoint(np.zeros(3), np.diag([1.0, 1.0, 1.0 / t])[:, [2, 0, 1]])
        dev = float(np.max(np.abs(oracle.frame_ricci(chart, frame) - np.block([[s.vv, s.hv.T], [s.hv, s.hh]]))))
        rows.append({"t": t, "deviation": dev, "pass": dev <= tol})
    if not rows:
        raise ValueError("ts is empty: there is no t to verify")
    return {"rows": rows, "passed": all(row["pass"] for row in rows)}
