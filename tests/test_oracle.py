import dataclasses
import math

import numpy as np
import pytest

from ricciforge import oracle
from ricciforge.oracle import (
    ChartMetric,
    FrameAtPoint,
    OracleError,
    SingularMetricError,
    christoffel,
    frame_ricci,
    left_invariant_s3_ricci,
    preset,
    ricci,
    ricci_with_asymmetry,
    sectional,
)

S3_POINT = np.array([1.1, 0.4, 0.8])


def s3_frame(point, scales):
    cols = 2.0 * np.linalg.inv(oracle.su2_frame_matrix(point))
    return cols / np.asarray(scales, dtype=float)[None, :]


def coordinate_frame(chart, x):
    vals, vecs = np.linalg.eigh(chart.at(x))
    return FrameAtPoint(x, vecs / np.sqrt(vals))


def test_christoffel_euclidean_vanishes():
    m = preset("euclidean:3")
    gamma = christoffel(m, np.array([0.4, -0.7, 2.0]))
    assert np.max(np.abs(gamma)) < 1e-12


def test_christoffel_half_plane():
    # at (0, 1) the only nonzero symbols are the three classical ones
    m = preset("hyperbolic2")
    gamma = christoffel(m, np.array([0.0, 1.0]))
    assert gamma[0, 0, 1] == pytest.approx(-1.0, abs=1e-8)
    assert gamma[0, 1, 0] == pytest.approx(-1.0, abs=1e-8)
    assert gamma[1, 0, 0] == pytest.approx(1.0, abs=1e-8)
    assert gamma[1, 1, 1] == pytest.approx(-1.0, abs=1e-8)
    rest = gamma.copy()
    for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]:
        rest[idx] = 0.0
    assert np.max(np.abs(rest)) < 1e-8


def polar_unit_sphere_comps(x):
    # g = diag(1, sin^2 theta) at each row (theta, phi)
    g = np.zeros((len(x), 2, 2))
    g[:, 0, 0] = 1.0
    g[:, 1, 1] = np.sin(x[:, 0]) ** 2
    return g


def test_christoffel_round_sphere_polar_chart():
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta)
    m = ChartMetric(2, polar_unit_sphere_comps, domain=lambda x: 0.1 < x[0] < math.pi - 0.1)
    gamma = christoffel(m, np.array([math.pi / 3, 0.5]))
    assert gamma[0, 1, 1] == pytest.approx(-math.sqrt(3) / 4, abs=1e-9)


def test_christoffel_validates_step():
    with pytest.raises(ValueError):
        christoffel(preset("euclidean:2"), np.zeros(2), step=0.0)


def test_ricci_euclidean_zero():
    for d in range(2, 7):
        m = preset(f"euclidean:{d}")
        assert np.max(np.abs(ricci(m, np.full(d, 0.2)))) <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_ricci_spheres(d, a):
    m = preset(f"sphere:{d}:{a}")
    for x in (np.full(d, 0.3), np.linspace(-0.5, 0.8, d)):
        got = ricci(m, x)
        want = (d - 1) / a**2 * m.at(x)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_ricci_half_plane_is_minus_metric():
    m = preset("hyperbolic2")
    x = np.array([0.3, 1.4])
    assert np.max(np.abs(ricci(m, x) + m.at(x))) <= 1e-6


def test_ricci_asymmetry_small_on_presets():
    charts = [
        (preset("sphere:3:1"), np.full(3, 0.3)),
        (preset("hyperbolic2"), np.array([0.0, 1.0])),
        (preset("s3-left-invariant:1:1:0.5"), S3_POINT),
    ]
    for m, x in charts:
        _, asym = ricci_with_asymmetry(m, x)
        assert asym <= 1e-7


def test_mesh_refinement_fourth_order():
    # without extrapolation, halving the step shrinks the error by >= 4
    m = preset("sphere:2:1")
    x = np.array([0.4, -0.2])
    want = 1.0 * m.at(x)
    err = {}
    for step in (0.08, 0.04):
        got = ricci(m, x, step=step, richardson=False)
        err[step] = np.max(np.abs(got - want))
    assert err[0.08] / err[0.04] >= 4.0


def test_frame_ricci_constant_curvature():
    cases = [
        ("euclidean:4", np.full(4, 0.1), 0.0),
        ("sphere:2:1", np.array([0.2, 0.4]), 1.0),
        ("sphere:4:2", np.full(4, 0.25), 0.25),
        ("hyperbolic2", np.array([0.1, 0.9]), -1.0),
    ]
    for name, x, kappa in cases:
        m = preset(name)
        got = frame_ricci(m, coordinate_frame(m, x))
        want = kappa * (m.dim - 1) * np.eye(m.dim)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_frame_ricci_unit_sphere_polar_chart():
    # frame {d_theta, d_phi / sin(theta)} on the unit 2-sphere
    m = ChartMetric(2, polar_unit_sphere_comps, domain=lambda x: 0.1 < x[0] < math.pi - 0.1)
    x = np.array([math.pi / 3, 0.5])
    fr = FrameAtPoint(x, np.diag([1.0, 1.0 / math.sin(x[0])]))
    got = frame_ricci(m, fr)
    assert np.max(np.abs(got - np.eye(2))) <= 1e-6


def test_frame_ricci_rejects_sloppy_frames():
    m = preset("sphere:2:1")
    x = np.array([0.1, 0.1])
    bad = FrameAtPoint(x, np.eye(2))  # not g-orthonormal (conformal factor 4)
    with pytest.raises(OracleError):
        frame_ricci(m, bad)


def test_sectional_fixtures():
    m = preset("euclidean:3")
    assert sectional(m, np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) == pytest.approx(
        0.0, abs=1e-9
    )
    for a in (1.0, 2.0):
        s = preset(f"sphere:3:{a}")
        k = sectional(s, np.full(3, 0.2), np.array([1.0, 0.2, 0]), np.array([0.1, 1.0, 0.3]))
        assert k == pytest.approx(1.0 / a**2, abs=1e-6)
    h = preset("hyperbolic2")
    k = sectional(h, np.array([0.2, 1.1]), np.array([1.0, 0.0]), np.array([0.3, 1.0]))
    assert k == pytest.approx(-1.0, abs=1e-6)


def test_sectional_degenerate_plane():
    m = preset("euclidean:2")
    v = np.array([1.0, 1.0])
    with pytest.raises(OracleError):
        sectional(m, np.zeros(2), v, 2.0 * v)


def test_left_invariant_chart_matches_closed_form():
    for scales in [(1.0, 1.0, 1.0), (1.0, 1.0, 0.5), (1.0, 0.8, 0.6)]:
        m = preset("s3-left-invariant:" + ":".join(str(s) for s in scales))
        fr = FrameAtPoint(S3_POINT, s3_frame(S3_POINT, scales))
        got = frame_ricci(m, fr)
        want = np.diag(left_invariant_s3_ricci(scales))
        assert np.max(np.abs(got - want)) <= 1e-6


def test_round_s3_closed_form_is_two():
    assert np.allclose(left_invariant_s3_ricci((1, 1, 1)), [2.0, 2.0, 2.0])


def test_dimension_cap():
    with pytest.raises(ValueError):
        ChartMetric(9, lambda x: np.eye(9))


def test_singular_metric_rejected():
    m = ChartMetric(2, lambda x: np.broadcast_to(np.diag([1.0, 1e-13]), (len(x), 2, 2)))
    with pytest.raises(SingularMetricError):
        ricci(m, np.zeros(2))


def test_domain_enforced():
    m = preset("hyperbolic2")
    with pytest.raises(OracleError):
        ricci(m, np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        ricci(m, np.zeros(3))


PRESET_BATCHES = [
    ("euclidean:3", lambda rng, n: rng.uniform(-2, 2, (n, 3))),
    ("sphere:4:2", lambda rng, n: rng.uniform(-2, 2, (n, 4))),
    ("hyperbolic2", lambda rng, n: rng.uniform([-1, 0.01], [1, 3], (n, 2))),
    ("s3-left-invariant:1:0.8:0.6", lambda rng, n: rng.uniform([0.1, 0, 0], [3.0, 6, 6], (n, 3))),
]


@pytest.mark.parametrize("name,draw", PRESET_BATCHES, ids=[name for name, _ in PRESET_BATCHES])
def test_components_batch_matches_single_rows(name, draw):
    m = preset(name)
    pts = draw(np.random.default_rng(7), 9)
    batch = m.components(pts)
    assert batch.shape == (9, m.dim, m.dim)
    rows = np.stack([m.components(pts[i : i + 1])[0] for i in range(len(pts))])
    np.testing.assert_array_equal(batch, rows)


@pytest.mark.parametrize("name", ["euclidean:2", "sphere:8:1"])
def test_ricci_evaluates_chart_once_per_level(name):
    m = preset(name)
    sizes = []

    def counting(x):
        sizes.append(len(x))
        return m.components(x)

    d = m.dim
    ricci(dataclasses.replace(m, components=counting), np.full(d, 0.3))
    stencil = 1 + 4 * d + 8 * d * (d - 1)
    assert sizes == [1, stencil, stencil]


def test_preset_registry_errors():
    with pytest.raises(ValueError):
        preset("klein-bottle")
    with pytest.raises(ValueError):
        preset("warped")
    with pytest.raises(ValueError):
        preset("sphere:notanumber:1")
