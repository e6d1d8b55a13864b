import dataclasses
import math

import numpy as np
import pytest

from ricciforge import oracle, warped
from ricciforge.oracle import (
    ChartMetric,
    FrameAtPoint,
    OracleError,
    SingularMetricError,
    frame_ricci,
    frame_ricci_many,
    preset,
    ricci,
    sectional,
)

S3_POINT = np.array([1.1, 0.4, 0.8])


def s3_frame(point, scales):
    cols = 2.0 * np.linalg.inv(oracle.su2_frame_matrix(point))
    return cols / np.asarray(scales, dtype=float)[None, :]


def coordinate_frame(chart, x):
    vals, vecs = np.linalg.eigh(chart.at(x))
    return FrameAtPoint(x, vecs / np.sqrt(vals))


def christoffel(m, x):
    """Gamma^k_ij at x from the oracle's own metric derivatives."""
    g0, dg, _ = oracle._metric_derivatives(m, np.asarray(x, dtype=float)[None])
    return oracle._christoffel(g0, dg)[2][0]


def riemann(m, x):
    return oracle._riemann(m, [x])[1][0]


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
    g = np.zeros((len(x), 2, 2), dtype=x.dtype)
    g[:, 0, 0] = 1.0
    g[:, 1, 1] = np.sin(x[:, 0]) ** 2
    return g


def test_christoffel_round_sphere_polar_chart():
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta)
    m = ChartMetric(2, polar_unit_sphere_comps, domain=lambda x: 0.1 < x[0] < math.pi - 0.1)
    gamma = christoffel(m, np.array([math.pi / 3, 0.5]))
    assert gamma[0, 1, 1] == pytest.approx(-math.sqrt(3) / 4, abs=1e-9)


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
        ric = np.einsum("rsrn->sn", riemann(m, x))
        assert np.max(np.abs(ric - ric.T)) <= 1e-7


def test_mesh_refinement_fourth_order():
    # while truncation dominates, halving the real step divides the error
    # by about 2^4 = 16; a second-order stencil would divide it by 4
    m = preset("sphere:2:1")
    x = np.array([0.4, -0.2])
    want = 1.0 * m.at(x)
    err = []
    for step in (0.08, 0.04, 0.02):
        ric = np.einsum("rsrn->sn", oracle._riemann(m, [x], step)[1][0])
        err.append(np.max(np.abs(0.5 * (ric + ric.T) - want)))
    for coarse, fine in zip(err, err[1:]):
        assert 12.0 <= coarse / fine <= 20.0


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


def test_chart_that_drops_the_imaginary_part_is_rejected():
    # components read from x.real come back real at the oracle's complex
    # points, so every derivative would read 0; the oracle names the chart
    m = ChartMetric(
        2,
        lambda x: polar_unit_sphere_comps(x.real),
        domain=lambda x: 0.1 < x[0] < math.pi - 0.1,
        label="polar-real",
    )
    x = np.array([math.pi / 3, 0.5])
    fr = FrameAtPoint(x, np.diag([1.0, 1.0 / math.sin(x[0])]))
    for call in (lambda: ricci(m, x), lambda: frame_ricci_many(m, [fr])):
        with pytest.raises(OracleError, match="chart polar-real returned real components"):
            call()


def test_overflow_raises_oracle_error_naming_the_point():
    # at radius 5e153 the chart scale 4 a^2 is a normal float, but the
    # derivatives or the contractions overflow, depending on the point
    m = preset("sphere:2:5e153")
    cases = [
        (ricci, [0.0, 0.0], r"metric derivatives are not finite at \[0. 0.\]"),
        (ricci, [0.3, 0.3], r"curvature is not finite at \[0.3 0.3\]"),
    ]
    for call, x, message in cases:
        with pytest.raises(OracleError, match=message):
            call(m, np.array(x))


def test_finiteness_check_names_the_first_bad_point_of_any_array():
    # the only non-finite entry is in the last array, at the third point;
    # an inf at a later point of an earlier array does not come first
    xs = np.arange(8.0).reshape(4, 2)
    first, second = np.zeros((4, 2, 2)), np.zeros((4, 3))
    oracle._finite("values are", xs, first, second)
    second[2, 1] = np.nan
    with pytest.raises(OracleError, match=r"^values are not finite at \[4. 5.\]$"):
        oracle._finite("values are", xs, first, second)
    first[3, 0, 1] = np.inf
    with pytest.raises(OracleError, match=r"^values are not finite at \[4. 5.\]$"):
        oracle._finite("values are", xs, first, second)


def test_riemann_over_two_chunks_equals_each_chunk_alone():
    # nine points at d = 8 are two chart calls, eight points and one; the
    # joined result is each chunk's own, bit for bit
    m = preset("sphere:8:1")
    xs = 0.1 + 0.02 * np.arange(72.0).reshape(9, 8)
    assert _points_per_call(8) == 8
    g, riem = oracle._riemann(m, xs)
    for part in (slice(0, 8), slice(8, 9)):
        g_part, riem_part = oracle._riemann(m, xs[part])
        assert g[part].tobytes() == g_part.tobytes() and riem[part].tobytes() == riem_part.tobytes()


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
    u, v = np.linspace(1.0, 0.3, 8), np.linspace(-0.5, 0.9, 8)
    for a in (1.0, 2.0, 0.7):
        s = preset(f"sphere:8:{a}")
        assert sectional(s, np.linspace(-0.4, 0.3, 8), u, v) == pytest.approx(1.0 / a**2, abs=1e-9)


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
        want = warped.lie_ricci(warped.S3_STRUCTURE, 3)(scales)
        assert np.max(np.abs(got - want)) <= 1e-6


def test_su2_metric_equals_the_sum_of_scaled_outer_products():
    # 0.25 sum_a s_a m_a m_a^T over the rows m_a of su2_frame_matrix, bit
    # for bit and down to the sign of each zero imaginary part, for real
    # and complex points and for squares near the ends of the float range
    rng = np.random.default_rng(20261019)

    def reference(x, s):
        mm, s = oracle.su2_frame_matrix(x), np.asarray(s)
        return 0.25 * sum(s[..., a, None, None] * mm[..., a, :, None] * mm[..., a, None, :] for a in range(3))

    def same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for n in (1, 7, 459):
        x = rng.uniform(-4.0, 4.0, (n, 3)) + 1j * 1e-30 * rng.integers(-1, 2, (n, 3))
        for pts in (x, x.real):
            assert same(oracle.su2_metric(pts, np.array([0.64, 1.0, 1.44])), reference(pts, [0.64, 1.0, 1.44]))
    x = rng.uniform(-4.0, 4.0, (50, 3)) + 0j
    for scale in (1e300, 1e-300):
        s = np.array([scale, 1.0, scale])
        assert same(oracle.su2_metric(x, s), reference(x, s))
        assert same(oracle.su2_metric(x.real, s), reference(x.real, s))


def test_su2_frame_divides_one_inverse_by_each_row_of_scales():
    scales = np.array([[1.0, 0.8, 0.6], [0.3, 2.0, 1.1]])
    frames = oracle.su2_frame(S3_POINT, scales)
    assert frames.shape == (2, 3, 3)
    for frame, row in zip(frames, scales):
        assert np.array_equal(frame, oracle.su2_frame(S3_POINT, row))
        assert np.array_equal(frame, s3_frame(S3_POINT, row))


def test_round_s3_closed_form_is_two():
    assert np.array_equal(warped.lie_ricci(warped.S3_STRUCTURE, 3)([1.0, 1.0, 1.0]), 2.0 * np.eye(3))


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


def test_domain_reported_before_frame_and_plane():
    # the metric at x comes from the stencil, so x is checked first
    m = preset("hyperbolic2")
    x = np.array([0.0, -2.0])
    with pytest.raises(OracleError, match="outside chart domain"):
        frame_ricci(m, FrameAtPoint(x, np.eye(2)))
    v = np.array([1.0, 1.0])
    with pytest.raises(OracleError, match="outside chart domain"):
        sectional(m, x, v, 2.0 * v)


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


def _points_per_call(d):
    """Points whose stencils fit one chart call of CHART_CALL_BYTES at d."""
    return oracle.CHART_CALL_BYTES // ((1 + d + 2 * d * (d + 1)) * d * d * 16)


@pytest.mark.parametrize("name", ["euclidean:2", "sphere:8:1"])
def test_ricci_evaluates_chart_once(name):
    # one chart call of 1 + d + 2d(d+1) rows and none at the single point
    # x: the metric at x is the stencil's centre row; a batch of points
    # makes one call for each chunk of CHART_CALL_BYTES
    m = preset(name)
    sizes = []

    def counting(x):
        sizes.append(len(x))
        return m.components(x)

    d = m.dim
    stencil = 1 + d + 2 * d * (d + 1)
    assert stencil == {2: 15, 8: 153}[d]
    counted = dataclasses.replace(m, components=counting)
    x = np.full(d, 0.3)
    u, v = np.eye(d)[0], np.eye(d)[1]
    frame = coordinate_frame(m, x)
    calls = [
        (lambda: ricci(counted, x), [stencil]),
        (lambda: frame_ricci(counted, frame), [stencil]),
        (lambda: sectional(counted, x, u, v), [stencil]),
    ]
    # nine points: one call for each chunk that fits CHART_CALL_BYTES at
    # 16 bytes per complex entry (all nine at d = 2; eight, then one, at d = 8)
    per_call = _points_per_call(d)
    chunks = [min(per_call, 9 - start) for start in range(0, 9, per_call)]
    assert chunks == ([9] if d == 2 else [8, 1])
    calls.append((lambda: frame_ricci_many(counted, [frame] * 9), [n * stencil for n in chunks]))
    for call, want in calls:
        sizes.clear()
        call()
        assert sizes == want


def test_verify_sends_radii_through_chunked_chart_calls(monkeypatch):
    # s3 at p = 5 is an 8-dimensional chart: 8 radii, as many as the CLI's
    # default and the bench's verifies send, fit one call, so 9 radii take
    # two chunks
    sizes = []
    real = warped.chart_metric

    def counting_chart(spec, p):
        m = real(spec, p)

        def counting(x):
            sizes.append(len(x))
            return m.components(x)

        return dataclasses.replace(m, components=counting)

    monkeypatch.setattr(warped, "chart_metric", counting_chart)
    rows = 1 + 8 + 2 * 8 * 9
    rs = np.geomspace(0.25, 4.0, 9)
    for n, want in ((8, [8 * rows]), (9, [8 * rows, rows])):
        sizes.clear()
        warped.verify_against_oracle(warped.left_invariant_s3_spec(), 5, rs[:n], 1e-5)
        assert sizes == want
    assert max(sizes) * 8 * 8 * 16 <= oracle.CHART_CALL_BYTES


def _preset_frames(name, n, rng):
    m = preset(name)
    d = m.dim
    if name == "hyperbolic2":
        pts = rng.uniform([-1.0, 0.5], [1.0, 2.0], (n, 2))
    elif name.startswith("s3-left-invariant"):
        pts = rng.uniform([0.4, 0.0, 0.0], [2.7, 2.0, 2.0], (n, 3))
        scales = [float(s) for s in name.split(":")[1:]]
        return m, [FrameAtPoint(x, s3_frame(x, scales)) for x in pts]
    else:
        pts = rng.uniform(-0.8, 0.8, (n, d))
    return m, [coordinate_frame(m, x) for x in pts]


def _warped_frames(spec_fn, p, n):
    spec = spec_fn()
    hi = 2.5 if spec.n == 0 else 4.0
    rs = np.geomspace(0.25, hi, n)
    return warped.chart_metric(spec, p), [warped.frames_at(spec, p, [r])[0] for r in rs]


BATCH_CHARTS = [f"euclidean:{d}" for d in range(1, 9)]
SPHERE_RADII = {2: 1.0, 3: 0.7, 4: 2.0, 5: 1.0, 6: 1.3, 7: 1.0, 8: 0.8}
BATCH_CHARTS += [f"sphere:{d}:{a}" for d, a in SPHERE_RADII.items()]
BATCH_CHARTS += ["hyperbolic2", "s3-left-invariant:1:0.8:0.6"]
BATCH_CHARTS += [
    f"warped:{kind}:{p}" for kind in ("torus", "s3", "round-sphere") for p in (3, 4, 5)
]
WARPED_SPECS = {
    "torus": warped.reference_torus_spec,
    "s3": warped.left_invariant_s3_spec,
    "round-sphere": warped.round_sphere_spec,
}


def _batch_chart(name, n):
    """The chart named in BATCH_CHARTS and n frames on it."""
    if name.startswith("warped:"):
        _, kind, p = name.split(":")
        return _warped_frames(WARPED_SPECS[kind], int(p), n)
    return _preset_frames(name, n, np.random.default_rng(11))


@pytest.mark.parametrize("name", BATCH_CHARTS)
def test_frame_ricci_many_is_bit_identical_to_single_points(name):
    # for R = 1..8 points, and for one point past a chunk, one batched call
    # equals R frame_ricci calls exactly; at d = 7 and 8 that batch spans two
    # chunks (13 and 8 points per call)
    m, frames = _batch_chart(name, _points_per_call(7) + 1)
    past = min(_points_per_call(m.dim) + 1, len(frames))
    assert m.dim < 7 or past == _points_per_call(m.dim) + 1
    singles = [frame_ricci(m, fr) for fr in frames]
    for r in sorted({*range(1, 9), past}):
        batch = frame_ricci_many(m, frames[:r])
        assert len(batch) == r
        for got, want in zip(batch, singles):
            np.testing.assert_array_equal(got, want)
    assert frame_ricci_many(m, []) == []


def _reference_riemann(g0, dg, d2g):
    """Riemann at one point, term by term as the formula reads: d g^{-1}
    by the three-operand einsum and each of the four curvature terms by an
    einsum of its own."""
    ginv = np.linalg.inv(g0)
    comb = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg  # comb[l, i, j]
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, comb)
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dcomb = d2g.transpose(0, 3, 1, 2) + d2g.transpose(0, 3, 2, 1) - d2g  # dcomb[m, l, i, j]
    dgamma = 0.5 * (
        np.einsum("mkl,lij->mkij", dginv, comb) + np.einsum("kl,mlij->mkij", ginv, dcomb)
    )
    return (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma, gamma)
        - np.einsum("rnl,lms->rsmn", gamma, gamma)
    )


@pytest.mark.parametrize("name", BATCH_CHARTS)
def test_riemann_matches_the_reference_formula(name):
    # the batched contraction computes the same tensor as the formula, from
    # the same metric derivatives, to roundoff
    m, frames = _batch_chart(name, 3)
    for fr in frames:
        g0, dg, d2g = oracle._metric_derivatives(m, fr.x[None])
        want = _reference_riemann(g0[0], dg[0], d2g[0])
        got = riemann(m, fr.x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _first_error(call):
    try:
        call()
    except Exception as err:  # any class: the class and the text are compared
        return type(err), str(err)
    return None


def _diagonal_chart(x):
    # g = diag(1e3, x_0): not positive definite for x_0 < 0, and its
    # condition number 1e3 / x_0 exceeds 1e12 for 0 < x_0 < 1e-9
    g = np.zeros((len(x), 2, 2), dtype=x.dtype)
    g[:, 0, 0] = 1e3
    g[:, 1, 1] = x[:, 0]
    return g


# chart (None for _diagonal_chart), good points, two failing points, the failure
OVERFLOW_GOOD = [[1, 1], [2, 2], [3, 1]]
DIAGONAL_GOOD = [[1, 0], [2, 0], [3, 0]]
BATCH_FAILURES = [
    ("sphere:2:5e153", OVERFLOW_GOOD, [[0, 0], [0.05, 0]], "metric derivatives are not finite"),
    (None, DIAGONAL_GOOD, [[-1, 0], [-2, 0]], "metric not positive definite"),
    (None, DIAGONAL_GOOD, [[1e-10, 0], [2e-10, 0]], "metric condition number exceeds 1e12"),
    ("sphere:2:5e153", OVERFLOW_GOOD, [[0.3, 0.3], [0.5, 0.5]], "curvature is not finite"),
]


def test_frame_ricci_many_raises_like_the_point_loop():
    m = preset("hyperbolic2")
    good = [coordinate_frame(m, np.array([0.1 * i, 1.0 + 0.2 * i])) for i in range(4)]
    outside = FrameAtPoint(np.array([0.0, -1.0]), np.eye(2))
    sloppy = FrameAtPoint(np.array([0.3, 1.2]), np.eye(2))  # not g-orthonormal
    batches = [
        good[:2] + [outside] + good[2:],
        [outside] + good,
        good + [outside],
        # the loop meets the sloppy frame first; the batch checks the domain first
        good[:1] + [sloppy, outside] + good[1:],
    ]
    for frames in batches:
        want = _first_error(lambda: [frame_ricci(m, fr) for fr in frames])
        assert want is not None
        assert _first_error(lambda: frame_ricci_many(m, frames)) == want
    # each batched check, with a failing point after the first and another
    # one last, in one chunk: the batch and the batched core raise what the
    # loop raises, which names the first failing point
    for name, points, bad, message in BATCH_FAILURES:
        m = preset(name) if name else ChartMetric(2, _diagonal_chart, label="diagonal")
        good = [coordinate_frame(m, np.array(x, dtype=float)) for x in points]
        first, second = (FrameAtPoint(np.array(x, dtype=float), np.eye(2)) for x in bad)
        for pos in range(1, len(good) + 1):
            frames = good[:pos] + [first] + good[pos:] + [second]
            want = _first_error(lambda: [frame_ricci(m, fr) for fr in frames])
            assert want is not None and want[1].startswith(f"{message} at {first.x}")
            assert _first_error(lambda: frame_ricci_many(m, frames)) == want
            assert _first_error(lambda: oracle._riemann(m, [fr.x for fr in frames])) == want


def test_verify_reports_the_first_failing_radius_like_the_loop():
    spec = warped.reference_torus_spec()
    with pytest.raises(OracleError, match="outside chart domain"):
        warped.verify_against_oracle(spec, 3, [1.0, 0.0005], 1e-5)
    # the oracle failure at the earlier radius comes before the closed form's
    with pytest.raises(OracleError, match="outside chart domain"):
        warped.verify_against_oracle(spec, 3, [0.0005, -1.0], 1e-5)
    with pytest.raises(ValueError, match="r must be positive"):
        warped.verify_against_oracle(spec, 3, [-1.0, 0.0005], 1e-5)


def test_ill_conditioned_metric_rejected():
    m = ChartMetric(2, lambda x: np.broadcast_to(np.diag([1e6, 1e-7]), (len(x), 2, 2)))
    with pytest.raises(SingularMetricError, match="condition number"):
        ricci(m, np.zeros(2))


def test_preset_registry_errors():
    with pytest.raises(ValueError):
        preset("klein-bottle")
    with pytest.raises(ValueError):
        preset("warped")
    with pytest.raises(ValueError):
        preset("sphere:notanumber:1")
    degenerate = ["sphere:2:0", "sphere:2:-1", "sphere:2:inf", "sphere:2:nan"]
    degenerate += ["s3-left-invariant:nan:1:1", "s3-left-invariant:-1:1:1", "s3-left-invariant:1:0:1"]
    degenerate += ["s3-left-invariant:1:1:inf"]
    for name in degenerate:
        with pytest.raises(ValueError, match="bad preset parameters .* must be finite and positive"):
            preset(name)
    # radii and scales whose squares overflow, underflow or are subnormal
    for name in ["sphere:2:1e200", "s3-left-invariant:1e200:1:1", "sphere:2:1e-200", "sphere:2:1e-170"]:
        with pytest.raises(ValueError, match="bad preset parameters .* squared must be a positive normal float"):
            preset(name)
    with pytest.raises(ValueError, match="radius"):
        oracle.sphere_chart(3, -0.5)
    with pytest.raises(ValueError, match="l3"):
        oracle.s3_left_invariant_chart(1.0, 1.0, 0.0)


@pytest.mark.parametrize("name", ["euclidean:3", "sphere:2:1", "sphere:5:0.7", "sphere:8:1", "hyperbolic2"])
def test_orthonormal_frames_match_single_point_frames(name):
    # one chart call and one batched eigh give each point's eigenvector frame bit for bit
    m = preset(name)
    rng = np.random.default_rng(11)
    for n in (1, 4, 9):
        pts = rng.uniform(0.5, 1.5, (n, m.dim)) * rng.choice([-1.0, 1.0], (n, m.dim))
        pts[:, -1] = np.abs(pts[:, -1])  # inside the half plane
        frames = oracle.orthonormal_frames(m, pts)
        assert len(frames) == n
        for x, fr in zip(pts, frames):
            want = coordinate_frame(m, x)
            assert np.array_equal(fr.x, x)
            assert np.array_equal(fr.vectors, want.vectors)
