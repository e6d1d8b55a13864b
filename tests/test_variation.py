import inspect

import numpy as np
import pytest

from ricciforge import oracle, variation
from ricciforge.variation import (
    SubmersionData,
    a_invariants_from_ricci,
    bounded_error_constant,
    canonical_variation_ricci,
    error_bound_check,
    hopf_preset,
    verify_hopf_against_oracle,
)


def flat_bundle_data(dim_b=2, dim_f=2):
    return SubmersionData(
        dim_b=dim_b,
        dim_f=dim_f,
        ric_b=np.diag(np.arange(1.0, dim_b + 1.0)),
        ric_f=np.diag(np.arange(0.0, dim_f + 0.0)),
        a_uv=np.zeros((dim_f, dim_f)),
        a_xy=np.zeros((dim_b, dim_b)),
        delta_a=np.zeros((dim_b, dim_f)),
    )


def test_flat_bundle_blocks():
    d = flat_bundle_data()
    for t in (1.0, 0.5, 0.1):
        s = canonical_variation_ricci(d, t)
        assert np.array_equal(s.vv, d.ric_f / t**2)
        assert np.array_equal(s.hh, d.ric_b)
        assert np.array_equal(s.hv, np.zeros((2, 2)))


def test_t_domain():
    d = flat_bundle_data()
    for t in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            canonical_variation_ricci(d, t)


def test_data_validation():
    with pytest.raises(ValueError):
        SubmersionData(
            dim_b=2,
            dim_f=1,
            ric_b=np.array([[1.0, 0.5], [0.5, 1.0]]),  # not diagonal
            ric_f=np.zeros((1, 1)),
            a_uv=np.zeros((1, 1)),
            a_xy=np.zeros((2, 2)),
            delta_a=np.zeros((2, 1)),
        )
    with pytest.raises(ValueError):
        SubmersionData(
            dim_b=1,
            dim_f=2,
            ric_b=np.eye(1),
            ric_f=np.zeros((2, 2)),
            a_uv=np.array([[0.0, 1.0], [1.0, 0.0]]),  # indefinite
            a_xy=np.zeros((1, 1)),
            delta_a=np.zeros((1, 2)),
        )
    with pytest.raises(ValueError):
        SubmersionData(
            dim_b=1,
            dim_f=1,
            ric_b=np.eye(1),
            ric_f=np.zeros((1, 1)),
            a_uv=np.zeros((1, 1)),
            a_xy=np.zeros((1, 1)),
            delta_a=np.zeros((2, 1)),  # wrong shape
        )


def test_invariant_recovery_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim_b, dim_f = rng.integers(1, 4), rng.integers(1, 4)
        ric_b = np.diag(rng.normal(size=dim_b))
        ric_f = np.diag(rng.normal(size=dim_f))
        root_v = rng.normal(size=(dim_f, dim_f))
        root_h = rng.normal(size=(dim_b, dim_b))
        a_uv = root_v @ root_v.T
        a_xy = root_h @ root_h.T
        delta_a = rng.normal(size=(dim_b, dim_f))
        ric_e_vv = ric_f + a_uv
        ric_e_hh = ric_b - 2.0 * a_xy
        ric_e_hv = -delta_a
        got_uv, got_xy, got_da = a_invariants_from_ricci(
            ric_e_vv, ric_e_hh, ric_e_hv, ric_b, ric_f
        )
        assert np.allclose(got_uv, a_uv, atol=1e-12)
        assert np.allclose(got_xy, a_xy, atol=1e-12)
        assert np.allclose(got_da, delta_a, atol=1e-12)
        # the scaled blocks at t = 1 reproduce the unscaled Ricci exactly
        d = SubmersionData(
            dim_b=int(dim_b),
            dim_f=int(dim_f),
            ric_b=ric_b,
            ric_f=ric_f,
            a_uv=got_uv,
            a_xy=got_xy,
            delta_a=got_da,
        )
        s = canonical_variation_ricci(d, 1.0)
        assert np.allclose(s.vv, ric_e_vv, atol=1e-12)
        assert np.allclose(s.hh, ric_e_hh, atol=1e-12)
        assert np.allclose(s.hv, ric_e_hv, atol=1e-12)


def hopf_invariants_from(ric_e, ric_b, ric_f):
    """The preset's five arrays from Ricci tensors of S^3 in the Hopf frame
    [vertical, horizontal, horizontal], of the base and of the fiber."""
    a_uv, a_xy, delta_a = a_invariants_from_ricci(
        ric_e[:1, :1], ric_e[1:, 1:], ric_e[1:, :1], ric_b, ric_f
    )
    return {"ric_b": ric_b, "ric_f": ric_f, "a_uv": a_uv, "a_xy": a_xy, "delta_a": delta_a}


def test_hopf_invariants():
    # O'Neill's inversion of the exact Ricci tensors of S^3(1), S^2(1/2) and S^1
    d = hopf_preset()
    assert d.dim_b == 2 and d.dim_f == 1
    want = hopf_invariants_from(2.0 * np.eye(3), 4.0 * np.eye(2), np.zeros((1, 1)))
    for name, value in want.items():
        got = getattr(d, name)
        # bit for bit, once + 0.0 turns the inversion's -0 into the 0 the reports print
        assert got.dtype == value.dtype and got.tobytes() == (value + 0.0).tobytes(), name


def test_hopf_preset_agrees_with_the_oracle_derivation():
    # the preset's former derivation, kept as a reference: oracle Ricci of the
    # round S^3 in the Hopf frame and of S^2(1/2) at one point
    ric_e = oracle.frame_ricci(oracle.preset("s3-left-invariant:1:1:1"), variation._hopf_frame(1.0))
    s2 = oracle.preset("sphere:2:0.5")
    (frame,) = oracle.orthonormal_frames(s2, [[0.3, -0.2]])
    want = hopf_invariants_from(ric_e, oracle.frame_ricci(s2, frame), np.zeros((1, 1)))
    d = hopf_preset()
    for name, value in want.items():
        assert np.max(np.abs(getattr(d, name) - value)) <= 1e-9, name


def test_hopf_preset_and_error_bounds_call_no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle was called")

    for name in [*oracle.__all__, "_metric_derivatives"]:
        if inspect.isfunction(getattr(oracle, name)):
            monkeypatch.setattr(oracle, name, refuse)
    d = hopf_preset()
    assert error_bound_check(d, bounded_error_constant(d), [1.0, 0.5, 0.1, 0.01]).passed


def test_hopf_round_sphere_at_t_one():
    d = hopf_preset()
    s = canonical_variation_ricci(d, 1.0)
    assert abs(s.vv[0, 0] - 2.0) <= 1e-5
    assert np.max(np.abs(s.hh - 2.0 * np.eye(2))) <= 1e-5
    assert np.max(np.abs(s.hv)) <= 1e-5


def test_hopf_blocks_match_oracle_along_the_family():
    rep = verify_hopf_against_oracle([1.0, 0.5, 0.25], 1e-5)
    assert rep["passed"]
    assert all(row["deviation"] <= 1e-5 for row in rep["rows"])


def test_fiber_block_limits():
    # flat circle fiber: the fiber block decays like t^2 a_uv
    d = hopf_preset()
    for t in (1e-1, 1e-2, 1e-3):
        s = canonical_variation_ricci(d, t)
        assert s.vv[0, 0] == pytest.approx(t**2 * d.a_uv[0, 0], rel=1e-12)
    # positively curved fiber: the block blows up like 1/t^2
    curved = SubmersionData(
        dim_b=1,
        dim_f=1,
        ric_b=np.eye(1),
        ric_f=np.eye(1),
        a_uv=np.zeros((1, 1)),
        a_xy=np.zeros((1, 1)),
        delta_a=np.zeros((1, 1)),
    )
    values = [canonical_variation_ricci(curved, t).vv[0, 0] for t in (1e-1, 1e-2, 1e-3)]
    assert values[0] < values[1] < values[2]
    assert values[2] == pytest.approx(1e6, rel=1e-9)


def test_error_bounds_pass_with_derived_constant():
    d = hopf_preset()
    c = bounded_error_constant(d)
    assert c == 2.0
    rep = error_bound_check(d, c, [1.0, 0.5, 0.1, 0.01])
    assert rep.passed
    assert rep.violations == []
    slack = rep.per_tensor_slack
    assert set(slack) == {"fiber-offdiag", "base-offdiag", "mixed", "fiber-diag", "base-diag"}
    # one fiber direction, so no vv off-diagonal; hh[0,1] = 0 leaves C t = 0.02 at t = 0.01
    assert slack["fiber-offdiag"] is None
    assert slack["base-offdiag"] == pytest.approx(0.02, abs=1e-15)


def test_derived_constant_is_sharp_on_random_data():
    # exactly diagonal Ricci tensors and Gram-type a_uv, a_xy: the derived
    # constant passes at every t in (0, 1], and one just below it fails at t = 1
    rng = np.random.default_rng(5)
    ts = [1.0, *rng.uniform(0.0, 1.0, size=20), *np.geomspace(1e-8, 1.0, 17)]
    for _ in range(60):
        dim_b, dim_f = (int(k) for k in rng.integers(1, 5, size=2))
        a_b = rng.normal(size=(dim_b, dim_b))
        a_f = rng.normal(size=(dim_f, dim_f))
        d = SubmersionData(
            dim_b=dim_b,
            dim_f=dim_f,
            ric_b=np.diag(rng.normal(size=dim_b)),
            ric_f=np.diag(rng.normal(size=dim_f)),
            a_uv=a_f @ a_f.T,
            a_xy=a_b @ a_b.T,
            delta_a=rng.normal(size=(dim_b, dim_f)),
        )
        c = bounded_error_constant(d)
        assert error_bound_check(d, c, ts).violations == []
        assert error_bound_check(d, c * (1.0 - 1e-9), [1.0]).violations


def test_error_bounds_flat_bundle_trivial():
    d = flat_bundle_data()
    rep = error_bound_check(d, 0.0, [1.0, 0.25])
    assert rep.passed


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda ts: verify_hopf_against_oracle(ts, 1e-5), "ts is empty: there is no t to verify"),
        (lambda ts: error_bound_check(hopf_preset(), 2.0, ts), "ts is empty: there is no t to check"),
    ],
    ids=["hopf-oracle", "error-bounds"],
)
def test_a_sweep_without_t_is_refused(check, message):
    # no t gives no row, and a verdict over no row would pass vacuously
    for ts in ([], iter([])):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check(ts)


def test_error_bounds_flag_undersized_constant():
    d = SubmersionData(
        dim_b=1,
        dim_f=2,
        ric_b=np.eye(1),
        ric_f=np.zeros((2, 2)),
        a_uv=np.array([[1.0, 0.9], [0.9, 1.0]]),
        a_xy=np.zeros((1, 1)),
        delta_a=np.zeros((1, 2)),
    )
    rep = error_bound_check(d, 0.5, [1.0, 0.5])
    assert not rep.passed
    names = [v["inequality"] for v in rep.violations]
    assert any("vv[0,1]" in name for name in names)
    # the violation is at t = 1 where t^2 exceeds C t
    assert any(v["t"] == 1.0 for v in rep.violations)


def test_nonnegative_inputs_keep_blocks_above_error_floor():
    d = hopf_preset()
    c = bounded_error_constant(d)
    for t in (1.0, 0.5, 0.1, 0.01):
        s = canonical_variation_ricci(d, t)
        assert np.all(np.diag(s.vv) >= -1e-9)
        assert np.all(np.diag(s.hh) >= np.diag(d.ric_b) - c * t**2 - 1e-9)
