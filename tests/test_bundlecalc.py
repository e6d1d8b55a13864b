import random
from fractions import Fraction as F

import pytest

from ricciforge import bundlecalc as bc
from ricciforge.bundlecalc import (
    CertificateError,
    CurvatureBound,
    FamilyParams,
    PlanError,
    bundle_certificate,
    evaluate_plan,
    nilmanifold_certificate,
    nonneg_ricci_certificate,
    params_to_json,
    reparametrize,
    reparametrize_exact,
    rescale,
    vector_bundle_certificate,
    weaken,
)


def cert(q, c=0.0, m=0, dim=2, e=0, L=1.0, m_lower=0):
    return FamilyParams(
        q=q, c=c, m=m, dim=dim, curvature=CurvatureBound(L=L, e=F(e)), m_lower=m_lower
    )


def test_reparametrize_reference_instance():
    out = reparametrize(cert(6, c=1.0, m=1), 3)
    assert out.q == 2 and out.m == 3
    assert out.c == 1.0


def test_reparametrize_identity_and_composition():
    x = cert(6, m=F(1, 2), e=2)
    assert reparametrize(x, 1) == x
    ab = reparametrize(reparametrize(x, 2), 3)
    assert ab == reparametrize(x, 6)
    assert ab.q == 1 and ab.m == 3 and ab.curvature.e == 12


def test_reparametrize_validation():
    with pytest.raises(CertificateError):
        reparametrize(cert(2), 0)
    with pytest.raises(CertificateError):
        reparametrize(nonneg_ricci_certificate(2), 2)


def test_reparametrize_exact_scales_everything():
    out = reparametrize_exact(cert(1, m=2, e=3, m_lower=0), F(3, 2))
    assert out.q == F(3, 2) and out.m == 3 and out.curvature.e == F(9, 2)


def test_rescale_trades_decay_for_positive_exponents():
    out = rescale(cert(4, c=1.0, m=1), 1)
    assert out.q == 2 and out.m == 2 and out.m_lower == 1
    assert out.curvature.e == 2
    two = rescale(rescale(cert(8, m=0), 1), 2)
    assert two == rescale(cert(8, m=0), 3)


def test_rescale_boundary_validation():
    for r in (0, 2, 3, -1):
        with pytest.raises(CertificateError):
            rescale(cert(4), r)


def test_weaken_idempotent_and_downward_only():
    x = cert(4, m=1)
    once = weaken(x, 2)
    assert weaken(once, 2) == once
    assert once.m == x.m and once.c == x.c
    assert weaken(x, 4) == x
    with pytest.raises(CertificateError):
        weaken(x, 5)


def test_nonneg_ricci_certificate_orbit():
    fp = nonneg_ricci_certificate(3)
    assert fp.for_all_q and fp.c == 0.0 and fp.m == 0
    for q in (F(1, 2), F(2), F(7)):
        inst = fp.instantiate(q)
        assert inst.q == q and inst.c == 0.0 and inst.m == 0
        assert inst.curvature.e == 0
        back = reparametrize(inst, 1)
        assert (back.c, back.m) == (0.0, F(0))


@pytest.mark.parametrize("n,q,m", [(2, 2, 2), (3, 2, 3), (2, 1, 1), (4, 3, 9)])
def test_nilmanifold_formula(n, q, m):
    assert nilmanifold_certificate(n, q).m == m


def test_nilmanifold_validation():
    with pytest.raises(CertificateError):
        nilmanifold_certificate(1, 2)
    with pytest.raises(CertificateError):
        nilmanifold_certificate(2, F(1, 2))


def test_bundle_certificate_general_worked_example():
    base = cert(1, c=0.5, m=1, dim=2, e=2, L=1.0)
    fiber = cert(10, c=0.0, m=0, dim=3, e=0, L=1.0)
    out = bundle_certificate(base, fiber, a_bound=1.0, variant="general")
    assert out.q == 1
    assert out.m == 1
    assert out.curvature.e == 6  # 2*m_hat + 2*q + fiber e with m_hat = 2
    assert out.dim == 5
    # error constant: (dimE + dimF - 2) * (L_b + 4 dimB^2 L_a + L_f)
    assert out.c == 0.5 + (5 + 3 - 2) * (1.0 + 4 * 4 * 1.0 + 1.0)


def test_bundle_certificate_precondition_names_both_sides():
    base = cert(1, m=1, e=2)
    fiber = cert(6, m=0, e=0)
    with pytest.raises(CertificateError) as err:
        bundle_certificate(base, fiber, a_bound=1.0, variant="general")
    assert "6 < 7" in str(err.value)
    assert "m_hat = 2" in str(err.value)


def test_bundle_certificate_flat_fiber():
    base = cert(2, c=0.25, m=1, dim=2, e=0, L=3.0)
    fiber = cert(2, c=0.0, m=0, dim=1, e=0, L=0.0)
    out = bundle_certificate(base, fiber, a_bound=0.5, variant="flat-fiber")
    assert out.for_all_q
    assert out.curvature.e == 0
    assert out.curvature.L == 3.0 + 4 * 4 * 0.5
    bad_fiber = cert(2, L=1.0)
    with pytest.raises(CertificateError):
        bundle_certificate(base, bad_fiber, a_bound=0.5, variant="flat-fiber")
    bad_base = cert(2, e=1, L=3.0)
    with pytest.raises(CertificateError):
        bundle_certificate(bad_base, fiber, a_bound=0.5, variant="flat-fiber")


def test_bundle_certificate_flat_bundle():
    base = cert(3, c=0.1, m=1, dim=2, e=1, L=2.0)
    fiber = cert(2, c=0.2, m=F(1, 2), dim=2, e=2, L=5.0)
    out = bundle_certificate(base, fiber, a_bound=0.0, variant="flat-bundle")
    assert out.for_all_q
    assert out.c == 0.2 and out.m == 1
    rate = out.curvature_rate
    assert rate.k == 2 and rate.b == 1 and rate.f == 2
    inst = out.instantiate(4)
    assert inst.curvature.e == 4 * 2 / 2  # q * max(b, f) / k
    assert inst.curvature.L == 7.0
    with pytest.raises(CertificateError):
        bundle_certificate(base, fiber, a_bound=0.5, variant="flat-bundle")


def test_flat_bundle_of_constant_curvature_pieces_stays_flat():
    base = nonneg_ricci_certificate(2).instantiate(2)
    fiber = nonneg_ricci_certificate(3).instantiate(2)
    out = bundle_certificate(base, fiber, a_bound=0.0, variant="flat-bundle")
    assert out.for_all_q
    assert out.instantiate(9).curvature.e == 0


def test_bundle_certificate_validation():
    base = cert(1, m=1, e=2)
    with pytest.raises(CertificateError):
        bundle_certificate(base, cert(10), a_bound=1.0, variant="mystery")
    with pytest.raises(CertificateError):
        bundle_certificate(nonneg_ricci_certificate(2), cert(10), a_bound=1.0, variant="general")
    no_curv = FamilyParams(q=F(10), c=0.0, m=F(0), dim=2)
    with pytest.raises(CertificateError):
        bundle_certificate(base, no_curv, a_bound=1.0, variant="general")


def test_vector_bundle_certificate():
    base = nonneg_ricci_certificate(2).instantiate(3)
    out = vector_bundle_certificate(base, 2, a_bound=1.0)
    assert out.q == 3 and out.m == 0 and out.dim == 4
    assert out.curvature.e == 2 * 3  # m_hat = 0, fiber e = 0: 2q
    assert vector_bundle_certificate(base, 0) == base
    with pytest.raises(CertificateError):
        vector_bundle_certificate(nonneg_ricci_certificate(2), 2)
    with pytest.raises(CertificateError):
        vector_bundle_certificate(FamilyParams(q=F(3), c=0.0, m=F(0), dim=2), 2)


def test_vector_bundle_over_nilmanifold():
    base = nilmanifold_certificate(3, 2)
    out = vector_bundle_certificate(base, 2, a_bound=1.0)
    assert out.q == 2
    assert out.m == base.m == 3


def test_plan_vector_bundle_over_nonneg_base():
    plan = {"kind": "vectorBundle", "base": {"kind": "ricNonneg", "dim": 2}, "rank": 2, "La": 1.0}
    res = evaluate_plan(plan)
    assert res.p_bound is not None and res.p_bound > 0
    assert res.replay is not None and res.replay.p_star is not None
    assert res.replay.p_star <= res.p_bound
    rules = [t["rule"] for t in res.trace]
    assert rules == [
        "nonneg-ricci-leaf",
        "instantiate-base",
        "vector-bundle-lift",
        "rescale",
        "positivity-threshold",
    ]
    again = evaluate_plan(plan)
    assert again == res


def test_plan_nilmanifold_leaf():
    res = evaluate_plan({"kind": "nilmanifold", "dim": 3, "c": 1.0})
    assert res.p_bound is not None
    assert res.normalized.q == 2 and res.normalized.m_lower > 0


def test_plan_iterated_bundle():
    plan = {
        "kind": "fiberBundle",
        "base": {"kind": "ricNonneg", "dim": 2},
        "fiber": {"kind": "ricNonneg", "dim": 3},
        "La": 0.5,
        "symmetry": "torus-action",
    }
    res = evaluate_plan(plan)
    assert res.p_bound is not None
    assert any("symmetry" in t["result"] for t in res.trace)


def test_plan_insensitive_to_product_association():
    def leaf(d):
        return {"kind": "ricNonneg", "dim": d}

    def flat(base, fiber):
        return {"kind": "flatBundle", "base": base, "fiber": fiber}

    left = evaluate_plan(flat(flat(leaf(1), leaf(2)), leaf(3)))
    right = evaluate_plan(flat(leaf(1), flat(leaf(2), leaf(3))))
    assert left.normalized == right.normalized
    assert left.p_bound == right.p_bound
    assert left.replay == right.replay


def test_plan_rejects_unknown_leaf():
    plan = {"kind": "flatBundle", "base": {"kind": "sol3Manifold", "dim": 3}, "fiber": {"kind": "ricNonneg", "dim": 2}}
    with pytest.raises(PlanError) as err:
        evaluate_plan(plan)
    assert "sol3Manifold" in str(err.value)
    assert "plan.base" in str(err.value)


def test_plan_zero_exponents_still_normalize():
    # basis exponents scale multiplicatively under exact reparametrization
    # (zeros stay zero) but the rescale step shifts every exponent up, so
    # a certificate with m = 0 still normalizes to strictly positive
    # exponents and a finite bound
    plan = {"kind": "custom", "q": "2", "c": 0.0, "m": 0, "dim": 2}
    res = evaluate_plan(plan)
    assert res.normalized.q == 2 and res.normalized.m_lower == F(1, 2)
    assert res.p_bound is not None


def test_plan_custom_leaf_full_pipeline():
    plan = {
        "kind": "custom",
        "q": "6",
        "c": 1.0,
        "m": "1",
        "dim": 2,
        "curvature": {"L": 2.0, "e": "1"},
    }
    res = evaluate_plan(plan)
    assert res.normalized.q == 2
    assert res.normalized.m == F(3, 2)  # weaken 6 -> 3, rescale adds 1/2
    assert res.p_bound is not None


def test_params_json_shape():
    fp = nilmanifold_certificate(3, 2, c=0.5)
    data = params_to_json(fp)
    assert data["q"] == "2" and data["m"] == "3"
    assert data["curvatureBound"]["e"] == "6"
    marker = params_to_json(nonneg_ricci_certificate(2))
    assert marker["q"] == "any"


def test_exponent_type_discipline():
    with pytest.raises(TypeError):
        bc.frac(0.3)
    with pytest.raises(TypeError):
        bc.frac(float("inf"))
    assert bc.frac(2.0) == 2
    assert bc.frac("5/3") == F(5, 3)


def _random_fraction(rng, lo=0, hi=12, den=6):
    return F(rng.randint(max(lo, 0), hi), rng.randint(1, den))


def test_randomized_certificate_laws():
    rng = random.Random(321)
    for _ in range(300):
        q = _random_fraction(rng, 1, 12) + F(1, 7)  # keep q > 0
        m = _random_fraction(rng)
        e = _random_fraction(rng)
        x = cert(q, c=rng.random(), m=m, e=e)
        rho1 = _random_fraction(rng, 1, 6) + F(1, 5)
        rho2 = _random_fraction(rng, 1, 6) + F(1, 5)
        a = reparametrize(reparametrize(x, rho1), rho2)
        b = reparametrize(x, rho1 * rho2)
        assert a == b
        assert a.q == q / (rho1 * rho2)
        assert a.m == m * rho1 * rho2
        assert a.curvature.e == e * rho1 * rho2
        r = q / 4
        y = rescale(x, r)
        assert y.q == q - 2 * r and y.m == m + r and y.m_lower == x.m_lower + r
        s = q / 3
        w = weaken(x, s)
        assert weaken(w, s) == w and w.m == m
