import dataclasses
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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, "1", None], ids=repr)
def test_certificate_constants_must_be_finite_nonnegative_numbers(bad):
    with pytest.raises(CertificateError):
        cert(3, c=bad)
    with pytest.raises(CertificateError):
        cert(3, L=bad)
    with pytest.raises(CertificateError):
        bundle_certificate(cert(1), cert(10), a_bound=bad, variant="general")
    if bad is not None:  # None marks a certificate without an a_bound
        with pytest.raises(CertificateError):
            FamilyParams(q=F(3), c=0.0, m=F(0), dim=2, a_bound=bad)


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


def steps(res):
    return [(t["rule"], t["node"]) for t in res.trace]


def test_plan_flat_fiber_records_fiber_instantiation():
    # the every-exponent fiber is instantiated at the base exponent, and the
    # trace cites that step as the flatBundle and general branches do
    plan = {
        "kind": "fiberBundle",
        "base": {"kind": "ricNonneg", "dim": 2},
        "fiber": {"kind": "custom", "q": "any", "dim": 1, "curvature": {"L": 0.0, "e": "0"}},
        "La": 0.5,
    }
    res = evaluate_plan(plan)
    assert steps(res) == [
        ("nonneg-ricci-leaf", "plan.base"),
        ("instantiate-base", "plan.base"),
        ("custom-leaf", "plan.fiber"),
        ("instantiate-fiber", "plan.fiber"),
        ("flat-fiber-bundle", "plan"),
        ("instantiate", "normalize"),
        ("rescale", "normalize"),
        ("positivity-threshold", "normalize"),
    ]
    assert res.trace[3]["result"].startswith("(q=3,")
    assert res.p_bound is not None


def test_plan_weakens_base_to_meet_fiber_budget():
    # m_hat = max(1, 2*1, 0) = 2 needs fiber q >= 2*2 + 3*2 = 10 > 8, so the
    # base drops to q = (8 - 2*2) / 3 = 4/3
    plan = {
        "kind": "fiberBundle",
        "base": {"kind": "custom", "q": 2, "m": 1, "dim": 2, "curvature": {"L": 1.0, "e": "1"}},
        "fiber": {"kind": "custom", "q": 8, "dim": 1, "curvature": {"L": 1.0, "e": "0"}},
    }
    res = evaluate_plan(plan)
    assert steps(res) == [
        ("custom-leaf", "plan.base"),
        ("custom-leaf", "plan.fiber"),
        ("weaken-base", "plan.base"),
        ("general-bundle", "plan"),
        ("reparametrize-exact", "normalize"),
        ("rescale", "normalize"),
        ("positivity-threshold", "normalize"),
    ]
    assert res.trace[2]["result"].startswith("(q=4/3,")
    assert res.params.q == F(4, 3)


def every_exponent_fiber_plan(e):
    fiber = {"kind": "custom", "q": "any", "dim": 1, "curvature": {"L": 1.0, "e": e}}
    base = {"kind": "ricNonneg", "dim": 2}
    return {"kind": "fiberBundle", "base": base, "fiber": fiber, "La": 0.5}


def test_plan_every_exponent_fiber_without_admissible_exponent():
    # instantiated at q the fiber's exponent is 1*q/2, so 2*m_hat + 3*3 >= q + 9 > q
    with pytest.raises(PlanError, match="node plan: no fiber exponent") as err:
        evaluate_plan(every_exponent_fiber_plan("1"))
    assert not isinstance(err.value, CertificateError)


def test_plan_every_exponent_fiber_at_fixed_point():
    # e = 1/2 at q_ref = 2: the requirement 2*(q/4) + 3*3 equals q at
    # q = 3*3*2 / (2 - 1) = 18, above the reference requirement 2*(1/2) + 9 = 10
    res = evaluate_plan(every_exponent_fiber_plan("1/2"))
    fiber = res.trace[3]
    assert (fiber["rule"], fiber["node"]) == ("instantiate-fiber", "plan.fiber")
    assert fiber["result"].startswith("(q=18,") and fiber["result"].endswith("e=9/2)")
    assert res.trace[4]["rule"] == "general-bundle"
    assert res.p_bound is not None


def test_plan_past_the_recursion_limit_names_its_depth_wherever_it_is_called():
    plan = {"kind": "ricNonneg", "dim": 2}
    for _ in range(1500):
        plan = {"kind": "flatBundle", "base": plan, "fiber": {"kind": "ricNonneg", "dim": 2}}

    def message_at_depth(extra):
        if extra:
            return message_at_depth(extra - 1)
        with pytest.raises(PlanError) as err:
            evaluate_plan(plan)
        return str(err.value)

    message = message_at_depth(0)
    assert message == "plan nests 1501 levels deep, past the recursion limit"
    assert message_at_depth(200) == message
    assert len(message.encode()) < 200


def test_plan_nilmanifold_leaf():
    res = evaluate_plan({"kind": "nilmanifold", "dim": 3, "c": 1.0})
    assert res.p_bound is not None
    assert res.normalized.q == 2 and res.normalized.m_lower > 0


def test_plan_nilmanifold_leaf_past_float_range_replays_exactly():
    res = evaluate_plan({"kind": "nilmanifold", "dim": 1026, "q": 2})
    assert res.params.m == 2**1024 + 1
    assert res.replay.mi == (res.normalized.m,) * 1026
    assert res.replay.p_star == res.p_bound


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


def test_plan_flat_bundle_fiber_without_curvature_names_node():
    fiber = {"kind": "custom", "q": 3, "dim": 1}
    plan = {"kind": "flatBundle", "base": {"kind": "ricNonneg", "dim": 2}, "fiber": fiber}
    with pytest.raises(PlanError, match="node plan: fiber certificate lacks a curvature bound") as err:
        evaluate_plan(plan)
    assert not isinstance(err.value, CertificateError)
    nested = {"kind": "flatBundle", "base": plan, "fiber": {"kind": "ricNonneg", "dim": 1}}
    with pytest.raises(PlanError, match="node plan.base: fiber certificate"):
        evaluate_plan(nested)


def test_plan_vector_bundle_base_without_curvature_names_node():
    plan = {"kind": "vectorBundle", "base": {"kind": "custom", "q": 3, "dim": 1}, "rank": 2}
    with pytest.raises(PlanError, match="node plan: base certificate lacks a curvature bound") as err:
        evaluate_plan(plan)
    assert not isinstance(err.value, CertificateError)
    # a rank-0 vector bundle is its base and needs no curvature bound
    assert evaluate_plan({**plan, "rank": 0}).params.curvature is None


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
        # every-exponent certificates: instantiate(q) is the exact
        # reparametrization of the reference instance at q_ref
        fiber_q = _random_fraction(rng, 1, 12) + F(1, 3)
        flat_base = cert(q, c=rng.random(), m=m, e=0, L=2.0, m_lower=m / 2)
        flat_fiber = cert(fiber_q, m=_random_fraction(rng), e=e, L=0.0)
        fiber_e = _random_fraction(rng)
        curved_fiber = cert(fiber_q, c=rng.random(), m=_random_fraction(rng), e=fiber_e, L=3.0)
        orbits = [
            nonneg_ricci_certificate(rng.randint(1, 5)),
            bundle_certificate(flat_base, flat_fiber, a_bound=rng.random(), variant="flat-fiber"),
            bundle_certificate(x, curved_fiber, a_bound=0.0, variant="flat-bundle"),
        ]
        target = _random_fraction(rng, 1, 12) + F(1, 3)
        for orbit in orbits:
            rho = target / orbit.q_ref
            inst = orbit.instantiate(target)
            reference = FamilyParams(
                q=orbit.q_ref,
                c=orbit.c,
                m=orbit.m,
                dim=orbit.dim,
                curvature=orbit.curvature,
                a_bound=orbit.a_bound,
                m_lower=orbit.m_lower,
                derived=orbit.derived,
            )
            assert inst == reparametrize_exact(reference, rho)
            assert (inst.q, inst.c, inst.dim) == (target, orbit.c, orbit.dim)
            assert (inst.m, inst.m_lower) == (orbit.m * rho, orbit.m_lower * rho)
            assert inst.curvature == CurvatureBound(L=orbit.curvature.L, e=orbit.curvature.e * rho)
            assert (inst.a_bound, inst.derived) == (orbit.a_bound, orbit.derived)
            assert (inst.curvature_rate, inst.q_ref) == (None, 2)
        rate = orbits[2].curvature_rate
        assert rate.k == min(q, fiber_q) and orbits[2].curvature.L == rate.l_b + rate.l_f
        assert orbits[2].instantiate(target).curvature.e == max(rate.b, rate.f) * target / rate.k


@pytest.mark.parametrize(
    "transform, message",
    [
        (lambda: reparametrize(cert(2), 0), "rho must be positive"),
        (lambda: reparametrize(cert(2), "-1/2"), "rho must be positive"),
        (lambda: reparametrize_exact(cert(2), 0), "rho must be positive"),
        (lambda: nonneg_ricci_certificate(2).instantiate(-1), "rho must be positive"),
        (lambda: rescale(cert(4), 0), "rescale exponent must lie in (0, q/2) = (0, 2); got 0"),
        (lambda: rescale(cert(4), -1), "rescale exponent must lie in (0, q/2) = (0, 2); got -1"),
        (lambda: rescale(cert(F(9, 2)), F(9, 4)), "rescale exponent must lie in (0, q/2) = (0, 9/4); got 9/4"),
        (lambda: weaken(cert(4), 5), "cannot weaken upward: 5 > 4"),
        (lambda: weaken(cert(4), 0), "s must be positive"),
        (lambda: cert(3).instantiate(2), "certificate is fixed at q = 3; cannot instantiate at 2"),
    ],
)
def test_transforms_refuse_bad_arguments(transform, message):
    with pytest.raises(CertificateError) as err:
        transform()
    assert str(err.value) == message


def test_every_exponent_certificate_needs_a_positive_reference_exponent():
    # instantiate divides by q_ref, so the constructor refuses q_ref <= 0
    for q_ref in (0, -1):
        with pytest.raises(ValueError, match="q_ref must be positive"):
            FamilyParams(q=None, c=0.0, m=0, dim=1, q_ref=q_ref)


def _certify_leaf(rng):
    if rng.random() < 0.5:
        return {"kind": "ricNonneg", "dim": rng.choice([1, 2, 3])}
    return {"kind": "nilmanifold", "dim": rng.choice([2, 3]), "c": rng.choice([0.5, 1.0, 2.0])}


def _certify_tree(kind, rng):
    """A tree as the certify benchmark draws it."""
    if kind == "fiberBundle":
        fiber = {"kind": "ricNonneg", "dim": rng.choice([1, 2, 3])}
        return {"kind": kind, "base": _certify_leaf(rng), "fiber": fiber, "La": rng.choice([0.25, 0.5, 1.0])}
    if kind == "flatBundle":
        return {"kind": kind, "base": _certify_leaf(rng), "fiber": _certify_leaf(rng)}
    return {"kind": kind, "base": _certify_leaf(rng), "rank": rng.choice([1, 2, 3]), "La": rng.choice([0.25, 0.5, 1.0])}


def _revalidated(record):
    """record rebuilt through its constructor, which re-runs every check."""
    fields = {"curvature": _revalidated(record.curvature)} if getattr(record, "curvature", None) else {}
    return dataclasses.replace(record, **fields)


def test_derived_certificates_pass_the_constructor_checks(monkeypatch):
    # the transforms build certificates without re-running __post_init__;
    # each one the fold records must equal its re-validated rebuild, with
    # every exponent still a Fraction
    built = []

    def recording_step(trace, rule, node, fp, tag=""):
        built.append(fp)
        return step(trace, rule, node, fp, tag)

    step = bc._step
    monkeypatch.setattr(bc, "_step", recording_step)
    rng = random.Random(37)
    plans = [_certify_tree(kind, rng) for _ in range(60) for kind in ("fiberBundle", "flatBundle", "vectorBundle")]
    plans += [
        {  # weaken-base: fiber q = 8 is below 2*2 + 3*2
            "kind": "fiberBundle",
            "base": {"kind": "custom", "q": 2, "m": 1, "dim": 2, "curvature": {"L": 1.0, "e": "1"}},
            "fiber": {"kind": "custom", "q": 8, "dim": 1, "curvature": {"L": 1.0, "e": "0"}},
        },
        {  # flat fiber, instantiated at the base exponent
            "kind": "fiberBundle",
            "base": {"kind": "ricNonneg", "dim": 2},
            "fiber": {"kind": "custom", "q": "any", "dim": 1, "curvature": {"L": 0.0, "e": "0"}},
        },
        every_exponent_fiber_plan("1/2"),  # the fixed point q = 18
        {"kind": "nilmanifold", "dim": 1026, "q": 2},  # m past float range
        {"kind": "custom", "q": "6", "c": 1.0, "m": "1", "mLower": "1/3", "dim": 2, "curvature": {"L": 2.0, "e": "1"}},
        {"kind": "custom", "q": "1/3", "c": 0.5, "m": "1/2", "mLower": "1/4", "dim": 3},
    ]
    for plan in plans:
        res = evaluate_plan(plan)
        for fp in (*built, res.params, res.normalized):
            exponents = [fp.m, fp.m_lower, fp.q_ref] + ([fp.curvature.e] if fp.curvature else [])
            assert all(type(x) is F for x in exponents + ([] if fp.for_all_q else [fp.q]))
            assert _revalidated(fp) == fp
        assert len(built) == len(res.trace) - 1  # every step but the positivity threshold
        built.clear()
