"""Exact calculus on curvature-decay certificates of metric families.

A certificate (q, c, m) records that a manifold carries a family of
metrics g_t, t in (0, 1], with a local basis rescaled by powers t^(m_i),
m_i in [0, m], whose normalized Ricci diagonal is bounded below by
-c t^q and off-diagonal entries bounded by c t^q in magnitude. Optional
fields carry a sectional curvature bound |K| <= L / t^e, a lower bound
on the basis exponents when one is guaranteed, and the t = 1 bound on
the integrability tensor of a submersion.

The module implements the transformation laws of these certificates
(reparametrization, rescaling, weakening), the certificate produced by a
fiber-bundle construction in its three regimes (general bounded
integrability tensor, flat fiber over a base of bounded curvature, and
zero integrability tensor), the vector-bundle lift, and a plan evaluator
that folds a bundle-construction tree into one certificate and a
finite sphere-dimension bound via the positivity module.

All exponent arithmetic is exact (fractions). Constants that the theory
only asserts to exist are given concrete conservative values and carry a
"derived" provenance note.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from . import positivity
from .exprs import frac

__all__ = [
    "CurvatureBound",
    "CurvatureRate",
    "FamilyParams",
    "CertificateError",
    "PlanError",
    "reparametrize",
    "reparametrize_exact",
    "rescale",
    "weaken",
    "bundle_certificate",
    "vector_bundle_certificate",
    "nilmanifold_certificate",
    "nonneg_ricci_certificate",
    "PlanResult",
    "evaluate_plan",
    "params_to_json",
]

FractionLike = Union[Fraction, int, str]


class CertificateError(ValueError):
    """A certificate operation's precondition failed."""


class PlanError(ValueError):
    """A bundle plan cannot be evaluated; the message names the node."""


@dataclass(frozen=True)
class CurvatureBound:
    """|K| <= L / t^e for the certified family."""

    L: float
    e: Fraction

    def __post_init__(self):
        object.__setattr__(self, "e", frac(self.e))
        if self.L < 0 or self.e < 0:
            raise ValueError("curvature bound needs L >= 0 and e >= 0")


@dataclass(frozen=True)
class CurvatureRate:
    """Deferred curvature bound of a zero-integrability-tensor bundle:
    instantiated at decay exponent q it reads |K| <= l_b t^(-q b / k) +
    l_f t^(-q f / k) with k = min of the two input decay exponents."""

    l_b: float
    b: Fraction
    l_f: float
    f: Fraction
    k: Fraction

    def at(self, q: Fraction) -> CurvatureBound:
        e = max(self.b, self.f) * q / self.k if self.k > 0 else Fraction(0)
        return CurvatureBound(L=self.l_b + self.l_f, e=e)


@dataclass(frozen=True)
class FamilyParams:
    """One curvature-decay certificate.

    q is the decay exponent; q = None marks a certificate valid for every
    exponent (the whole reparametrization orbit is certified, with the
    stored m, e, m_lower referring to q_ref). m bounds the basis
    exponents from above, m_lower from below when a positive lower bound
    is guaranteed. c is a real bound; values the theory only asserts to
    exist are concrete conservative picks listed in `derived`.
    """

    q: Optional[Fraction]
    c: float
    m: Fraction
    dim: int
    curvature: Optional[CurvatureBound] = None
    curvature_rate: Optional[CurvatureRate] = None
    a_bound: Optional[float] = None
    m_lower: Fraction = Fraction(0)
    q_ref: Fraction = Fraction(2)
    derived: tuple = ()

    def __post_init__(self):
        if self.q is not None:
            object.__setattr__(self, "q", frac(self.q))
            if self.q <= 0:
                raise ValueError("q must be positive")
        object.__setattr__(self, "m", frac(self.m))
        object.__setattr__(self, "m_lower", frac(self.m_lower))
        object.__setattr__(self, "q_ref", frac(self.q_ref))
        if self.c < 0:
            raise ValueError("c must be nonnegative")
        if self.m < 0 or self.m_lower < 0 or self.m_lower > max(self.m, 0):
            raise ValueError("need 0 <= m_lower <= m")
        if self.dim < 0:
            raise ValueError("dim must be nonnegative")

    @property
    def for_all_q(self) -> bool:
        return self.q is None

    def instantiate(self, q: FractionLike) -> "FamilyParams":
        """Concrete certificate at the requested exponent.

        For orbit certificates this is the genuine reparametrization of
        the reference instance (q, m, e, m_lower all scale by q/q_ref);
        concrete certificates are returned unchanged when q matches.
        """
        q = frac(q)
        if not self.for_all_q:
            if self.q == q:
                return self
            raise CertificateError(
                f"certificate is fixed at q = {self.q}; cannot instantiate at {q}"
            )
        rho = q / self.q_ref
        curv = self.curvature
        if self.curvature_rate is not None:
            curv = self.curvature_rate.at(q)
        elif curv is not None:
            curv = CurvatureBound(L=curv.L, e=curv.e * rho)
        return FamilyParams(
            q=q,
            c=self.c,
            m=self.m * rho,
            dim=self.dim,
            curvature=curv,
            a_bound=self.a_bound,
            m_lower=self.m_lower * rho,
            derived=self.derived,
        )


def reparametrize(fp: FamilyParams, rho: FractionLike) -> FamilyParams:
    """Exposed reparametrization law: target exponent q' = q / rho with
    m' = m * q / q' = rho * m and curvature exponent e' = rho * e.

    This is the conservative direction-down law; m_lower scales by the
    exact substitution factor q'/q = 1/rho so it stays a valid lower
    bound. rho = 1 is the identity and composition multiplies the rhos.
    """
    rho = frac(rho)
    if rho <= 0:
        raise CertificateError("rho must be positive")
    if fp.for_all_q:
        if rho == 1:
            return fp
        raise CertificateError("instantiate an every-exponent certificate before reparametrizing")
    curv = fp.curvature
    if curv is not None:
        curv = CurvatureBound(L=curv.L, e=curv.e * rho)
    # the exact substitution divides every exponent by rho; any smaller
    # value stays a valid lower bound, and the clamp keeps the record
    # consistent with the conservative upper bound rho * m
    lower = min(fp.m_lower / rho, fp.m * rho)
    return replace(
        fp,
        q=fp.q / rho,
        m=fp.m * rho,
        m_lower=lower,
        curvature=curv,
    )


def reparametrize_exact(fp: FamilyParams, rho: FractionLike) -> FamilyParams:
    """Exact substitution t -> t^rho: q, m, e and m_lower all scale by rho.

    Sound in both directions; the plan evaluator uses it to raise the
    decay exponent before trading it for positive basis exponents.
    """
    rho = frac(rho)
    if rho <= 0:
        raise CertificateError("rho must be positive")
    if fp.for_all_q:
        raise CertificateError("instantiate an every-exponent certificate before reparametrizing")
    curv = fp.curvature
    if curv is not None:
        curv = CurvatureBound(L=curv.L, e=curv.e * rho)
    return replace(
        fp, q=fp.q * rho, m=fp.m * rho, m_lower=fp.m_lower * rho, curvature=curv
    )


def rescale(fp: FamilyParams, r: FractionLike) -> FamilyParams:
    """Metric rescale by t^r for 0 < r < q/2: the decay exponent drops to
    q - 2r while every basis exponent gains r, so m and m_lower both
    increase by r; a sectional curvature bound picks up 2r in its
    exponent. This is the move that arranges strictly positive basis
    exponents at the cost of decay budget."""
    r = frac(r)
    if fp.for_all_q:
        raise CertificateError("instantiate an every-exponent certificate before rescaling")
    if not 0 < r < fp.q / 2:
        raise CertificateError(f"rescale exponent must lie in (0, q/2) = (0, {fp.q / 2}); got {r}")
    curv = fp.curvature
    if curv is not None:
        curv = CurvatureBound(L=curv.L, e=curv.e + 2 * r)
    return replace(fp, q=fp.q - 2 * r, m=fp.m + r, m_lower=fp.m_lower + r, curvature=curv)


def weaken(fp: FamilyParams, s: FractionLike) -> FamilyParams:
    """Cast down to a smaller decay exponent s <= q with no other change;
    idempotent at s = q."""
    s = frac(s)
    if s <= 0:
        raise CertificateError("s must be positive")
    if fp.for_all_q:
        return fp.instantiate(s)
    if s > fp.q:
        raise CertificateError(f"cannot weaken upward: {s} > {fp.q}")
    return replace(fp, q=s)


# --- bundle constructions ---------------------------------------------------

VARIANTS = ("general", "flat-fiber", "flat-bundle")


def _q2(dim_total: int, dim_fiber: int) -> float:
    # Ricci entries are sums of at most dim-1 sectional curvatures on each
    # side of the recovery identities, so this factor converts a sectional
    # bound into an error-term bound.
    return float(dim_total + dim_fiber - 2)


def bundle_certificate(
    base: FamilyParams,
    fiber: FamilyParams,
    a_bound: float,
    variant: str,
) -> FamilyParams:
    """Certificate of the total space of a fiber bundle construction.

    The base and fiber certificates must be concrete. The three variants
    and their preconditions:

    general     : the fiber decay exponent must satisfy
                  fiber.q >= 2*m_hat + 3*base.q with
                  m_hat = max(base.e, 2*base.m, fiber.e); squashing the
                  fibers by t^(m_hat + q) gives a certificate at the base
                  exponent with m = max(base.m, fiber.m) and curvature
                  exponent 2*m_hat + 2*base.q + fiber.e.
    flat-fiber  : fiber curvature bound L = 0 and base curvature exponent
                  0; the total space is certified at every exponent with
                  a constant curvature bound.
    flat-bundle : the integrability tensor vanishes (a_bound = 0); the
                  total space is certified at every exponent with the
                  deferred curvature rate built from both inputs.

    Constants the theory leaves existential get conservative derived
    values recorded in the certificate's provenance notes.
    """
    if variant not in VARIANTS:
        raise CertificateError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    for name, fp in (("base", base), ("fiber", fiber)):
        if fp.for_all_q:
            raise CertificateError(f"{name} certificate must be instantiated at a concrete q")
    if base.curvature is None or fiber.curvature is None:
        raise CertificateError("both certificates need curvature bound fields")
    if a_bound < 0:
        raise CertificateError("a_bound must be nonnegative")
    l_b, b = base.curvature.L, base.curvature.e
    l_f, f = fiber.curvature.L, fiber.curvature.e
    dim_e = base.dim + fiber.dim
    q2 = _q2(dim_e, fiber.dim)
    # t = 1 curvature of the squashed family through the horizontal
    # distribution: base part + integrability part + fiber part.
    l_mix = l_b + 4.0 * base.dim**2 * float(a_bound) + l_f

    if variant == "general":
        m_hat = max(b, 2 * base.m, f)
        q = base.q
        need = 2 * m_hat + 3 * q
        if fiber.q < need:
            raise CertificateError(
                "variant 'general' requires fiber.q >= 2*m_hat + 3*base.q: "
                f"{fiber.q} < {need} "
                f"(m_hat = {m_hat} = max(base e {b}, 2*base m {2 * base.m}, fiber e {f}))"
            )
        q3 = q2 * l_mix
        return FamilyParams(
            q=q,
            c=max(base.c + q3, fiber.c),
            m=max(base.m, fiber.m),
            dim=dim_e,
            curvature=CurvatureBound(L=l_mix, e=2 * m_hat + 2 * q + f),
            m_lower=min(base.m_lower, fiber.m_lower),
            derived=base.derived
            + fiber.derived
            + (f"c from error constant {q3} = {q2} * (L_b + 4 dimB^2 L_a + L_f)",),
        )

    if variant == "flat-fiber":
        if l_f != 0.0:
            raise CertificateError(
                f"variant 'flat-fiber' requires a flat fiber curvature bound: L_f = {l_f} != 0"
            )
        if b != 0:
            raise CertificateError(
                f"variant 'flat-fiber' requires base curvature exponent 0: e = {b} != 0"
            )
        q5 = l_b + 4.0 * base.dim**2 * float(a_bound)
        q6 = q2 * q5
        k = min(Fraction(1), base.q)
        return FamilyParams(
            q=None,
            c=base.c + q6,
            m=max(base.m, fiber.m),
            dim=dim_e,
            curvature=CurvatureBound(L=q5, e=Fraction(0)),
            m_lower=min(base.m_lower, fiber.m_lower),
            q_ref=k,
            derived=base.derived + fiber.derived + (f"constant curvature bound {q5} derived",),
        )

    if a_bound != 0.0:
        raise CertificateError(
            f"variant 'flat-bundle' requires a vanishing integrability tensor: a_bound = {a_bound}"
        )
    k = min(base.q, fiber.q)
    return FamilyParams(
        q=None,
        c=max(base.c, fiber.c),
        m=max(base.m, fiber.m),
        dim=dim_e,
        curvature=CurvatureRate(l_b=l_b, b=b, l_f=l_f, f=f, k=k).at(k),
        curvature_rate=CurvatureRate(l_b=l_b, b=b, l_f=l_f, f=f, k=k),
        m_lower=min(base.m_lower, fiber.m_lower),
        q_ref=k,
        derived=base.derived + fiber.derived,
    )


DEFAULT_FIBER_CURV = 1.0  # derived: flat-vector-space quotient fibers have |K| in [0, L_f]


def vector_bundle_certificate(
    base: FamilyParams,
    rank: int,
    a_bound: float = 1.0,
    fiber_curv_bound: float = DEFAULT_FIBER_CURV,
) -> FamilyParams:
    """Certificate of a vector bundle total space over a certified base.

    The fiber of the associated submersion is a t-independent quotient of
    an orthogonal group times the vector space: nonnegative Ricci, a
    constant curvature bound, and basis exponents zero, so it is
    certified at every decay exponent and the general bundle variant
    applies with the fiber instantiated exactly at its precondition.
    """
    if rank < 0:
        raise CertificateError("rank must be nonnegative")
    if rank == 0:
        return base
    if base.for_all_q:
        raise CertificateError("instantiate the base certificate at a concrete q first")
    if base.curvature is None:
        raise CertificateError("base certificate lacks curvature bound fields")
    fiber_orbit = FamilyParams(
        q=None,
        c=0.0,
        m=Fraction(0),
        dim=rank,
        curvature=CurvatureBound(L=float(fiber_curv_bound), e=Fraction(0)),
        m_lower=Fraction(0),
        derived=(f"fiber curvature bound {fiber_curv_bound} derived",),
    )
    m_hat = max(base.curvature.e, 2 * base.m, Fraction(0))
    fiber = fiber_orbit.instantiate(2 * m_hat + 3 * base.q)
    return bundle_certificate(base, fiber, a_bound=a_bound, variant="general")


def nilmanifold_certificate(n: int, q: FractionLike, c: float = 1.0) -> FamilyParams:
    """Certificate of an n-dimensional nilmanifold at exponent q >= 1:
    m = 2^(n-2) (q-1) + 1, with c supplied by the caller (it depends on
    the structure constants and the dimension). The curvature bound
    exponent 2m is a conservative derived value."""
    if n < 2:
        raise CertificateError("nilmanifold certificates need dimension >= 2")
    q = frac(q)
    if q < 1:
        raise CertificateError("q must be at least 1")
    m = Fraction(2) ** (n - 2) * (q - 1) + 1
    return FamilyParams(
        q=q,
        c=float(c),
        m=m,
        dim=n,
        curvature=CurvatureBound(L=1.0, e=2 * m),
        m_lower=Fraction(0),
        derived=("nilmanifold curvature bound (L=1, e=2m) derived",),
    )


def nonneg_ricci_certificate(dim: int) -> FamilyParams:
    """Certificate of a compact manifold with nonnegative Ricci curvature:
    the constant family works at every exponent with c = 0, m = 0, and a
    constant curvature bound."""
    return FamilyParams(
        q=None,
        c=0.0,
        m=Fraction(0),
        dim=dim,
        curvature=CurvatureBound(L=1.0, e=Fraction(0)),
        m_lower=Fraction(0),
        derived=("compact curvature bound L=1 derived",),
    )


# --- plan evaluation --------------------------------------------------------

WORK_Q = Fraction(3)  # folding exponent: normalization then rescales 3 -> 2


@dataclass(frozen=True)
class PlanResult:
    params: FamilyParams
    normalized: Optional[FamilyParams]
    p_bound: Optional[int]
    replay: Optional[positivity.MinPResult]
    trace: tuple
    reason: str


def _fold(node, path: str, trace: list) -> FamilyParams:
    if not isinstance(node, dict) or "kind" not in node:
        raise PlanError(f"node {path}: expected an object with a 'kind' field")
    kind = node["kind"]
    tag = f" [symmetry: {node['symmetry']}]" if "symmetry" in node else ""
    if kind == "ricNonneg":
        fp = nonneg_ricci_certificate(int(node["dim"]))
        trace.append(
            {"rule": "nonneg-ricci-leaf", "node": path, "result": _summary(fp) + tag}
        )
        return fp
    if kind == "nilmanifold":
        fp = nilmanifold_certificate(int(node["dim"]), node.get("q", WORK_Q), float(node.get("c", 1.0)))
        trace.append({"rule": "nilmanifold-leaf", "node": path, "result": _summary(fp) + tag})
        return fp
    if kind == "custom":
        curv = None
        if "curvature" in node:
            curv = CurvatureBound(L=float(node["curvature"]["L"]), e=frac(node["curvature"]["e"]))
        fp = FamilyParams(
            q=None if node.get("q") in (None, "any") else frac(node["q"]),
            c=float(node.get("c", 0.0)),
            m=frac(node.get("m", 0)),
            dim=int(node["dim"]),
            curvature=curv,
            a_bound=node.get("aBound"),
            m_lower=frac(node.get("mLower", 0)),
        )
        trace.append({"rule": "custom-leaf", "node": path, "result": _summary(fp) + tag})
        return fp
    if kind in ("fiberBundle", "flatBundle", "vectorBundle"):
        base = _fold(node["base"], path + ".base", trace)
        base = _concretize(base, path + ".base", trace)
        if kind == "vectorBundle":
            fp = vector_bundle_certificate(
                base,
                int(node["rank"]),
                a_bound=float(node.get("La", 1.0)),
                fiber_curv_bound=float(node.get("fiberCurvBound", DEFAULT_FIBER_CURV)),
            )
            trace.append(
                {
                    "rule": "vector-bundle-lift",
                    "node": path,
                    "result": _summary(fp) + tag,
                }
            )
            return fp
        fiber = _fold(node["fiber"], path + ".fiber", trace)
        if kind == "flatBundle":
            if fiber.for_all_q:
                fiber = fiber.instantiate(base.q)
                trace.append(
                    {"rule": "instantiate-fiber", "node": path + ".fiber", "result": _summary(fiber)}
                )
            fp = bundle_certificate(base, fiber, a_bound=0.0, variant="flat-bundle")
            trace.append({"rule": "flat-bundle", "node": path, "result": _summary(fp) + tag})
            return fp
        a_bound = float(node.get("La", 1.0))
        if fiber.curvature is not None and fiber.curvature.L == 0.0 and (
            base.curvature is not None and base.curvature.e == 0
        ):
            if fiber.for_all_q:
                fiber = fiber.instantiate(base.q)
            fp = bundle_certificate(base, fiber, a_bound=a_bound, variant="flat-fiber")
            trace.append({"rule": "flat-fiber-bundle", "node": path, "result": _summary(fp) + tag})
            return fp
        if base.curvature is None:
            raise PlanError(f"node {path}: base certificate lacks a curvature bound")
        m_hat = max(base.curvature.e, 2 * base.m, fiber.curvature.e if fiber.curvature else Fraction(0))
        need = 2 * m_hat + 3 * base.q
        if fiber.for_all_q:
            fiber = fiber.instantiate(need)
            trace.append(
                {"rule": "instantiate-fiber", "node": path + ".fiber", "result": _summary(fiber)}
            )
        elif fiber.q < need:
            # a smaller base exponent lowers the requirement; spend budget
            new_q = (fiber.q - 2 * m_hat) / 3
            if new_q <= 0:
                raise PlanError(
                    f"node {path}: fiber decay budget {fiber.q} cannot meet the "
                    f"requirement 2*m_hat + 3*q = {need}; even q -> 0 needs more than "
                    f"{2 * m_hat}"
                )
            base = weaken(base, new_q)
            trace.append({"rule": "weaken-base", "node": path + ".base", "result": _summary(base)})
        fp = bundle_certificate(base, fiber, a_bound=a_bound, variant="general")
        trace.append({"rule": "general-bundle", "node": path, "result": _summary(fp) + tag})
        return fp
    raise PlanError(f"node {path}: no certificate constructor exists for kind {kind!r}")


def _concretize(fp: FamilyParams, path: str, trace: list) -> FamilyParams:
    if fp.for_all_q:
        fp = fp.instantiate(WORK_Q)
        trace.append({"rule": "instantiate-base", "node": path, "result": _summary(fp)})
    return fp


def _summary(fp: FamilyParams) -> str:
    q = "any" if fp.for_all_q else str(fp.q)
    curv = "none"
    if fp.curvature_rate is not None:
        cr = fp.curvature_rate
        curv = f"rate(Lb={cr.l_b:.17g}, b={cr.b}, Lf={cr.l_f:.17g}, f={cr.f}, k={cr.k})"
    elif fp.curvature is not None:
        curv = f"L={fp.curvature.L:.17g}, e={fp.curvature.e}"
    return (
        f"(q={q}, c={fp.c:.17g}, m={fp.m}, m_lower={fp.m_lower}, dim={fp.dim}, K-bound: {curv})"
    )


def normalize_for_positivity(fp: FamilyParams, trace: Optional[list] = None) -> FamilyParams:
    """Bring a certificate to decay exponent 2 with a strictly positive
    lower bound on the basis exponents, via instantiate / weaken /
    exact reparametrization up, then a rescale by t^(1/2)."""
    steps = trace if trace is not None else []
    if fp.for_all_q:
        fp = fp.instantiate(WORK_Q)
        steps.append({"rule": "instantiate", "node": "normalize", "result": _summary(fp)})
    if fp.q > WORK_Q:
        fp = weaken(fp, WORK_Q)
        steps.append({"rule": "weaken", "node": "normalize", "result": _summary(fp)})
    elif fp.q < WORK_Q:
        fp = reparametrize_exact(fp, WORK_Q / fp.q)
        steps.append(
            {"rule": "reparametrize-exact", "node": "normalize", "result": _summary(fp)}
        )
    fp = rescale(fp, Fraction(1, 2))
    steps.append({"rule": "rescale", "node": "normalize", "result": _summary(fp)})
    return fp


def evaluate_plan(plan, grid: Optional[positivity.RadialGrid] = None) -> PlanResult:
    """Fold a bundle plan into a certificate and a sphere-dimension bound.

    The plan is a tree of leaf certificates (ricNonneg, nilmanifold,
    custom) and constructions (fiberBundle, flatBundle, vectorBundle).
    The folded certificate is normalized to decay exponent 2 with
    strictly positive basis exponents and fed to the positivity module:
    p_bound is the ceiling of the closed-form threshold (worst case over
    admissible exponent profiles), and the grid search result for the
    uniform profile is attached as a replay check. When the basis
    exponents cannot be made positive (fixed q = 2 with m_lower = 0),
    p_bound is None with the reason recorded.
    """
    if isinstance(plan, str):
        plan = json.loads(plan)
    trace: list = []
    fp = _fold(plan, "plan", trace)
    norm: Optional[FamilyParams] = None
    reason = "ok"
    p_bound = None
    replay = None
    try:
        norm = normalize_for_positivity(fp, trace)
    except CertificateError as err:
        reason = f"cannot normalize: {err}"
    if norm is not None:
        if norm.m_lower <= 0:
            reason = (
                "normalized certificate has basis exponents that may vanish "
                "(m_lower = 0); the E-block diagonal can be identically zero"
            )
        else:
            kb = positivity.k_bound(
                norm.dim, norm.c, float(norm.m), m_lower=float(norm.m_lower)
            )
            p_bound = int(kb) + 1
            replay = positivity.min_p(
                norm.dim, norm.c, [norm.m] * norm.dim, grid=grid
            )
            trace.append(
                {
                    "rule": "positivity-threshold",
                    "node": "normalize",
                    "result": f"k_bound={kb:.17g}, p_bound={p_bound}, "
                    f"uniform-profile replay pStar={replay.p_star}",
                }
            )
    return PlanResult(
        params=fp,
        normalized=norm,
        p_bound=p_bound,
        replay=replay,
        trace=tuple(trace),
        reason=reason,
    )


def params_to_json(fp: FamilyParams) -> dict:
    out = {
        "q": "any" if fp.for_all_q else str(fp.q),
        "c": fp.c,
        "m": str(fp.m),
        "mLower": str(fp.m_lower),
        "dim": fp.dim,
    }
    if fp.curvature is not None:
        out["curvatureBound"] = {"L": fp.curvature.L, "e": str(fp.curvature.e)}
    if fp.curvature_rate is not None:
        cr = fp.curvature_rate
        out["curvatureRate"] = {
            "Lb": cr.l_b,
            "b": str(cr.b),
            "Lf": cr.l_f,
            "f": str(cr.f),
            "k": str(cr.k),
        }
    if fp.a_bound is not None:
        out["aBound"] = fp.a_bound
    if fp.derived:
        out["derived"] = list(fp.derived)
    return out
