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
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import positivity
from .exprs import frac, integer, real

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
MAX_CERTIFICATE_DIM = 10_000  # see FamilyParams


class CertificateError(ValueError):
    """A certificate operation's precondition failed."""


class PlanError(ValueError):
    """A bundle plan cannot be evaluated; the message names the node."""


def _below(a: Fraction, b: Fraction) -> bool:
    """a < b for exact rationals, decided on cross-multiplied integers as
    positivity does: a Fraction comparison runs a numbers.Rational check."""
    return a.numerator * b.denominator < b.numerator * a.denominator


def _max(a: Fraction, b: Fraction) -> Fraction:
    return b if _below(a, b) else a


def _min(a: Fraction, b: Fraction) -> Fraction:
    return b if _below(b, a) else a


def _check_constant(name: str, value) -> None:
    """Reject a certificate constant that is not a finite real number >= 0."""
    if isinstance(value, bool) or not (isinstance(value, (int, float, Fraction)) and math.isfinite(value)):
        raise CertificateError(f"{name} must be a finite number, got {value!r}")
    if value < 0:
        raise CertificateError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class CurvatureBound:
    """|K| <= L / t^e for the certified family."""

    L: float
    e: Fraction

    def __post_init__(self):
        object.__setattr__(self, "e", frac(self.e))
        _check_constant("curvature bound L", self.L)
        if self.e.numerator < 0:
            raise ValueError("curvature bound needs e >= 0")


@dataclass(frozen=True)
class CurvatureRate:
    """Inputs of a zero-integrability-tensor bundle's curvature bound:
    at decay exponent q it reads |K| <= l_b t^(-q b / k) + l_f t^(-q f / k)
    with k = min of the two input decay exponents. The certificate stores
    it as the bound (l_b + l_f, max(b, f)) at q_ref = k, which
    instantiation scales like any other; this record is what plans print."""

    l_b: float
    b: Fraction
    l_f: float
    f: Fraction
    k: Fraction


@dataclass(frozen=True)
class FamilyParams:
    """One curvature-decay certificate.

    q is the decay exponent; q = None marks a certificate valid for every
    exponent (the whole reparametrization orbit is certified, with the
    stored m, e, m_lower referring to q_ref). m bounds the basis
    exponents from above, m_lower from below when a positive lower bound
    is guaranteed. c is a real bound; values the theory only asserts to
    exist are concrete conservative picks listed in `derived`. dim is at
    most MAX_CERTIFICATE_DIM: a plan's replay lists one exponent per
    dimension, about 140 bytes each, and a nilmanifold builds 2^(dim-2).
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
            if self.q.numerator <= 0:
                raise ValueError("q must be positive")
        object.__setattr__(self, "m", frac(self.m))
        object.__setattr__(self, "m_lower", frac(self.m_lower))
        object.__setattr__(self, "q_ref", frac(self.q_ref))
        if self.q_ref.numerator <= 0:
            raise ValueError("q_ref must be positive")
        _check_constant("c", self.c)
        if self.a_bound is not None:
            _check_constant("a_bound", self.a_bound)
        if self.m.numerator < 0 or self.m_lower.numerator < 0 or _below(self.m, self.m_lower):
            raise ValueError("need 0 <= m_lower <= m")
        if not 0 <= self.dim <= MAX_CERTIFICATE_DIM:
            raise ValueError(f"dimension must be in 0..{MAX_CERTIFICATE_DIM}")

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
        reference = _derive(self, q=self.q_ref, q_ref=Fraction(2), curvature_rate=None)
        return reparametrize_exact(reference, q / self.q_ref)


def _derive(record, **changes):
    """A validated FamilyParams or CurvatureBound with `changes`, built
    without re-running __post_init__. Each transform's own argument check
    keeps q > 0, 0 <= m_lower <= m and e >= 0 in Fractions: rho > 0 scales
    them (instantiate reparametrizes at q_ref > 0, reparametrize clamps
    m_lower to rho m), 0 < r < q/2 leaves q - 2r > 0 in rescale, and
    0 < s <= q in weaken. c, dim and a_bound never change."""
    out = object.__new__(type(record))
    out.__dict__.update(record.__dict__, **changes)
    return out


def _scale_e(curv: Optional[CurvatureBound], rho: Fraction) -> Optional[CurvatureBound]:
    # substituting t -> t^rho (up to constants) scales a curvature exponent e to rho * e
    return None if curv is None else _derive(curv, e=curv.e * rho)


def reparametrize(fp: FamilyParams, rho: FractionLike) -> FamilyParams:
    """Exposed reparametrization law: target exponent q' = q / rho with
    m' = m * q / q' = rho * m and curvature exponent e' = rho * e.

    This is the conservative direction-down law; m_lower scales by the
    exact substitution factor q'/q = 1/rho so it stays a valid lower
    bound. rho = 1 is the identity and composition multiplies the rhos.
    """
    rho = frac(rho)
    if rho.numerator <= 0:
        raise CertificateError("rho must be positive")
    if fp.for_all_q:
        if rho == 1:
            return fp
        raise CertificateError("instantiate an every-exponent certificate before reparametrizing")
    # the exact substitution divides every exponent by rho; any smaller
    # value stays a valid lower bound, and the clamp keeps the record
    # consistent with the conservative upper bound rho * m
    m = fp.m * rho
    curv = _scale_e(fp.curvature, rho)
    return _derive(fp, q=fp.q / rho, m=m, m_lower=_min(fp.m_lower / rho, m), curvature=curv)


def reparametrize_exact(fp: FamilyParams, rho: FractionLike) -> FamilyParams:
    """Exact substitution t -> t^rho: q, m, e and m_lower all scale by rho.

    Sound in both directions; the plan evaluator uses it to raise the
    decay exponent before trading it for positive basis exponents.
    """
    rho = frac(rho)
    if rho.numerator <= 0:
        raise CertificateError("rho must be positive")
    if fp.for_all_q:
        raise CertificateError("instantiate an every-exponent certificate before reparametrizing")
    curv = _scale_e(fp.curvature, rho)
    return _derive(fp, q=fp.q * rho, m=fp.m * rho, m_lower=fp.m_lower * rho, curvature=curv)


def rescale(fp: FamilyParams, r: FractionLike) -> FamilyParams:
    """Metric rescale by t^r for 0 < r < q/2: the decay exponent drops to
    q - 2r while every basis exponent gains r, so m and m_lower both
    increase by r; a sectional curvature bound picks up 2r in its
    exponent. This is the move that arranges strictly positive basis
    exponents at the cost of decay budget."""
    r = frac(r)
    if fp.for_all_q:
        raise CertificateError("instantiate an every-exponent certificate before rescaling")
    two_r = 2 * r
    if r.numerator <= 0 or not _below(two_r, fp.q):
        raise CertificateError(f"rescale exponent must lie in (0, q/2) = (0, {fp.q / 2}); got {r}")
    curv = fp.curvature
    if curv is not None:
        curv = _derive(curv, e=curv.e + two_r)
    return _derive(fp, q=fp.q - two_r, m=fp.m + r, m_lower=fp.m_lower + r, curvature=curv)


def weaken(fp: FamilyParams, s: FractionLike) -> FamilyParams:
    """Cast down to a smaller decay exponent s <= q with no other change;
    idempotent at s = q."""
    s = frac(s)
    if s.numerator <= 0:
        raise CertificateError("s must be positive")
    if fp.for_all_q:
        return fp.instantiate(s)
    if _below(fp.q, s):
        raise CertificateError(f"cannot weaken upward: {s} > {fp.q}")
    return _derive(fp, q=s)


# --- bundle constructions ---------------------------------------------------

VARIANTS = ("general", "flat-fiber", "flat-bundle")


def bundle_certificate(
    base: FamilyParams,
    fiber: FamilyParams,
    a_bound: float,
    variant: str,
) -> FamilyParams:
    """Certificate of the total space of a fiber bundle construction.

    The base and fiber certificates must be concrete, each with a curvature
    bound. The three variants and their preconditions:

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
        if fp.curvature is None:
            raise CertificateError(f"{name} certificate lacks a curvature bound")
    _check_constant("a_bound", a_bound)
    l_b, b = base.curvature.L, base.curvature.e
    l_f, f = fiber.curvature.L, fiber.curvature.e
    # Ricci entries are sums of at most dim-1 sectional curvatures on each
    # side of the recovery identities, so this factor converts a sectional
    # bound into an error-term bound.
    q2 = float(base.dim + 2 * fiber.dim - 2)
    # t = 1 curvature of the squashed family through the horizontal
    # distribution: base part + integrability part (l_ba) + fiber part.
    l_ba = l_b + 4.0 * base.dim**2 * float(a_bound)
    l_mix = l_ba + l_f

    if variant == "general":
        m_hat, need = _general_need(base, f)
        if _below(fiber.q, need):
            raise CertificateError(
                "variant 'general' requires fiber.q >= 2*m_hat + 3*base.q: "
                f"{fiber.q} < {need} "
                f"(m_hat = {m_hat} = max(base e {b}, 2*base m {2 * base.m}, fiber e {f}))"
            )
        q3 = q2 * l_mix
        note = f"c from error constant {q3} = {q2} * (L_b + 4 dimB^2 L_a + L_f)"
        curvature = CurvatureBound(L=l_mix, e=2 * m_hat + 2 * base.q + f)
        return _total_space(base, fiber, note, q=base.q, c=max(base.c + q3, fiber.c), curvature=curvature)

    if variant == "flat-fiber":
        if l_f != 0.0:
            raise CertificateError(
                f"variant 'flat-fiber' requires a flat fiber curvature bound: L_f = {l_f} != 0"
            )
        if b != 0:
            raise CertificateError(
                f"variant 'flat-fiber' requires base curvature exponent 0: e = {b} != 0"
            )
        note = f"constant curvature bound {l_ba} derived"
        curvature, q_ref = CurvatureBound(L=l_ba, e=Fraction(0)), _min(Fraction(1), base.q)
        return _total_space(base, fiber, note, q=None, c=base.c + q2 * l_ba, curvature=curvature, q_ref=q_ref)

    if a_bound != 0.0:
        raise CertificateError(
            f"variant 'flat-bundle' requires a vanishing integrability tensor: a_bound = {a_bound}"
        )
    k = _min(base.q, fiber.q)
    curvature = CurvatureBound(L=l_b + l_f, e=_max(b, f))
    rate = CurvatureRate(l_b=l_b, b=b, l_f=l_f, f=f, k=k)
    c = max(base.c, fiber.c)
    return _total_space(base, fiber, q=None, c=c, curvature=curvature, curvature_rate=rate, q_ref=k)


def _general_need(base: FamilyParams, fiber_e: Fraction) -> tuple:
    """(m_hat, least fiber decay exponent) of the general variant; see
    bundle_certificate."""
    m_hat = _max(_max(base.curvature.e, 2 * base.m), fiber_e)
    return m_hat, 2 * m_hat + 3 * base.q


def _total_space(base: FamilyParams, fiber: FamilyParams, *notes: str, **fields) -> FamilyParams:
    """Total-space certificate: the larger m, the smaller m_lower, the
    summed dimension and both inputs' provenance notes, then `notes`."""
    return FamilyParams(
        m=_max(base.m, fiber.m),
        dim=base.dim + fiber.dim,
        m_lower=_min(base.m_lower, fiber.m_lower),
        derived=base.derived + fiber.derived + notes,
        **fields,
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
    applies with the fiber taken exactly at its precondition.
    """
    if rank < 0:
        raise CertificateError("rank must be nonnegative")
    if rank == 0:
        return base
    if base.for_all_q:
        raise CertificateError("instantiate the base certificate at a concrete q first")
    if base.curvature is None:
        raise CertificateError("base certificate lacks a curvature bound")
    curvature = CurvatureBound(L=float(fiber_curv_bound), e=Fraction(0))
    note = f"fiber curvature bound {fiber_curv_bound} derived"
    q = _general_need(base, Fraction(0))[1]
    fiber = FamilyParams(q=q, c=0.0, m=Fraction(0), dim=rank, curvature=curvature, derived=(note,))
    return bundle_certificate(base, fiber, a_bound=a_bound, variant="general")


def nilmanifold_certificate(n: int, q: FractionLike, c: float = 1.0) -> FamilyParams:
    """Certificate of an n-dimensional nilmanifold at exponent q >= 1:
    m = 2^(n-2) (q-1) + 1, with c supplied by the caller (it depends on
    the structure constants and the dimension). The curvature bound
    exponent 2m is a conservative derived value."""
    if n < 2:
        raise CertificateError("nilmanifold certificates need dimension >= 2")
    if n > MAX_CERTIFICATE_DIM:  # checked before 2^(n-2) is built
        raise CertificateError(f"dimension must be in 0..{MAX_CERTIFICATE_DIM}")
    q = frac(q)
    if q.numerator < q.denominator:
        raise CertificateError("q must be at least 1")
    m = Fraction(2) ** (n - 2) * (q - 1) + 1
    curvature, note = CurvatureBound(L=1.0, e=2 * m), "nilmanifold curvature bound (L=1, e=2m) derived"
    return FamilyParams(q=q, c=float(c), m=m, dim=n, curvature=curvature, derived=(note,))


def nonneg_ricci_certificate(dim: int) -> FamilyParams:
    """Certificate of a compact manifold with nonnegative Ricci curvature:
    the constant family works at every exponent with c = 0, m = 0, and a
    constant curvature bound."""
    curvature, note = CurvatureBound(L=1.0, e=Fraction(0)), "compact curvature bound L=1 derived"
    return FamilyParams(q=None, c=0.0, m=Fraction(0), dim=dim, curvature=curvature, derived=(note,))


# --- plan evaluation --------------------------------------------------------

WORK_Q = Fraction(3)  # folding exponent: normalization then rescales 3 -> 2


@dataclass(frozen=True)
class PlanResult:
    params: FamilyParams
    normalized: FamilyParams
    p_bound: int
    replay: positivity.MinPResult
    trace: tuple
    reason: str  # always "ok": normalization cannot fail and leaves m_lower >= 1/2


def _step(trace: list, rule: str, node: str, fp: FamilyParams, tag: str = "") -> FamilyParams:
    """Record one derivation step in the trace and return its certificate."""
    trace.append({"rule": rule, "node": node, "result": _summary(fp) + tag})
    return fp


def _fold(node, path: str, trace: list) -> FamilyParams:
    """Fold the subtree at path. A constructor's or leaf's rejection, a
    leaf number past float or integer range and a missing or wrong-typed
    field are re-raised as a PlanError naming the node; a child's
    PlanError already names its own."""
    try:
        return _fold_node(node, path, trace)
    except PlanError:
        raise
    # CertificateError is a ValueError; frac raises TypeError for a float exponent
    except (ValueError, OverflowError, TypeError, AttributeError, LookupError) as err:
        raise PlanError(f"node {path}: {err}") from None


def _nesting_depth(plan) -> int:
    """The number of nodes on the longest base/fiber chain of the plan,
    counted without recursion."""
    depth, stack = 0, [(plan, 1)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        if isinstance(node, dict):
            stack.extend((node[key], level + 1) for key in ("base", "fiber") if key in node)
    return depth


def _fold_node(node, path: str, trace: list) -> FamilyParams:
    if not isinstance(node, dict) or "kind" not in node:
        raise PlanError(f"node {path}: expected an object with a 'kind' field")
    kind = node["kind"]
    tag = f" [symmetry: {node['symmetry']}]" if "symmetry" in node else ""
    if kind == "ricNonneg":
        fp = nonneg_ricci_certificate(integer(node["dim"]))
        return _step(trace, "nonneg-ricci-leaf", path, fp, tag)
    if kind == "nilmanifold":
        fp = nilmanifold_certificate(integer(node["dim"]), node.get("q", WORK_Q), real(node.get("c", 1.0)))
        return _step(trace, "nilmanifold-leaf", path, fp, tag)
    if kind == "custom":
        curv = None
        if "curvature" in node:
            curv = CurvatureBound(L=real(node["curvature"]["L"]), e=frac(node["curvature"]["e"]))
        fp = FamilyParams(
            q=None if node.get("q") in (None, "any") else frac(node["q"]),
            c=real(node.get("c", 0.0)),
            m=frac(node.get("m", 0)),
            dim=integer(node["dim"]),
            curvature=curv,
            a_bound=node.get("aBound"),
            m_lower=frac(node.get("mLower", 0)),
        )
        return _step(trace, "custom-leaf", path, fp, tag)
    if kind not in ("fiberBundle", "flatBundle", "vectorBundle"):
        raise PlanError(f"node {path}: no certificate constructor exists for kind {kind!r}")
    base = _fold(node["base"], path + ".base", trace)
    if base.for_all_q:
        base = _step(trace, "instantiate-base", path + ".base", base.instantiate(WORK_Q))
    if kind == "vectorBundle":
        fp = vector_bundle_certificate(
            base,
            integer(node["rank"]),
            a_bound=real(node.get("La", 1.0)),
            fiber_curv_bound=real(node.get("fiberCurvBound", DEFAULT_FIBER_CURV)),
        )
        return _step(trace, "vector-bundle-lift", path, fp, tag)
    fiber = _fold(node["fiber"], path + ".fiber", trace)
    if base.curvature is None:  # variant selection reads base.curvature.e
        raise PlanError(f"node {path}: base certificate lacks a curvature bound")
    # each branch picks the variant, its trace rule and where an every-exponent fiber is instantiated
    a_bound = 0.0 if kind == "flatBundle" else real(node.get("La", 1.0))
    if kind == "flatBundle":
        variant, rule, fiber_q = "flat-bundle", "flat-bundle", base.q
    elif fiber.curvature is not None and fiber.curvature.L == 0.0 and base.curvature.e == 0:
        variant, rule, fiber_q = "flat-fiber", "flat-fiber-bundle", base.q
    else:
        fiber_e = fiber.curvature.e if fiber.curvature else Fraction(0)
        m_hat, need = _general_need(base, fiber_e)
        variant, rule, fiber_q = "general", "general-bundle", need
        if fiber.for_all_q:
            fiber_q = _general_fiber_q(path, base, fiber_e, fiber.q_ref, need)
        elif _below(fiber.q, need):
            # a smaller base exponent lowers the requirement; spend budget
            new_q = (fiber.q - 2 * m_hat) / 3
            if new_q.numerator <= 0:
                raise PlanError(
                    f"node {path}: fiber decay budget {fiber.q} cannot meet the "
                    f"requirement 2*m_hat + 3*q = {need}; even q -> 0 needs more than "
                    f"{2 * m_hat}"
                )
            base = _step(trace, "weaken-base", path + ".base", weaken(base, new_q))
    if fiber.for_all_q:
        fiber = _step(trace, "instantiate-fiber", path + ".fiber", fiber.instantiate(fiber_q))
    fp = bundle_certificate(base, fiber, a_bound=a_bound, variant=variant)
    return _step(trace, rule, path, fp, tag)


def _general_fiber_q(path: str, base: FamilyParams, e: Fraction, q_ref: Fraction, need: Fraction):
    """Exponent at which to instantiate an every-exponent fiber for the
    general variant. Instantiating at q scales the fiber's curvature
    exponent to e*q/q_ref, which can raise the requirement past q. Once
    that term sets m_hat, the requirement is q = 2*e*q/q_ref + 3*base.q,
    met at its fixed point when 2e < q_ref and by no q otherwise."""
    if not _below(2 * e, q_ref):
        raise PlanError(
            f"node {path}: no fiber exponent q meets the requirement 2*m_hat + 3*q_base: "
            f"instantiated at q, the fiber curvature exponent is {e / q_ref}*q >= q/2"
        )
    if not _below(need, _general_need(base, e * need / q_ref)[1]):
        return need
    return 3 * base.q * q_ref / (q_ref - 2 * e)


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


def normalize_for_positivity(fp: FamilyParams, trace: list) -> FamilyParams:
    """Bring a certificate to decay exponent 2 with a strictly positive
    lower bound on the basis exponents, via instantiate / weaken /
    exact reparametrization up, then a rescale by t^(1/2), recording each
    step in trace."""
    if fp.for_all_q:
        fp = _step(trace, "instantiate", "normalize", fp.instantiate(WORK_Q))
    if _below(WORK_Q, fp.q):
        fp = _step(trace, "weaken", "normalize", weaken(fp, WORK_Q))
    elif _below(fp.q, WORK_Q):
        fp = reparametrize_exact(fp, WORK_Q / fp.q)
        fp = _step(trace, "reparametrize-exact", "normalize", fp)
    return _step(trace, "rescale", "normalize", rescale(fp, Fraction(1, 2)))


def evaluate_plan(plan) -> PlanResult:
    """Fold a bundle plan into a certificate and a sphere-dimension bound.

    The plan is a tree of leaf certificates (ricNonneg, nilmanifold,
    custom) and constructions (fiberBundle, flatBundle, vectorBundle).
    The folded certificate is normalized to decay exponent 2, which makes
    every basis exponent at least 1/2, and fed to the positivity module:
    p_bound is the exact least p over every exponent profile the
    certificate admits (positivity.p_bound), and the exact min_p result
    for the uniform profile is attached as a replay check. Both are
    exact, so a nilmanifold leaf whose exponent is past the float range
    (dim 1026 at q = 2) folds too.
    """
    if isinstance(plan, str):
        plan = json.loads(plan)
    trace: list = []
    try:
        fp = _fold(plan, "plan", trace)
    except RecursionError:
        # where the recursion ran out depends on the caller's stack, so
        # name the input's depth rather than the node reached
        raise PlanError(f"plan nests {_nesting_depth(plan)} levels deep, past the recursion limit") from None
    norm = normalize_for_positivity(fp, trace)
    p_bound = positivity.p_bound(norm.dim, norm.c, norm.m, norm.m_lower)
    replay = positivity.min_p(norm.dim, norm.c, [norm.m] * norm.dim)
    try:  # replay.p_star <= p_bound, so only p_bound can pass Python's digit limit for int text
        result = f"p_bound={p_bound}, uniform-profile replay pStar={replay.p_star}"
    except ValueError:
        limit = f"{sys.get_int_max_str_digits()} digits, Python's limit for int text"
        raise PlanError(f"node normalize: pBound has more than {limit}") from None
    trace.append({"rule": "positivity-threshold", "node": "normalize", "result": result})
    return PlanResult(fp, norm, p_bound, replay, tuple(trace), "ok")


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
        out["curvatureRate"] = {"Lb": cr.l_b, "b": str(cr.b), "Lf": cr.l_f, "f": str(cr.f), "k": str(cr.k)}
    if fp.a_bound is not None:
        out["aBound"] = fp.a_bound
    if fp.derived:
        out["derived"] = list(fp.derived)
    return out
