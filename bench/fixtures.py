"""Exact reference values the benchmark checks the program's outputs against.

Nothing here imports ricciforge. The profile derivatives are written out by
hand for the two profile families the workloads generate, and the Ricci
blocks follow the textbook formulas for a multiply warped product over an
interval, so a defect in the program's symbolic differentiation, its
closed forms or its oracle shows up as a disagreement with this file.

Families:
  f(r) = r (1 + r^2)^a          (the reference sphere profile has a = -1/4)
  f(r) = sin r                  (the round sphere)
  h(r) = (1 + r^2)^b            (one per E-direction)
"""

from __future__ import annotations

import math


def reference_f(r: float, a: float) -> tuple[float, float, float]:
    """f, f', f'' of f = r (1 + r^2)^a."""
    u = 1.0 + r * r
    f = r * u**a
    fp = u**a + 2.0 * a * r * r * u ** (a - 1.0)
    fpp = 6.0 * a * r * u ** (a - 1.0) + 4.0 * a * (a - 1.0) * r**3 * u ** (a - 2.0)
    return f, fp, fpp


def sine_f(r: float) -> tuple[float, float, float]:
    return math.sin(r), math.cos(r), -math.sin(r)


def power_h(r: float, b: float) -> tuple[float, float, float]:
    """h, h', h'' of h = (1 + r^2)^b."""
    u = 1.0 + r * r
    h = u**b
    hp = 2.0 * b * r * u ** (b - 1.0)
    hpp = 2.0 * b * u ** (b - 1.0) + 4.0 * b * (b - 1.0) * r * r * u ** (b - 2.0)
    return h, hp, hpp


def milnor_s3_ricci(scales) -> list[float]:
    """Principal Ricci curvatures of the left-invariant metric on the
    3-sphere whose unit frame X_i ([X_i, X_j] = 2 X_k, cyclic) has lengths
    `scales`. With lam_k = 2 h_k / (h_i h_j) the structure constants of the
    orthonormal frame, Ric(e_k) = (lam_k^2 - (lam_i - lam_j)^2) / 2
    (Milnor, "Curvatures of left invariant metrics on Lie groups", 1976)."""
    h1, h2, h3 = scales
    lam = [2.0 * h1 / (h2 * h3), 2.0 * h2 / (h1 * h3), 2.0 * h3 / (h1 * h2)]
    out = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        out.append(0.5 * (lam[k] ** 2 - (lam[i] - lam[j]) ** 2))
    return out


def warped_blocks(p: int, f3, hs, base_diag) -> dict:
    """Ricci of dr^2 + f^2 ds^2_(p-1) + sum_i h_i^2 (X_i)^2 in the frame
    {d_r, U_a, Y_i}, for an E-block whose base Ricci is diagonal.

    f3 is (f, f', f''); hs is a list of (h, h', h''); base_diag holds
    Ric_E(Y_i, Y_i) of the fiber metric at this radius. Returns rr, uu and
    the list yy of E-diagonal entries; every off-diagonal entry is zero.
    """
    f, fp, fpp = f3
    lh = [hp / h for h, hp, _ in hs]
    lhh = [hpp / h for h, _, hpp in hs]
    s1 = sum(lh)
    rr = -(p - 1) * fpp / f - sum(lhh)
    uu = (p - 2) * (1.0 - fp * fp) / (f * f) - (fp / f) * s1 - fpp / f
    yy = [
        base_diag[i] - (p - 1) * (fp / f) * lh[i] - lh[i] * (s1 - lh[i]) - lhh[i]
        for i in range(len(hs))
    ]
    return {"rr": rr, "uu": uu, "yy": yy}


# The three warped presets of the package, as (f exponent or "sine", h exponents,
# E-kind). s3-unequal is the left-invariant 3-sphere with the scales of
# warped.left_invariant_s3_spec's defaults.
PRESETS = {
    "reference-torus": (-0.25, [-1.0], "torus"),
    "s3-unequal": (-0.25, [-1.0, -0.75, -0.5], "s3"),
    "round-sphere": ("sine", [], "torus"),
}


def preset_blocks(name: str, r: float, p: int) -> dict:
    """Exact Ricci blocks of a preset at radius r."""
    a, bs, kind = PRESETS[name]
    return family_blocks(a, bs, kind, r, p)


def family_blocks(a, bs, kind: str, r: float, p: int, base_scale: float = 0.0) -> dict:
    """Exact Ricci blocks of the family with sphere exponent a (or "sine"),
    h exponents bs, and on a torus E the base Ricci -base_scale (1+r^2)^(-2)
    times the identity."""
    f3 = sine_f(r) if a == "sine" else reference_f(r, a)
    hs = [power_h(r, b) for b in bs]
    if kind == "s3":
        base = milnor_s3_ricci([h for h, _, _ in hs])
    else:
        base = [-base_scale * (1.0 + r * r) ** -2] * len(bs)
    return warped_blocks(p, f3, hs, base)


def preset_principal_ricci(preset: str) -> list[float]:
    """Principal Ricci curvatures of an oracle preset chart: (d-1)/a^2 on
    the round d-sphere of radius a, -1 on the hyperbolic plane, Milnor's
    formula on left-invariant S^3."""
    parts = preset.split(":")
    if parts[0] == "sphere":
        d, a = int(parts[1]), float(parts[2])
        return [(d - 1) / (a * a)] * d
    if parts[0] == "hyperbolic2":
        return [-1.0, -1.0]
    if parts[0] == "s3-left-invariant":
        return milnor_s3_ricci([float(s) for s in parts[1:]])
    raise ValueError(f"no exact fixture for preset {preset!r}")


def k_bound_uniform(n: int, c: float, m: float, m_lower: float) -> float:
    """The positivity threshold max(L/K, S/R) over directions for n
    E-directions with every exponent m, the E-block S raised by the
    Gershgorin term (n-1) c and divided by 2 m_lower."""
    ratios = [
        (0.25 + n * (2.0 * m + 4.0 * m * m)) / 0.25,  # radial L/K
        1.75 - n * m,  # sphere L/K
        (1.5 - 2.0 * n * m) / 1.5,  # radial and sphere S/R
    ]
    if n:
        ratios.append(3.0 + 4.0 * n * m)  # E-direction L/K
        ratios.append(n * c / (2.0 * m_lower))  # E-direction S/R
    return max(ratios)
