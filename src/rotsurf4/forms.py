"""First/second fundamental forms, curvature invariants, point
classification, Christoffel symbols, mean curvature vector, and the
ellipse of normal curvature -- the generic pipeline over a 2-jet plus an
orthonormal normal frame.

Conventions: with an orthonormal normal frame (e1, e2) the second
fundamental tensor has components c_ij^k = <z_ij, e_k>.  The three
oriented areas

    D1 = c11^1 c12^2 - c11^2 c12^1
    D2 = c11^1 c22^2 - c11^2 c22^1
    D3 = c12^1 c22^2 - c12^2 c22^1

give L = 2 D1 / W, M = D2 / W, N = 2 D3 / W, and the invariants

    k     = (L N - M^2) / (E G - F^2)
    kappa = (E N + G L - 2 F M) / (2 (E G - F^2)).

kappa is the curvature of the normal connection; its sign depends on the
ambient orientation, so the frame must be positively oriented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import (DegenerateMetricError, GeometryError, Jet2, Vec4, dot,
                       gram_schmidt_normals, norm)

__all__ = [
    "FirstForm",
    "SecondTensor",
    "SecondForm",
    "Christoffel",
    "InvariantRecord",
    "PointType",
    "CircleReport",
    "FrameError",
    "NonFiniteInvariantError",
    "first_form",
    "second_tensor",
    "generic_at",
    "generic_invariants",
    "christoffel",
    "lmn",
    "classify",
    "invariants",
    "gauss_curvature",
    "second_form_value",
    "is_principal_params",
    "superconformal_residuals",
    "is_minimal",
    "is_superconformal",
    "mean_curvature_vector",
    "ellipse_samples",
    "is_circle",
]

_FRAME_TOL = 1e-10  # largest residual second_tensor accepts for its frame


class FrameError(GeometryError):
    """The supplied frame is not an orthonormal normal frame."""


class NonFiniteInvariantError(GeometryError):
    """An invariant, a value of the second tensor or a point of the normal-
    curvature ellipse is inf or NaN, so there is nothing to classify or draw."""


# FirstForm, SecondTensor, SecondForm and InvariantRecord are per-point value
# types by the convention of Vec4: nothing assigns their fields after construction

@dataclass(slots=True)
class FirstForm:
    E: float
    F: float
    G: float
    W: float  # sqrt(EG - F^2)


@dataclass(slots=True)
class SecondTensor:
    c11_1: float
    c11_2: float
    c12_1: float
    c12_2: float
    c22_1: float
    c22_2: float


@dataclass(slots=True)
class SecondForm:
    L: float
    M: float
    N: float


@dataclass(frozen=True)
class Christoffel:
    uu_u: float
    uu_v: float
    uv_u: float
    uv_v: float
    vv_u: float
    vv_v: float


class PointType(str, Enum):
    FLAT = "flat"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


@dataclass(slots=True)
class InvariantRecord:
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float
    k: float
    kappa: float
    K: float
    point_type: PointType


def first_form(jet: Jet2) -> FirstForm:
    E = dot(jet.z_u, jet.z_u)
    F = dot(jet.z_u, jet.z_v)
    G = dot(jet.z_v, jet.z_v)
    disc = E * G - F * F
    if E <= 0.0 or G <= 0.0 or disc <= 0.0:
        raise DegenerateMetricError(f"degenerate metric: E={E!r} G={G!r} EG-F^2={disc!r}")
    return FirstForm(E, F, G, math.sqrt(disc))


def second_tensor(jet: Jet2, e1: Vec4, e2: Vec4) -> SecondTensor:
    """Components c_ij^k = <z_ij, e_k>; rejects a frame that is not unit,
    not mutually orthogonal, or not normal to the tangent plane."""
    scale = max(1.0, norm(jet.z_u), norm(jet.z_v))
    worst = max(
        abs(norm(e1) - 1.0),
        abs(norm(e2) - 1.0),
        abs(dot(e1, e2)),
        abs(dot(e1, jet.z_u)) / scale,
        abs(dot(e1, jet.z_v)) / scale,
        abs(dot(e2, jet.z_u)) / scale,
        abs(dot(e2, jet.z_v)) / scale,
    )
    if worst > _FRAME_TOL:
        raise FrameError(f"frame is not an orthonormal normal frame (residual {worst!r})")
    return SecondTensor(
        dot(jet.z_uu, e1), dot(jet.z_uu, e2),
        dot(jet.z_uv, e1), dot(jet.z_uv, e2),
        dot(jet.z_vv, e1), dot(jet.z_vv, e2),
    )


def christoffel(jet: Jet2) -> Christoffel:
    """Tangential decomposition coefficients of z_uu, z_uv, z_vv, from the
    2x2 system with matrix [[E, F], [F, G]]."""
    ff = first_form(jet)
    det = ff.W * ff.W
    out = []
    for zij in (jet.z_uu, jet.z_uv, jet.z_vv):
        a = dot(zij, jet.z_u)
        b = dot(zij, jet.z_v)
        out.append((ff.G * a - ff.F * b) / det)
        out.append((ff.E * b - ff.F * a) / det)
    return Christoffel(*out)


def lmn(ct: SecondTensor, w: float) -> SecondForm:
    if w <= 0.0:
        raise ValueError("W must be positive")
    d1 = ct.c11_1 * ct.c12_2 - ct.c11_2 * ct.c12_1
    d2 = ct.c11_1 * ct.c22_2 - ct.c11_2 * ct.c22_1
    d3 = ct.c12_1 * ct.c22_2 - ct.c12_2 * ct.c22_1
    return SecondForm(2.0 * d1 / w, d2 / w, 2.0 * d3 / w)


def classify(k: float, kappa: float, sf: SecondForm, tol: float = 1e-8) -> PointType:
    """Point type from the signs of k and kappa.

    Both are normalized by max(1, L^2, M^2, N^2, LN) before the comparison
    with ``tol``: k and kappa already divide by metric determinants, so the
    residual scale comes from the second form.  When that scale overflows,
    they are divided twice by max(1, |L|, |M|, |N|), its square root.  k > 0
    elliptic, k < 0 hyperbolic, k = 0 with kappa != 0 parabolic, both zero
    flat.  Raises :class:`NonFiniteInvariantError` when the normalized k or
    kappa is inf or NaN, which no sign comparison can place.
    """
    scale = max(1.0, sf.L * sf.L, sf.M * sf.M, sf.N * sf.N, sf.L * sf.N)
    if math.isinf(scale):
        root = max(1.0, abs(sf.L), abs(sf.M), abs(sf.N))
        kn = k / root / root
        xn = kappa / root / root
    else:
        kn = k / scale
        xn = kappa / scale
    if not (math.isfinite(kn) and math.isfinite(xn)):
        raise NonFiniteInvariantError(
            f"cannot classify: k={k!r} kappa={kappa!r} (second-form scale {scale!r})")
    if kn > tol:
        return PointType.ELLIPTIC
    if kn < -tol:
        return PointType.HYPERBOLIC
    if abs(xn) > tol:
        return PointType.PARABOLIC
    return PointType.FLAT


def invariants(ff: FirstForm, sf: SecondForm, gauss: float, *,
               class_tol: float = 1e-8) -> InvariantRecord:
    """k and kappa from (E, F, G, L, M, N); the Gauss curvature is passed
    through from :func:`gauss_curvature` (or a closed form)."""
    disc = ff.E * ff.G - ff.F * ff.F
    k = (sf.L * sf.N - sf.M * sf.M) / disc
    kappa = (ff.E * sf.N + ff.G * sf.L - 2.0 * ff.F * sf.M) / (2.0 * disc)
    return InvariantRecord(ff.E, ff.F, ff.G, sf.L, sf.M, sf.N,
                           k, kappa, gauss, classify(k, kappa, sf, class_tol))


def generic_at(jet: Jet2) -> tuple[Vec4, Vec4, FirstForm, SecondTensor]:
    """Normal frame (e1, e2), first form and second tensor of ``jet``.  The
    frame comes first, so a degenerate jet raises its error message."""
    e1, e2 = gram_schmidt_normals(jet)
    ff = first_form(jet)
    return e1, e2, ff, second_tensor(jet, e1, e2)


def generic_invariants(ff: FirstForm, ct: SecondTensor) -> InvariantRecord:
    """The invariant record of the forms that :func:`generic_at` returns."""
    return invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct))


def _sigma_pair_coords(ff: FirstForm, ct: SecondTensor):
    """Second-tensor values on the orthonormalized tangent pair
    x = z_u/sqrt(E), y = (E z_v - F z_u)/(sqrt(E) W), as (e1, e2) components."""
    E, F, W = ff.E, ff.F, ff.W
    try:
        sxx = (ct.c11_1 / E, ct.c11_2 / E)
        sxy = ((E * ct.c12_1 - F * ct.c11_1) / (E * W),
               (E * ct.c12_2 - F * ct.c11_2) / (E * W))
        syy = ((E * E * ct.c22_1 - 2.0 * E * F * ct.c12_1 + F * F * ct.c11_1) / (E * W * W),
               (E * E * ct.c22_2 - 2.0 * E * F * ct.c12_2 + F * F * ct.c11_2) / (E * W * W))
    except ZeroDivisionError:  # E W or E W^2 underflows although E, W > 0
        raise NonFiniteInvariantError(f"E W underflows to 0 at E={E!r}, W={W!r}") from None
    return sxx, sxy, syy


def gauss_curvature(ff: FirstForm, ct: SecondTensor) -> float:
    """K = <sigma(x,x), sigma(y,y)> - |sigma(x,y)|^2 for an orthonormal
    tangent pair; frame independent because the normal frame is
    orthonormal."""
    sxx, sxy, syy = _sigma_pair_coords(ff, ct)
    return (sxx[0] * syy[0] + sxx[1] * syy[1]) - (sxy[0] ** 2 + sxy[1] ** 2)


def second_form_value(sf: SecondForm, a: float, b: float) -> float:
    """Normal curvature form L a^2 + 2 M a b + N b^2 of the tangent
    direction a z_u + b z_v."""
    if a == 0.0 and b == 0.0:
        raise ValueError("direction must be nonzero")
    return sf.L * a * a + 2.0 * sf.M * a * b + sf.N * b * b


def is_principal_params(ff: FirstForm, sf: SecondForm, tol: float) -> bool:
    """True iff the parameter lines are principal (F = 0 and M = 0)."""
    return abs(ff.F) <= tol and abs(sf.M) <= tol


def superconformal_residuals(k: float, kappa: float, gauss: float) -> tuple[float, float, float]:
    """(|kappa^2 - k|, |K^2 - kappa^2|, max(1, kappa^2, |k|, K^2)): the two
    msc residuals and the scale that both are compared against."""
    kappa2, gauss2 = kappa * kappa, gauss * gauss
    return abs(kappa2 - k), abs(gauss2 - kappa2), max(1.0, kappa2, abs(k), gauss2)


def is_minimal(rec: InvariantRecord, tol: float) -> bool:
    """Minimal surfaces satisfy kappa^2 - k = 0."""
    minimal, _, scale = superconformal_residuals(rec.k, rec.kappa, rec.K)
    return minimal <= tol * scale


def is_superconformal(rec: InvariantRecord, tol: float) -> bool:
    """Minimal super-conformal points satisfy kappa^2 - k = 0 and
    K^2 - kappa^2 = 0.  Flat points pass degenerately; the record's
    ``point_type`` carries that flag."""
    minimal, conformal, scale = superconformal_residuals(rec.k, rec.kappa, rec.K)
    return minimal <= tol * scale and conformal <= tol * scale


def mean_curvature_vector(ff: FirstForm, ct: SecondTensor, e1: Vec4, e2: Vec4) -> Vec4:
    """H = (sigma(x,x) + sigma(y,y)) / 2 in ambient coordinates."""
    w2 = ff.W * ff.W
    h1 = (ff.G * ct.c11_1 - 2.0 * ff.F * ct.c12_1 + ff.E * ct.c22_1) / (2.0 * w2)
    h2 = (ff.G * ct.c11_2 - 2.0 * ff.F * ct.c12_2 + ff.E * ct.c22_2) / (2.0 * w2)
    return e1 * h1 + e2 * h2


def ellipse_samples(ff: FirstForm, ct: SecondTensor, e1: Vec4, e2: Vec4, n: int) -> list[Vec4]:
    """Points sigma(w, w) on the ellipse of normal curvature, for unit
    tangents w at angles psi_j = j pi / n, j = 0 .. n-1.

    The angle doubles inside sigma, so psi in [0, pi) already traces the
    full ellipse:

        sigma(w, w) = H + cos(2 psi) (sigma(x,x) - sigma(y,y))/2
                        + sin(2 psi) sigma(x,y).
    """
    if n < 3:
        raise ValueError("need at least 3 samples")
    sxx, sxy, syy = _sigma_pair_coords(ff, ct)
    h = ((sxx[0] + syy[0]) / 2.0, (sxx[1] + syy[1]) / 2.0)
    a = ((sxx[0] - syy[0]) / 2.0, (sxx[1] - syy[1]) / 2.0)
    out = []
    for j in range(n):
        t = 2.0 * math.pi * j / n  # = 2 psi_j
        c, s = math.cos(t), math.sin(t)
        out.append(e1 * (h[0] + c * a[0] + s * sxy[0])
                   + e2 * (h[1] + c * a[1] + s * sxy[1]))
    return out


@dataclass(frozen=True)
class CircleReport:
    """Outcome of the circle test; a radius below tolerance is reported as
    a degenerate circle (flat-point case), not a failure."""

    ok: bool
    degenerate: bool
    center: Vec4
    radius: float
    max_deviation: float

    def __bool__(self) -> bool:
        return self.ok


def is_circle(samples: list[Vec4], tol: float) -> CircleReport:
    """True when every sample lies at the same distance from the sample
    centroid, within ``tol`` relative to the mean radius."""
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    inv = 1.0 / len(samples)
    center = Vec4(0.0, 0.0, 0.0, 0.0)
    for s in samples:
        center = center + s
    center = center * inv
    dists = [norm(s - center) for s in samples]
    radius = sum(dists) * inv
    if radius <= tol:
        return CircleReport(True, True, center, radius, 0.0)
    max_dev = max(abs(d - radius) for d in dists)
    return CircleReport(max_dev <= tol * max(1.0, radius), False, center, radius, max_dev)
