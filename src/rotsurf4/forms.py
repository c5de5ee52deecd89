"""First/second fundamental forms, curvature invariants, point
classification, mean curvature vector, and the ellipse of normal curvature.

With the normal parts n_ij = z_ij - G^u_ij z_u - G^v_ij z_v of the second
derivatives, where [[E, F], [F, G]] (G^u_ij, G^v_ij) = (<z_ij, z_u>, <z_ij, z_v>),
and W = sqrt(EG - F^2), the generic pipeline (``generic_values``) needs no
normal frame:

    L = 2 det4(z_u, z_v, n11, n12) / W^2,  M = det4(z_u, z_v, n11, n22) / W^2,
    N = 2 det4(z_u, z_v, n12, n22) / W^2,  K = (<n11, n22> - |n12|^2) / W^2,

    k     = (L N - M^2) / (E G - F^2)
    kappa = (E N + G L - 2 F M) / (2 (E G - F^2)).

For normal a, b, det4(z_u, z_v, a, b) = W D(a, b), with D the oriented area
in a positive orthonormal normal frame (e1, e2); so with c_ij^k = <z_ij, e_k>
(``second_tensor``) L = 2 D1 / W, M = D2 / W, N = 2 D3 / W (``lmn``), where
D1 = D(c11, c12), D2 = D(c11, c22), D3 = D(c12, c22) (Ganchev and Milousheva,
Kodai Math. J. 31 (2008)).  kappa is the curvature of the normal connection;
its sign follows the ambient orientation, which det4 supplies.

One frame-free kernel on float components computes each value by the float
operations of its Vec4 expression: ``_plane`` (a jet's tangent plane behind
the screened guard of ``geometry._tangent_plane``), ``_normal`` (the normal part of a
z_ij), ``_areas`` (L, M, N), ``_invariants`` (L, M, N, k, kappa, K and the
point type) and ``_direction`` (the octet's b).  Its callers read a jet by
unpacking, ``z, z_u, z_v, z_uu, z_uv, z_vv = jet``, so a ``Jet2`` of Vec4s
and the tuple form of a jet (six 4-tuples) go through the same code:
``generic_values`` (E, F, G, L, M, N, k, kappa, K as plain floats),
``mean_curvature_vector`` and ``ellipse_samples`` (on the normal parts as
Vec4s), and ``octet.octet_generic`` at its centre and its b-field stencil.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import FrozenRecord, Record, set_field
from .geometry import (_FLOOR, DegenerateMetricError, GeometryError, Jet2, Vec4, _tangent_plane,
                       det4, dot, norm)

__all__ = [
    "FirstForm",
    "SecondTensor",
    "SecondForm",
    "InvariantRecord",
    "PointType",
    "CircleReport",
    "FrameError",
    "NonFiniteInvariantError",
    "first_form",
    "second_tensor",
    "generic_values",
    "lmn",
    "classify",
    "invariants",
    "gauss_curvature",
    "superconformal_residuals",
    "superconformal_verdict",
    "mean_curvature_vector",
    "ellipse_samples",
    "is_circle",
]

_FRAME_TOL = 1e-10  # largest residual second_tensor accepts for its frame
PRINCIPAL_TOL = 1e-8  # relative size of F and M below which parameters are principal
CLASS_TOL = 1e-8  # normalised |k| and |kappa| at or below which classify reads zero
_SCREEN, _NORMAL = 2.0 ** -26, 2.0 ** -1022  # _plane's screen; the least normal float


class FrameError(GeometryError):
    """The supplied frame is not an orthonormal normal frame."""


class NonFiniteInvariantError(GeometryError):
    """An invariant, a value of the second tensor or a point of the normal-
    curvature ellipse is inf or NaN, so there is nothing to classify or draw."""


# FirstForm, SecondTensor, SecondForm and InvariantRecord are per-point value types
# like Vec4; no hot path makes them, so their constructors assign fields in tuples

class FirstForm(Record):
    __slots__ = __match_args__ = ("E", "F", "G", "W")

    def __init__(self, E: float, F: float, G: float, W: float):
        self.E, self.F, self.G, self.W = E, F, G, W  # W = sqrt(EG - F^2)


class SecondTensor(Record):
    __slots__ = __match_args__ = ("c11_1", "c11_2", "c12_1", "c12_2", "c22_1", "c22_2")

    def __init__(self, c11_1: float, c11_2: float, c12_1: float, c12_2: float, c22_1: float,
                 c22_2: float):
        self.c11_1, self.c11_2, self.c12_1 = c11_1, c11_2, c12_1
        self.c12_2, self.c22_1, self.c22_2 = c12_2, c22_1, c22_2


class SecondForm(Record):
    __slots__ = __match_args__ = ("L", "M", "N")

    def __init__(self, L: float, M: float, N: float):
        self.L, self.M, self.N = L, M, N


class PointType(str, Enum):
    FLAT = "flat"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


_POINT_TYPES = {t.value: t for t in PointType}  # a dict lookup, 25x cheaper than PointType(text)


class InvariantRecord(Record):
    __slots__ = __match_args__ = ("E", "F", "G", "L", "M", "N", "k", "kappa", "K", "point_type")

    def __init__(self, E: float, F: float, G: float, L: float, M: float, N: float, k: float,
                 kappa: float, K: float, point_type: PointType):
        self.E, self.F, self.G, self.L, self.M, self.N = E, F, G, L, M, N
        self.k, self.kappa, self.K, self.point_type = k, kappa, K, point_type


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


def lmn(ct: SecondTensor, w: float) -> SecondForm:
    if w <= 0.0:
        raise ValueError("W must be positive")
    d1 = ct.c11_1 * ct.c12_2 - ct.c11_2 * ct.c12_1
    d2 = ct.c11_1 * ct.c22_2 - ct.c11_2 * ct.c22_1
    d3 = ct.c12_1 * ct.c22_2 - ct.c12_2 * ct.c22_1
    return SecondForm(2.0 * d1 / w, d2 / w, 2.0 * d3 / w)


def classify(k: float, kappa: float, sf: SecondForm, tol: float = CLASS_TOL) -> PointType:
    """Point type from the signs of k and kappa.

    Both are normalized by max(1, L^2, M^2, N^2, LN) before the comparison
    with ``tol``: k and kappa already divide by metric determinants, so the
    residual scale comes from the second form.  When that scale overflows,
    they are divided twice by max(1, |L|, |M|, |N|), its square root.  k > 0
    elliptic, k < 0 hyperbolic, k = 0 with kappa != 0 parabolic, both zero
    flat.  Raises :class:`NonFiniteInvariantError` when the normalized k or
    kappa is inf or NaN, which no sign comparison can place.
    """
    return _POINT_TYPES[_classify(k, kappa, sf.L, sf.M, sf.N, tol)]


def _classify(k: float, kappa: float, big_l: float, big_m: float, big_n: float, tol: float) -> str:
    scale = max(1.0, big_l * big_l, big_m * big_m, big_n * big_n, big_l * big_n)
    if math.isinf(scale):
        root = max(1.0, abs(big_l), abs(big_m), abs(big_n))
        kn = k / root / root
        xn = kappa / root / root
    else:
        kn = k / scale
        xn = kappa / scale
    if not (math.isfinite(kn) and math.isfinite(xn)):
        raise NonFiniteInvariantError(
            f"cannot classify: k={k!r} kappa={kappa!r} (second-form scale {scale!r})")
    if kn > tol:
        return "elliptic"
    if kn < -tol:
        return "hyperbolic"
    if abs(xn) > tol:
        return "parabolic"
    return "flat"


def invariants(ff: FirstForm, sf: SecondForm, gauss: float, *,
               class_tol: float = CLASS_TOL) -> InvariantRecord:
    """k and kappa from (E, F, G, L, M, N); the Gauss curvature is passed
    through from :func:`gauss_curvature` (or a closed form)."""
    k, kappa, kind = _curvatures(ff.E, ff.F, ff.G, sf.L, sf.M, sf.N, class_tol)
    return InvariantRecord(ff.E, ff.F, ff.G, sf.L, sf.M, sf.N, k, kappa, gauss,
                           _POINT_TYPES[kind])


def _curvatures(ee: float, ff: float, gg: float, big_l: float, big_m: float, big_n: float,
                tol: float) -> tuple[float, float, str]:
    """(k, kappa, the value of their point type) of :func:`invariants`."""
    disc = ee * gg - ff * ff
    k = (big_l * big_n - big_m * big_m) / disc
    kappa = (ee * big_n + gg * big_l - 2.0 * ff * big_m) / (2.0 * disc)
    return k, kappa, _classify(k, kappa, big_l, big_m, big_n, tol)


def _plane(zu, zv) -> tuple:
    """(z_u, z_v, E, F, G, W), the tangent vectors as 4-tuples, behind the
    tangent-plane guard of ``geometry._tangent_plane``, which leaves
    first_form's check nothing to reject: E > 0 and EG - F^2 > 0 imply G > 0.
    The guard runs only where the screen EG - F^2 > c EG (c = 2^-26) with E, G
    and EG normal fails, inf and NaN included.  Under it EG - F^2 > 0, and E,
    F^2 and EG are within a few eps of exact, so the guard's |w| / sqrt(G) =
    sin(angle) > 2^-13 - 16 eps >> _FLOOR (a subnormal G would void this)."""
    (a1, a2, a3, a4), (b1, b2, b3, b4) = zu, zv = tuple(zu), tuple(zv)
    ee = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4
    ff = a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4
    gg = b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4
    disc = (eg := ee * gg) - ff * ff
    if not (disc > _SCREEN * eg and ee >= _NORMAL and gg >= _NORMAL and eg >= _NORMAL):
        _tangent_plane(zu, zv)
    return zu, zv, ee, ff, gg, math.sqrt(disc)


def _normal(plane: tuple, zij) -> tuple[float, float, float, float]:
    """The components of n = z_ij - G^u z_u - G^v z_v, the normal part of z_ij,
    with [[E, F], [F, G]] (G^u, G^v) = (<z_ij, z_u>, <z_ij, z_v>)."""
    (a1, a2, a3, a4), (b1, b2, b3, b4), ee, ff, gg, w = plane
    c1, c2, c3, c4 = zij
    a = c1 * a1 + c2 * a2 + c3 * a3 + c4 * a4
    b = c1 * b1 + c2 * b2 + c3 * b3 + c4 * b4
    det = w * w
    gu, gv = (gg * a - ff * b) / det, (ee * b - ff * a) / det
    return (c1 - gu * a1 - gv * b1, c2 - gu * a2 - gv * b2,
            c3 - gu * a3 - gv * b3, c4 - gu * a4 - gv * b4)


def _areas(plane: tuple, n11: tuple, n12: tuple, n22: tuple) -> tuple[float, float, float]:
    """(L, M, N) from the normal parts by the det4 areas of the module docstring."""
    zu, zv, w = plane[0], plane[1], plane[5]
    w2 = w * w
    return (2.0 * det4(zu, zv, n11, n12) / w2, det4(zu, zv, n11, n22) / w2,
            2.0 * det4(zu, zv, n12, n22) / w2)


def _unit(n: tuple, zij, e: float) -> tuple[float, float, float, float] | None:
    """The components of n / |n|, or None where the normal part n of z_ij is
    only rounding: |n|/e <= 1e-12, or |n| <= _FLOOR |z_ij|."""
    n1, n2, n3, n4 = n
    size = math.sqrt(n1 * n1 + n2 * n2 + n3 * n3 + n4 * n4)
    if size / e > 1e-12:
        c1, c2, c3, c4 = zij
        if size > _FLOOR * math.sqrt(c1 * c1 + c2 * c2 + c3 * c3 + c4 * c4):  # |z_ij|
            return n1 / size, n2 / size, n3 / size, n4 / size
    return None


def _direction(zuu, zvv, plane: tuple, n11: tuple) -> tuple[float, float, float, float] | None:
    """The direction of sigma(x,x) = n11/E, or of sigma(y,y) = n22/G where
    the first vanishes; n22 is built from z_vv on that fallback only."""
    return _unit(n11, zuu, plane[2]) or _unit(_normal(plane, zvv), zvv, plane[4])


def _check_ew(ee: float, w: float) -> None:
    if ee * w * w == 0.0:  # although E, W > 0
        raise NonFiniteInvariantError(f"E W underflows to 0 at E={ee!r}, W={w!r}")


def _invariants(plane: tuple, n11: tuple, n12: tuple,
                n22: tuple) -> tuple[float, float, float, float, float, float, str]:
    """(L, M, N, k, kappa, K, the value of the point type) from the normal
    parts; raises where E W^2 underflows to 0, or where :func:`classify` would."""
    ee, ff, gg, w = plane[2:]
    _check_ew(ee, w)
    p1, p2, p3, p4 = n11
    q1, q2, q3, q4 = n12
    r1, r2, r3, r4 = n22
    gauss = ((p1 * r1 + p2 * r2 + p3 * r3 + p4 * r4)
             - (q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4)) / (w * w)
    big_l, big_m, big_n = _areas(plane, n11, n12, n22)
    k, kappa, kind = _curvatures(ee, ff, gg, big_l, big_m, big_n, CLASS_TOL)
    return big_l, big_m, big_n, k, kappa, gauss, kind


def generic_values(jet) -> tuple[float, ...]:
    """(E, F, G, L, M, N, k, kappa, K) of a :class:`Jet2` or the tuple form
    of a jet; raises :class:`DegenerateMetricError` where the tangent plane
    is degenerate, and :class:`NonFiniteInvariantError` where E W^2
    underflows to 0 or where :func:`classify` would raise."""
    _, zu, zv, zuu, zuv, zvv = jet
    plane = _plane(zu, zv)
    return (*plane[2:5], *_invariants(plane, _normal(plane, zuu), _normal(plane, zuv),
                                      _normal(plane, zvv))[:6])


def gauss_curvature(ff: FirstForm, ct: SecondTensor) -> float:
    """K = (<c11, c22> - |c12|^2) / W^2 in an orthonormal normal frame."""
    return ((ct.c11_1 * ct.c22_1 + ct.c11_2 * ct.c22_2)
            - (ct.c12_1 * ct.c12_1 + ct.c12_2 * ct.c12_2)) / (ff.W * ff.W)


def _defect(ee: float, ff: float, gg: float, big_l: float, big_m: float,
            big_n: float) -> str | None:
    if abs(ff) > PRINCIPAL_TOL * max(1.0, ee, gg):
        return f"F = {ff!r}"
    scale = max(1.0, abs(big_l), abs(big_n))
    return f"M = {big_m!r}" if abs(big_m) > PRINCIPAL_TOL * scale else None


def superconformal_residuals(k: float, kappa: float, gauss: float) -> tuple[float, float, float]:
    """(|kappa^2 - k|, |K^2 - kappa^2|, max(1, kappa^2, |k|, K^2)): the two
    msc residuals and the scale that both are compared against."""
    kappa2, gauss2 = kappa * kappa, gauss * gauss
    return abs(kappa2 - k), abs(gauss2 - kappa2), max(1.0, kappa2, abs(k), gauss2)


def superconformal_verdict(k: float, kappa: float, gauss: float,
                           tol: float) -> tuple[bool, bool]:
    """(minimal, superconformal): each residual of
    :func:`superconformal_residuals` is zero when it is at most ``tol``
    times the scale.  Minimal points satisfy kappa^2 - k = 0, minimal
    super-conformal points K^2 - kappa^2 = 0 as well."""
    minimal, conformal, scale = superconformal_residuals(k, kappa, gauss)
    minimal = minimal <= tol * scale
    return minimal, minimal and conformal <= tol * scale


def _normal_vectors(jet) -> tuple:
    """(E, F, G, W, n11, n12, n22) of a jet, with the normal parts as Vec4s."""
    _, zu, zv, zuu, zuv, zvv = jet
    plane = _plane(zu, zv)
    return (*plane[2:], *[Vec4(*_normal(plane, zij)) for zij in (zuu, zuv, zvv)])


def _mean(ee, ff, gg, w, n11: Vec4, n12: Vec4, n22: Vec4) -> Vec4:
    return (n11 * gg - n12 * (2.0 * ff) + n22 * ee) / (2.0 * w * w)


def mean_curvature_vector(jet) -> Vec4:
    """H = (sigma(x,x) + sigma(y,y)) / 2 = (G n11 - 2 F n12 + E n22) / (2 W^2)
    of a :class:`Jet2` or the tuple form of a jet."""
    return _mean(*_normal_vectors(jet))


def ellipse_samples(jet, n: int) -> list[Vec4]:
    """Points sigma(w, w) on the ellipse of normal curvature of a jet, for
    unit tangents w at angles j pi / n, j < n, to x = z_u/sqrt(E); with
    y = (E z_v - F z_u)/(sqrt(E) W), psi in [0, pi) traces the whole
    ellipse, as the angle doubles inside sigma:

        sigma(w, w) = H + cos(2 psi) (sigma(x,x) - H) + sin(2 psi) sigma(x,y).
    """
    parts = _normal_vectors(jet)
    if n < 3:
        raise ValueError("need at least 3 samples")
    ee, ff, _, w, n11, n12, _ = parts
    _check_ew(ee, w)
    h = _mean(*parts)
    a = n11 / ee - h
    sxy = (n12 * ee - n11 * ff) / (ee * w)
    return [h + a * math.cos(t) + sxy * math.sin(t)
            for t in (2.0 * math.pi * j / n for j in range(n))]


class CircleReport(FrozenRecord):
    """Outcome of the circle test; a radius below tolerance is reported as
    a degenerate circle (flat-point case), not a failure."""

    __match_args__ = ("ok", "degenerate", "center", "radius", "max_deviation")

    def __init__(self, ok: bool, degenerate: bool, center: Vec4, radius: float,
                 max_deviation: float):
        set_field(self, "ok", ok)
        set_field(self, "degenerate", degenerate)
        set_field(self, "center", center)
        set_field(self, "radius", radius)
        set_field(self, "max_deviation", max_deviation)

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
