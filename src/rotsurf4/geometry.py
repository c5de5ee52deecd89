"""Fixed-size linear algebra in 4-space, 2-jets of parametric maps, the
two-plane rotation, and a finite-difference jet oracle."""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable

from ._record import Record

if TYPE_CHECKING:
    from .rotational import RotationalSurface

__all__ = [
    "Vec4",
    "Jet2",
    "GeometryError",
    "DegenerateMetricError",
    "RegularityError",
    "dot",
    "norm",
    "det4",
    "rotation_trig",
    "rotate",
    "analytic_jet2",
    "analytic_parts_from",
    "fd_jet2",
    "gram_schmidt_normals",
]


_FLOOR = 32.0 * sys.float_info.epsilon  # a length, relative to its source's, that is only rounding


class GeometryError(Exception):
    """Base class for geometric degeneracies."""


class DegenerateMetricError(GeometryError):
    """The tangent vectors do not span a plane (EG - F^2 <= 0)."""


class RegularityError(GeometryError):
    """A regularity condition of the surface family fails at the point."""


class Vec4(Record):
    """A point or vector of R^4.  A value type by convention: nothing
    assigns its fields after construction (slots, not ``frozen``, keep
    construction cheap on the hot paths)."""

    __slots__ = __match_args__ = ("x1", "x2", "x3", "x4")

    def __init__(self, x1: float, x2: float, x3: float, x4: float):
        self.x1 = x1
        self.x2 = x2
        self.x3 = x3
        self.x4 = x4

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 + other.x1, self.x2 + other.x2,
                    self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 - other.x1, self.x2 - other.x2,
                    self.x3 - other.x3, self.x4 - other.x4)

    def __neg__(self) -> "Vec4":
        return Vec4(-self.x1, -self.x2, -self.x3, -self.x4)

    def __mul__(self, s: float) -> "Vec4":
        return Vec4(self.x1 * s, self.x2 * s, self.x3 * s, self.x4 * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec4":
        return Vec4(self.x1 / s, self.x2 / s, self.x3 / s, self.x4 / s)

    def __iter__(self):
        return iter((self.x1, self.x2, self.x3, self.x4))


def dot(a: Vec4, b: Vec4) -> float:
    return a.x1 * b.x1 + a.x2 * b.x2 + a.x3 * b.x3 + a.x4 * b.x4


def norm(a: Vec4) -> float:
    return math.sqrt(dot(a, a))


def _det3s(b, c, d) -> tuple[float, float, float, float]:
    """The 3x3 minors of the rows b, c, d (4-tuples), the k-th without
    column k, each expanded along b, with the 2x2 minors of c, d shared."""
    b1, b2, b3, b4 = b
    c1, c2, c3, c4 = c
    d1, d2, d3, d4 = d
    m12, m13, m14 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c1 * d4 - c4 * d1
    m23, m24, m34 = c2 * d3 - c3 * d2, c2 * d4 - c4 * d2, c3 * d4 - c4 * d3
    return (b2 * m34 - b3 * m24 + b4 * m23, b1 * m34 - b3 * m14 + b4 * m13,
            b1 * m24 - b2 * m14 + b4 * m12, b1 * m23 - b2 * m13 + b3 * m12)


def det4(a, b, c, d) -> float:
    """Determinant of the 4x4 matrix with rows a, b, c, d (Vec4s or
    4-tuples), expanded along the first row."""
    a1, a2, a3, a4 = a
    t1, t2, t3, t4 = _det3s(b, c, d)
    return 0.0 + a1 * t1 + -a2 * t2 + a3 * t3 + -a4 * t4


class Jet2(Record):
    """Position plus first and second partial derivatives at one
    parameter point of a map (u, v) -> R^4; a value type like :class:`Vec4`.
    It unpacks, as the tuple form of a jet does, to
    ``z, z_u, z_v, z_uu, z_uv, z_vv``."""

    __slots__ = __match_args__ = ("z", "z_u", "z_v", "z_uu", "z_uv", "z_vv")

    def __init__(self, z: Vec4, z_u: Vec4, z_v: Vec4, z_uu: Vec4, z_uv: Vec4, z_vv: Vec4):
        self.z = z
        self.z_u = z_u
        self.z_v = z_v
        self.z_uu = z_uu
        self.z_uv = z_uv
        self.z_vv = z_vv

    def __iter__(self):
        return iter((self.z, self.z_u, self.z_v, self.z_uu, self.z_uv, self.z_vv))


def rotation_trig(alpha: float, beta: float, v: float) -> tuple[float, float, float, float]:
    """(cos av, sin av, cos bv, sin bv); an overflowing angle raises GeometryError."""
    try:
        return math.cos(alpha * v), math.sin(alpha * v), math.cos(beta * v), math.sin(beta * v)
    except ValueError:  # for finite speeds and v, only where alpha*v or beta*v is inf
        raise GeometryError(f"rotation angle overflows at v={v!r}") from None


def rotate(p, trig: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """The components of ``p`` (a Vec4 or a 4-tuple) turned in the x1x2- and
    x3x4-planes by the angles of ``trig``."""
    x1, x2, x3, x4 = p
    ca, sa, cb, sb = trig
    return x1 * ca - x2 * sa, x1 * sa + x2 * ca, x3 * cb - x4 * sb, x3 * sb + x4 * cb


def analytic_jet2(surface: "RotationalSurface", u: float, v: float) -> Jet2:
    """Exact 2-jet of (f cos av, f sin av, g cos bv, g sin bv) from
    :meth:`RotationalSurface.meridian_jet`, which may raise, and closed-form trig factors."""
    a, b = surface.alpha, surface.beta
    meridian, trig = surface.meridian_jet(u), rotation_trig(a, b, v)
    return Jet2(*[Vec4(*part) for part in analytic_parts_from(a, b, meridian, trig)])


def analytic_parts_from(a: float, b: float, meridian: tuple, trig: tuple) -> tuple:
    """The tuple form of :func:`analytic_jet2`, six 4-tuples ``(z, z_u, z_v,
    z_uu, z_uv, z_vv)``, from its reads: ``meridian``, the tuple of
    ``meridian_jet(u)``, and ``trig``, that of ``rotation_trig(a, b, v)``."""
    f, f1, f2, g, g1, g2, _, _ = meridian
    ca, sa, cb, sb = trig
    return ((f * ca, f * sa, g * cb, g * sb),
            (f1 * ca, f1 * sa, g1 * cb, g1 * sb),
            (-a * f * sa, a * f * ca, -b * g * sb, b * g * cb),
            (f2 * ca, f2 * sa, g2 * cb, g2 * sb),
            (-a * f1 * sa, a * f1 * ca, -b * g1 * sb, b * g1 * cb),
            (-a * a * f * ca, -a * a * f * sa, -b * b * g * cb, -b * b * g * sb))


def _fd_step(u: float, v: float) -> float:
    """fd_jet2's default step at (u, v); its map reads at u, u -+ h and u -+ h/2."""
    return 1e-4 * max(1.0, abs(u), abs(v))


def fd_jet2(surface_map: Callable[[float, float], Vec4 | tuple], u: float, v: float,
            h: float | None = None, *, richardson: bool = True) -> Jet2:
    """Central-difference 2-jet of an arbitrary map, O(h^2); one Richardson
    step (h and h/2) raises it to O(h^4).  The map may return any four
    components (a Vec4 or a 4-tuple); the jet is a Jet2 of Vec4s either way.

    The default step, :func:`_fd_step`, balances truncation against round-off
    in double precision.  Domain errors raised by ``surface_map`` on the
    stencil propagate.
    """
    if h is None:
        h = _fd_step(u, v)
    if h <= 0.0:
        raise ValueError("step must be positive")
    z = surface_map(u, v)
    parts = _fd_parts(surface_map, u, v, h, z)
    if richardson:
        half = _fd_parts(surface_map, u, v, h / 2.0, z)
        parts = [(a * 4.0 - b) / 3.0 for a, b in zip(half, parts)]
    return Jet2(Vec4(*z), *[Vec4(*parts[i::5]) for i in range(5)])


def _fd_parts(m, u, v, h, z) -> list[float]:
    """z_u, z_v, z_uu, z_uv, z_vv of step h, interleaved component by
    component (x1 of each, then x2, ...), by the float operations of

        (pu - mu) / (2h),  (pu - z * 2 + mu) / (h h),  ((pp - pm) - (mp - mm)) / (4h h)

    and their v twins on Vec4s; the map is called in the order pu, mu, pv,
    mv, pp, pm, mp, mm, and each of its points is read by unpacking."""
    points = (z, m(u + h, v), m(u - h, v), m(u, v + h), m(u, v - h),
              m(u + h, v + h), m(u + h, v - h), m(u - h, v + h), m(u - h, v - h))
    d1, d2, d4 = 2.0 * h, h * h, 4.0 * h * h
    parts = []
    for c, pu, mu, pv, mv, pp, pm, mp, mm in zip(*points):
        parts += ((pu - mu) / d1, (pv - mv) / d1, (pu - c * 2.0 + mu) / d2,
                  ((pp - pm) - (mp - mm)) / d4, (pv - c * 2.0 + mv) / d2)
    return parts


_BASIS = (Vec4(1.0, 0.0, 0.0, 0.0), Vec4(0.0, 1.0, 0.0, 0.0),
          Vec4(0.0, 0.0, 1.0, 0.0), Vec4(0.0, 0.0, 0.0, 1.0))


def _unit_seed(frame: tuple[Vec4, ...]) -> Vec4:
    """The longest residual of a standard basis vector after removing its
    components along the orthonormal ``frame`` (lowest index on ties), unit."""
    best, best_norm = None, -1.0
    for r in _BASIS:
        for q in frame:
            r = r - q * dot(r, q)
        n = norm(r)
        if n > best_norm:
            best, best_norm = r, n
    return best / best_norm


def _tangent_plane(a: tuple, b: tuple) -> tuple[tuple, tuple, float]:
    """(t1, w, |w|) of the tangent vectors with components ``a`` and ``b``:
    t1 = a/|a| and the residual w = b - <b, t1> t1, which
    :func:`gram_schmidt_normals` scales to t2; raises
    :class:`DegenerateMetricError` where EG - F^2 is not positive (NaN
    included) or w is rounding, |w| <= _FLOOR |b|."""
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    ee = a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4
    ff = a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4
    gg = b1 * b1 + b2 * b2 + b3 * b3 + b4 * b4
    if not (ee > 0.0 and ee * gg - ff * ff > 0.0):  # also rejects NaN
        raise DegenerateMetricError(
            f"tangent plane degenerate: EG-F^2 = {ee * gg - ff * ff!r}")
    r = math.sqrt(ee)
    t1, t2, t3, t4 = a1 / r, a2 / r, a3 / r, a4 / r
    p = b1 * t1 + b2 * t2 + b3 * t3 + b4 * t4
    w1, w2, w3, w4 = b1 - t1 * p, b2 - t2 * p, b3 - t3 * p, b4 - t4 * p
    nw = math.sqrt(w1 * w1 + w2 * w2 + w3 * w3 + w4 * w4)
    if nw / math.sqrt(gg) <= _FLOOR:  # false for inf / inf, where |b| overflows
        raise DegenerateMetricError("tangent vectors are collinear")
    return (t1, t2, t3, t4), (w1, w2, w3, w4), nw


def gram_schmidt_normals(jet: Jet2) -> tuple[Vec4, Vec4]:
    """Orthonormal normal frame (e1, e2) with det4(z_u, z_v, e1, e2) > 0.

    Seeds are the standard basis vectors with the largest residual norm
    after removing the components along the tangent basis (z_u/|z_u|, t2)
    of Gram-Schmidt, ties broken by lowest index, so the frame is
    deterministic; e2 is negated when the orientation comes out negative.
    Raises as :func:`_tangent_plane` does.
    """
    zu, zv = jet.z_u, jet.z_v
    t1, (w1, w2, w3, w4), nw = _tangent_plane(zu, zv)
    t1, t2 = Vec4(*t1), Vec4(w1 / nw, w2 / nw, w3 / nw, w4 / nw)
    e1 = _unit_seed((t1, t2))
    e2 = _unit_seed((t1, t2, e1))
    if det4(zu, zv, e1, e2) < 0.0:
        e2 = -e2
    return e1, e2
