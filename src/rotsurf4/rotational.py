"""Closed forms for two-plane rotational surfaces

    z(u, v) = (f(u) cos av, f(u) sin av, g(u) cos bv, g(u) sin bv)

with positive rotation speeds a != b: fundamental forms, the canonical
frames, curvature invariants, the eight frame invariants, and the Frenet
curvatures of the parametric curves.  Every quantity here is independent
of v.

Shorthand used throughout: E = f'^2 + g'^2, G = a^2 f^2 + b^2 g^2 (F = 0
identically for this family).  Where a closed form divides by zero or
leaves the double range, it raises :class:`ClosedFormRangeError` naming u
rather than return inf or nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .expr import Profile
from .forms import FirstForm, SecondForm, SecondTensor
from .geometry import GeometryError, RegularityError, Vec4, dot, norm, rotate, rotation_trig
from .octet import FrenetOctet

__all__ = [
    "RotationalSurface",
    "CurveCurvatures",
    "DegenerateCurveError",
    "ClosedFormRangeError",
    "closed_forms_at",
    "closed_invariants_at",
    "closed_octet_at",
    "frames_at",
    "vline_curvatures",
    "vline_derivatives",
    "meridian_curvature",
    "curve_frenet_oracle",
]

_RANK_TOL = 1e-10  # relative length below which a derivative of the flag counts as zero


class DegenerateCurveError(GeometryError):
    """The derivative flag of a curve drops rank too early; ``rank`` is the
    number of independent derivatives found."""

    def __init__(self, message: str, rank: int):
        super().__init__(message)
        self.rank = rank


class ClosedFormRangeError(GeometryError):
    """A closed form divided by zero or left the double range at ``u``
    (the profile data underflow or overflow there)."""

    def __init__(self, u: float, reason: str):
        super().__init__(f"closed forms at u={u!r}: {reason}")
        self.u = u


def _finite_at(u: float, values) -> None:
    if not all(map(math.isfinite, values)):
        raise ClosedFormRangeError(u, "non-finite result")


def _check_speeds(alpha: float, beta: float) -> None:
    for name, speed in (("alpha", alpha), ("beta", beta)):
        if not (0.0 < speed < math.inf):  # also false for NaN
            raise ValueError(f"rotation speed {name} must be finite and positive, got {speed!r}")


@dataclass(frozen=True)
class RotationalSurface:
    """The family above; profiles f, g are expression trees, so arbitrary
    meridians can be probed, and the regularity conditions
    a^2 f^2 + b^2 g^2 > 0, f'^2 + g'^2 > 0 are checked pointwise."""

    f: Profile
    g: Profile
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        _check_speeds(self.alpha, self.beta)
        if self.alpha == self.beta:
            raise ValueError(
                "equal rotation speeds are excluded (every v-line degenerates to a circle)")

    def meridian_at(self, u: float) -> Vec4:
        """The meridian point (f(u), 0, g(u), 0) that the rotation turns."""
        return Vec4(self.f.value(u), 0.0, self.g.value(u), 0.0)

    def meridian_jet(self, u: float):
        """(f, f', f'', g, g', g'', E, G) at ``u``; RegularityError unless G > 0, then E > 0."""
        f, g = self.f, self.g
        return self._regular_jet(u, f.value(u), f.deriv1(u), f.deriv2(u),
                                 g.value(u), g.deriv1(u), g.deriv2(u))

    def meridian_jets(self, us: list[float]) -> Iterator[tuple]:
        """``meridian_jet(u)`` for each u of ``us`` in order, lazily, so each
        regularity error is raised when its u is reached.  The profiles are
        read over the whole grid at once (``Profile.grid``); where that
        misses, every jet comes from ``meridian_jet``, so the first profile
        error is the one that the per-point reads meet."""
        f = self.f.grid(us)
        g = None if f is None else self.g.grid(us)
        if g is None:
            return map(self.meridian_jet, us)
        return map(self._regular_jet, us, *f, *g)

    def _regular_jet(self, u: float, f: float, f1: float, f2: float,
                     g: float, g1: float, g2: float):
        a, b = self.alpha, self.beta
        ee = f1 * f1 + g1 * g1
        gg = a * a * f * f + b * b * g * g
        if gg <= 0.0:
            raise RegularityError(f"rotation radii vanish at u={u!r}")
        if ee <= 0.0:
            raise RegularityError(f"meridian speed vanishes at u={u!r}")
        return f, f1, f2, g, g1, g2, ee, gg

    def as_map(self):
        """The surface as a plain (u, v) -> Vec4 map."""
        meridian_at, alpha, beta = self.meridian_at, self.alpha, self.beta
        return lambda u, v: rotate(meridian_at(u), rotation_trig(alpha, beta, v))


def closed_forms_at(s: RotationalSurface, u: float) -> tuple[FirstForm, SecondTensor, SecondForm]:
    """E, F = 0, G, the six tensor components and L, M = 0, N:

        c11^1 = (g' f'' - f' g'') / sqrt(E)
        c12^2 = a b (g f' - f g') / sqrt(G)
        c22^1 = (b^2 g f' - a^2 f g') / sqrt(E)
        L = 2 a b (g f' - f g')(g' f'' - f' g'') / (G E)
        N = -2 a b (g f' - f g')(b^2 g f' - a^2 f g') / (G E)

    with the remaining components zero.
    """
    return _closed_forms(s, u, s.meridian_jet(u))


def _closed_forms(s: RotationalSurface, u: float,
                  data) -> tuple[FirstForm, SecondTensor, SecondForm]:
    f, f1, f2, g, g1, g2, ee, gg = data
    a, b = s.alpha, s.beta
    try:
        c11_1 = (g1 * f2 - f1 * g2) / math.sqrt(ee)
        c12_2 = a * b * (g * f1 - f * g1) / math.sqrt(gg)
        c22_1 = (b * b * g * f1 - a * a * f * g1) / math.sqrt(ee)
        big_l = 2.0 * a * b * (g * f1 - f * g1) * (g1 * f2 - f1 * g2) / (gg * ee)
        big_n = -2.0 * a * b * (g * f1 - f * g1) * (b * b * g * f1 - a * a * f * g1) / (gg * ee)
    except ZeroDivisionError:
        raise ClosedFormRangeError(u, "zero divisor") from None
    w = math.sqrt(ee * gg)
    _finite_at(u, (ee, gg, w, c11_1, c12_2, c22_1, big_l, big_n))
    return (FirstForm(ee, 0.0, gg, w),
            SecondTensor(c11_1, 0.0, 0.0, c12_2, c22_1, 0.0),
            SecondForm(big_l, 0.0, big_n))


def closed_invariants_at(s: RotationalSurface, u: float) -> tuple[float, float, float]:
    """(k, kappa, K) of the family in closed form:

        k     = -4 a^2 b^2 (g f' - f g')^2 (g' f'' - f' g'')(b^2 g f' - a^2 f g')
                / (G^3 E^3)
        kappa = a b (g f' - f g') [G (g' f'' - f' g'') - E (b^2 g f' - a^2 f g')]
                / (G^2 E^2)
        K     = [G (b^2 g f' - a^2 f g')(g' f'' - f' g'') - a^2 b^2 E (g f' - f g')^2]
                / (G^2 E^2)
    """
    return _closed_invariants(s, u, s.meridian_jet(u))


def _closed_invariants(s: RotationalSurface, u: float, data) -> tuple[float, float, float]:
    f, f1, f2, g, g1, g2, ee, gg = data
    a, b = s.alpha, s.beta
    mixed = g * f1 - f * g1
    bend = g1 * f2 - f1 * g2
    radial = b * b * g * f1 - a * a * f * g1
    try:
        k = -4.0 * a * a * b * b * mixed * mixed * bend * radial / (gg ** 3 * ee ** 3)
        kappa = a * b * mixed / (gg * gg * ee * ee) * (gg * bend - ee * radial)
        gauss = (gg * radial * bend - a * a * b * b * ee * mixed * mixed) / (gg * gg * ee * ee)
    except ZeroDivisionError:
        raise ClosedFormRangeError(u, "zero divisor") from None
    except OverflowError:  # float ** raises where * would give inf
        raise ClosedFormRangeError(u, "non-finite result") from None
    _finite_at(u, (k, kappa, gauss))
    return k, kappa, gauss


def closed_octet_at(s: RotationalSurface, u: float) -> FrenetOctet:
    """The eight frame invariants in closed form; gamma1, lambda and beta1
    vanish identically on the family:

        nu1   = (g' f'' - f' g'') / E^(3/2)
        gamma2 = -(a^2 f f' + b^2 g g') / (sqrt(E) G)
        nu2   = (b^2 g f' - a^2 f g') / (sqrt(E) G)
        mu    = a b (g f' - f g') / (sqrt(E) G)
        beta2 = a b (f f' + g g') / (sqrt(E) sqrt(G))
    """
    return _closed_octet(s, u, s.meridian_jet(u))


def _closed_octet(s: RotationalSurface, u: float, data) -> FrenetOctet:
    f, f1, f2, g, g1, g2, ee, gg = data
    a, b = s.alpha, s.beta
    sqrt_e = math.sqrt(ee)
    try:
        nu1 = (g1 * f2 - f1 * g2) / (ee * sqrt_e)
        gamma2 = -(a * a * f * f1 + b * b * g * g1) / (sqrt_e * gg)
        nu2 = (b * b * g * f1 - a * a * f * g1) / (sqrt_e * gg)
        mu = a * b * (g * f1 - f * g1) / (sqrt_e * gg)
        beta2 = a * b * (f * f1 + g * g1) / (sqrt_e * math.sqrt(gg))
    except ZeroDivisionError:
        raise ClosedFormRangeError(u, "zero divisor") from None
    _finite_at(u, (nu1, gamma2, nu2, mu, beta2))
    return FrenetOctet(0.0, gamma2, nu1, nu2, 0.0, mu, 0.0, beta2)


def frames_at(s: RotationalSurface, u: float, v: float) -> tuple[Vec4, Vec4, Vec4, Vec4]:
    """The canonical positively oriented frame (x, y, n1, n2): unit
    tangents along the u- and v-lines and the closed-form unit normals."""
    f, f1, _, g, g1, _, ee, gg = s.meridian_jet(u)
    a, b = s.alpha, s.beta
    sqrt_e, sqrt_g = math.sqrt(ee), math.sqrt(gg)
    ca, sa, cb, sb = rotation_trig(a, b, v)
    x = Vec4(f1 * ca, f1 * sa, g1 * cb, g1 * sb) / sqrt_e
    y = Vec4(-a * f * sa, a * f * ca, -b * g * sb, b * g * cb) / sqrt_g
    n1 = Vec4(g1 * ca, g1 * sa, -f1 * cb, -f1 * sb) / sqrt_e
    n2 = Vec4(-b * g * sa, b * g * ca, a * f * sb, -a * f * cb) / sqrt_g
    return x, y, n1, n2


@dataclass(frozen=True)
class CurveCurvatures:
    """First, second and third Frenet curvatures of a curve in 4-space,
    taken with respect to the curve parameter."""

    kappa: float
    tau: float
    sigma3: float


def _vline_range_error(a: float, b: float, alpha: float, beta: float) -> GeometryError:
    return GeometryError(f"v-line not finite at radii {a!r}, {b!r}, speeds {alpha!r}, {beta!r}")


def vline_curvatures(a: float, b: float, alpha: float, beta: float) -> CurveCurvatures:
    """Frenet curvatures of the v-line through (a, 0, b, 0):

        kappa  = sqrt((a^2 al^4 + b^2 be^4) / (a^2 al^2 + b^2 be^2))
        tau    = a b al be (al^2 - be^2) / (sqrt(a^2 al^4 + b^2 be^4) sqrt(a^2 al^2 + b^2 be^2))
        sigma3 = al be sqrt(a^2 al^2 + b^2 be^2) / sqrt(a^2 al^4 + b^2 be^4)

    All three are constant in v, so the v-lines are helices for al != be
    (and circles for al = be, where tau vanishes through the al^2 - be^2
    factor).  Raises :class:`GeometryError` naming the radii and speeds
    where the data overflow or a curvature is not finite.
    """
    q2 = a * a * alpha * alpha + b * b * beta * beta
    try:
        q4 = a * a * alpha ** 4 + b * b * beta ** 4
    except OverflowError:  # float ** raises where * would give inf
        raise _vline_range_error(a, b, alpha, beta) from None
    if q2 <= 0.0 or q4 <= 0.0:
        raise RegularityError("degenerate v-line: both rotation radii vanish")
    kappa = math.sqrt(q4 / q2)
    tau = a * b * alpha * beta * (alpha * alpha - beta * beta) / (math.sqrt(q4) * math.sqrt(q2))
    sigma3 = alpha * beta * math.sqrt(q2) / math.sqrt(q4)
    if not all(map(math.isfinite, (kappa, tau, sigma3))):
        raise _vline_range_error(a, b, alpha, beta)
    return CurveCurvatures(kappa, tau, sigma3)


def vline_derivatives(a: float, b: float, alpha: float, beta: float,
                      v: float) -> tuple[Vec4, Vec4, Vec4, Vec4]:
    """First four exact derivatives of the v-line
    (a cos(al v), a sin(al v), b cos(be v), b sin(be v)): the k-th is
    (a al^k, 0, b be^k, 0) rotated by the angles turned k quarter turns.  An
    overflowing angle raises :class:`GeometryError` naming v; overflowing or
    non-finite derivatives raise it naming the radii and speeds."""
    ca, sa, cb, sb = rotation_trig(alpha, beta, v)
    turns = ((-sa, ca, -sb, cb), (-ca, -sa, -cb, -sb), (sa, -ca, sb, -cb), (ca, sa, cb, sb))
    try:
        out = tuple(rotate(Vec4(a * alpha ** k, 0.0, b * beta ** k, 0.0), trig)
                    for k, trig in enumerate(turns, 1))
    except OverflowError:  # float ** raises where * would give inf
        raise _vline_range_error(a, b, alpha, beta) from None
    if not all(map(math.isfinite, (x for d in out for x in d))):
        raise _vline_range_error(a, b, alpha, beta)
    return out


def meridian_curvature(s: RotationalSurface, u: float) -> float:
    """Curvature |g' f'' - f' g''| / sqrt(E)^3 of the meridian.  The
    meridian is a plane curve, so its torsion vanishes identically.
    Raises :class:`ClosedFormRangeError` where sqrt(E)^3 underflows to zero
    or overflows, or the result is not finite.

    The formula needs only f', f'', g', g''; f and g are read too, and
    dropped, because those reads are its domain check on the meridian: for
    f = log(u) at u = -1, f' and f'' are defined but f is not, and the
    curvature of a meridian point that does not exist is an error, not a
    number.  There is no radii check (at (u, u^2), u = 0 it returns 2.0)."""
    _, f1, f2, _, g1, g2 = (s.f.value(u), s.f.deriv1(u), s.f.deriv2(u),
                            s.g.value(u), s.g.deriv1(u), s.g.deriv2(u))
    ee = f1 * f1 + g1 * g1
    if ee <= 0.0:
        raise RegularityError(f"meridian speed vanishes at u={u!r}")
    try:
        curvature = abs(g1 * f2 - f1 * g2) / math.sqrt(ee) ** 3
    except ZeroDivisionError:
        raise ClosedFormRangeError(u, "zero divisor") from None
    except OverflowError:
        raise ClosedFormRangeError(u, "non-finite result") from None
    _finite_at(u, (curvature,))
    return curvature


def curve_frenet_oracle(d1: Vec4, d2: Vec4, d3: Vec4, d4: Vec4) -> CurveCurvatures:
    """Numeric Frenet curvatures from the first four derivative vectors of
    a curve, via Gram-Schmidt on the derivative flag.

    With n_k the length of the k-th orthogonalized derivative, the
    parameter-speed curvatures are kappa1 = n2/n1, kappa2 = n3/n2,
    kappa3 = n4/n3, reported as magnitudes.  When the flag drops rank at
    level k (curve confined to a flat of dimension k-1), the curvatures
    from that level on are zero; a vanishing first derivative raises
    :class:`DegenerateCurveError` with the rank.
    """
    frame: list[Vec4] = []
    lengths: list[float] = []
    for index, vec in enumerate((d1, d2, d3, d4)):
        r = vec
        for q, qlen in zip(frame, lengths):
            if qlen > 0.0:
                r = r - q * (dot(r, q) / (qlen * qlen))
        n = norm(r)
        if n <= _RANK_TOL * max(norm(vec), 1e-300):
            if index == 0:
                raise DegenerateCurveError(
                    "velocity vanishes: Frenet data undefined", rank=0)
            n = 0.0
        frame.append(r)
        lengths.append(n)
    kappa1 = lengths[1] / lengths[0]
    kappa2 = lengths[2] / lengths[1] if lengths[1] > 0.0 else 0.0
    kappa3 = lengths[3] / lengths[2] if lengths[2] > 0.0 else 0.0
    return CurveCurvatures(kappa1, kappa2, kappa3)
