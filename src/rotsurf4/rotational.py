"""Closed forms for two-plane rotational surfaces

    z(u, v) = (f(u) cos av, f(u) sin av, g(u) cos bv, g(u) sin bv)

with positive rotation speeds a != b: the fundamental forms, the
curvature invariants k, kappa and K, and the eight frame invariants.
Every quantity here is independent of v.

Shorthand used throughout: E = f'^2 + g'^2, G = a^2 f^2 + b^2 g^2 (F = 0
identically for this family).  Where a closed form divides by zero or
leaves the double range, it raises :class:`ClosedFormRangeError` naming u
rather than return inf or nan.

Each formula is written once, in one of two grid kernels that walk a
u-grid's meridian jets in one loop, a row per u that starts with u
(columns: ``_INVARIANT_COLUMNS``, ``_OCTET_COLUMNS``), checking only the parts
asked for: ``_invariant_rows`` (read by ``invariants``: the forms, then K; by
``plot`` of k, kappa or K: k and kappa, then K; by ``verify``: the forms, k
and kappa, then K) and ``_octet_rows`` (``octet``, the other plots,
``verify`` last).  The scalar ``closed_*_at`` read them on a one-point grid.
"""

from __future__ import annotations

from math import inf, isfinite, sqrt
from sys import float_info
from typing import Iterator

from ._record import FrozenRecord, set_field
from .expr import Profile
from .forms import FirstForm, SecondForm, _classify
from .geometry import GeometryError, RegularityError, Vec4, rotate, rotation_trig
from .octet import FrenetOctet

__all__ = [
    "RotationalSurface",
    "ClosedFormRangeError",
    "closed_forms_at",
    "closed_invariants_at",
    "closed_octet_at",
]


class ClosedFormRangeError(GeometryError):
    """A closed form divided by zero or left the double range at ``u``
    (the profile data underflow or overflow there)."""

    def __init__(self, u: float, reason: str):
        super().__init__(f"closed forms at u={u!r}: {reason}")
        self.u = u


def _check_speeds(alpha: float, beta: float) -> None:
    for name, speed in (("alpha", alpha), ("beta", beta)):
        if not (0.0 < speed < inf):  # also false for NaN
            raise ValueError(f"rotation speed {name} must be finite and positive, got {speed!r}")
        if speed * speed < float_info.min:
            raise ValueError(f"rotation speed {name} squared underflows: "
                             f"alpha={alpha!r}, beta={beta!r}")


class RotationalSurface(FrozenRecord):
    """The family above; profiles f, g are expression trees, so arbitrary
    meridians can be probed, and the regularity conditions
    a^2 f^2 + b^2 g^2 > 0, f'^2 + g'^2 > 0 are checked pointwise."""

    __match_args__ = ("f", "g", "alpha", "beta")

    def __init__(self, f: Profile, g: Profile, alpha: float, beta: float):
        set_field(self, "f", f)
        set_field(self, "g", g)
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        _check_speeds(alpha, beta)
        if alpha == beta:
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
        """The surface as a plain (u, v) -> (x1, x2, x3, x4) map,
        ``rotate(meridian_at(u), rotation_trig(alpha, beta, v))``, of 4-tuples,
        that remembers the meridian point of each u (its attribute ``points``,
        for a caller to seed; ``functools.wraps`` hands it on) and the trig of
        each v it reads: never of a zero, so 0.0 and -0.0 (equal keys) keep
        their signs, and never a read that raised."""
        meridian_at, alpha, beta = self.meridian_at, self.alpha, self.beta
        points: dict[float, tuple[float, float, float, float]] = {}
        trigs: dict[float, tuple[float, float, float, float]] = {}

        def surface_map(u: float, v: float) -> tuple[float, float, float, float]:
            p = points.get(u)
            if p is None:
                p = tuple(meridian_at(u))
                if u:
                    points[u] = p
            t = trigs.get(v)
            if t is None:
                t = rotation_trig(alpha, beta, v)
                if v:
                    trigs[v] = t
            return rotate(p, t)

        surface_map.points = points
        return surface_map


def closed_forms_at(s: RotationalSurface, u: float) -> tuple[FirstForm, SecondForm]:
    """E, F = 0, G and L, M = 0, N:

        L = 2 a b (g f' - f g')(g' f'' - f' g'') / (G E)
        N = -2 a b (g f' - f g')(b^2 g f' - a^2 f g') / (G E)
    """
    _, ee, gg, big_l, big_n, _, _, _ = _invariant_rows(s, (u,), (s.meridian_jet(u),), [],
                                                       forms=True)[0]
    return FirstForm(ee, 0.0, gg, sqrt(ee * gg)), SecondForm(big_l, 0.0, big_n)


def closed_invariants_at(s: RotationalSurface, u: float) -> tuple[float, float, float]:
    """(k, kappa, K) of the family in closed form:

        k     = -4 a^2 b^2 (g f' - f g')^2 (g' f'' - f' g'')(b^2 g f' - a^2 f g')
                / (G^3 E^3)
        kappa = a b (g f' - f g') [G (g' f'' - f' g'') - E (b^2 g f' - a^2 f g')]
                / (G^2 E^2)
        K     = [G (b^2 g f' - a^2 f g')(g' f'' - f' g'') - a^2 b^2 E (g f' - f g')^2]
                / (G^2 E^2)
    """
    return _invariant_rows(s, (u,), (s.meridian_jet(u),), [], closed=True, gauss=True)[0][5:]


_INVARIANT_COLUMNS = ("u", "E", "G", "L", "N", "k", "kappa", "K")
_OCTET_COLUMNS = ("u", "gamma2", "nu1", "nu2", "mu", "beta2")


def _invariant_rows(s: RotationalSurface, us, jets, rows: list, *, forms: bool = False,
                    closed: bool = False, gauss: bool = False, tol: float | None = None) -> list:
    """``rows`` with a row (u, E, G, L, N, k, kappa, K) appended per u of ``us`` from its
    meridian jet in ``jets``, in order, each part computed and checked only where asked
    (None elsewhere): ``forms`` (L and N, refused where G E is 0 or G E, L or N is not
    finite, and k and kappa from them by ``forms.invariants``' float operations less its
    F = M = 0.0 terms, x - 0.0 being x bit for bit), ``closed`` (k and kappa in closed form
    in their place, refused where a divisor is 0, G^3 or E^3 overflows or one is not finite)
    and ``gauss`` (refused where (G E)^2 is 0 or inf, K is not finite or a numerator term,
    G radial bend or a^2 b^2 E mixed^2, is 0 or subnormal with no zero factor).  A ``tol``
    (with ``forms``) appends the type of ``_classify`` to each row.  An error leaves the
    rows before its u, which is so ``us[len(rows)]``."""
    a, b = s.alpha, s.beta
    aa, bb, ab, aabb = a * a, b * b, a * b, a * a * b * b
    l_scale, n_scale, k_scale = 2.0 * a * b, -2.0 * a * b, -4.0 * a * a * b * b
    append, tiny = rows.append, float_info.min
    big_l = big_n = k = kappa = big_k = None
    for u, (f, f1, f2, g, g1, g2, ee, gg) in zip(us, jets):
        mixed, bend, radial = g * f1 - f * g1, g1 * f2 - f1 * g2, bb * g * f1 - aa * f * g1
        if forms:
            de = gg * ee
            if not de:
                raise ClosedFormRangeError(u, "zero divisor")
            big_l, big_n = l_scale * mixed * bend / de, n_scale * mixed * radial / de
            if not (isfinite(de) and isfinite(big_l) and isfinite(big_n)):
                raise ClosedFormRangeError(u, "non-finite result")
        if closed:
            try:
                k = k_scale * mixed * mixed * bend * radial / (gg ** 3 * ee ** 3)
                kappa = ab * mixed / (gg * gg * ee * ee) * (gg * bend - ee * radial)
            except ZeroDivisionError:
                raise ClosedFormRangeError(u, "zero divisor") from None
            except OverflowError:  # float ** raises where * would give inf
                raise ClosedFormRangeError(u, "non-finite result") from None
            if not (isfinite(k) and isfinite(kappa)):
                raise ClosedFormRangeError(u, "non-finite result")
        elif forms:
            k, kappa = big_l * big_n / de, (ee * big_n + gg * big_l) / (2.0 * de)
        if gauss:
            den = gg * gg * ee * ee
            if not 0.0 < den < inf:
                raise ClosedFormRangeError(u, "non-finite result" if den else "zero divisor")
            bent, twisted = gg * radial * bend, aabb * ee * mixed * mixed
            if abs(bent) < tiny and radial and bend or abs(twisted) < tiny and mixed:
                raise ClosedFormRangeError(u, "a term of K's numerator underflows")
            big_k = (bent - twisted) / den
            if not isfinite(big_k):
                raise ClosedFormRangeError(u, "non-finite result")
        if tol is None:
            append((u, ee, gg, big_l, big_n, k, kappa, big_k))
        else:
            append((u, ee, gg, big_l, big_n, k, kappa, big_k,
                    _classify(k, kappa, big_l, 0.0, big_n, tol)))
    return rows


def closed_octet_at(s: RotationalSurface, u: float) -> FrenetOctet:
    """The eight frame invariants in closed form; gamma1, lambda and beta1
    vanish identically on the family:

        nu1   = (g' f'' - f' g'') / E^(3/2)
        gamma2 = -(a^2 f f' + b^2 g g') / (sqrt(E) G)
        nu2   = (b^2 g f' - a^2 f g') / (sqrt(E) G)
        mu    = a b (g f' - f g') / (sqrt(E) G)
        beta2 = a b (f f' + g g') / (sqrt(E) sqrt(G))
    """
    _, gamma2, nu1, nu2, mu, beta2 = _octet_rows(s, (u,), (s.meridian_jet(u),), [])[0]
    return FrenetOctet(0.0, gamma2, nu1, nu2, 0.0, mu, 0.0, beta2)


def _octet_rows(s: RotationalSurface, us, jets, rows: list) -> list:
    """``rows`` with (u, gamma2, nu1, nu2, mu, beta2) appended per u of ``us``, from its
    meridian jet in ``jets``, in order, refused where a divisor is 0 or a value is not finite;
    an error leaves the rows before its u, as ``_invariant_rows`` does."""
    a, b = s.alpha, s.beta
    aa, bb, ab = a * a, b * b, a * b
    append = rows.append
    for u, (f, f1, f2, g, g1, g2, ee, gg) in zip(us, jets):
        sqrt_e = sqrt(ee)
        try:
            nu1 = (g1 * f2 - f1 * g2) / (ee * sqrt_e)
            gamma2 = -(aa * f * f1 + bb * g * g1) / (sqrt_e * gg)
            nu2 = (bb * g * f1 - aa * f * g1) / (sqrt_e * gg)
            mu = ab * (g * f1 - f * g1) / (sqrt_e * gg)
            beta2 = ab * (f * f1 + g * g1) / (sqrt_e * sqrt(gg))
        except ZeroDivisionError:
            raise ClosedFormRangeError(u, "zero divisor") from None
        if not (isfinite(nu1) and isfinite(gamma2) and isfinite(nu2) and isfinite(mu)
                and isfinite(beta2)):
            raise ClosedFormRangeError(u, "non-finite result")
        append((u, gamma2, nu1, nu2, mu, beta2))
    return rows
