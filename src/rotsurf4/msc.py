"""Minimal super-conformal members of the rotational family.

The family member with meridian (f, g) is minimal super-conformal exactly
when, along the meridian,

    a b (g f' - f g') = eps (a^2 f g' - b^2 g f'),    eps = +-1.

The equation reads the same in every chart of the meridian: a
reparametrization u -> phi(u) multiplies both sides by phi', and a
homothety (f, g) -> (lam f, lam g) by lam^2.  In the chart f(u) = u its
solutions are the power laws g(u) = c u^p with exponent p = eps b/a.  This
module detects members through the residual of that equation, generates
them, and evaluates their invariants in closed form.

Note on naming: the meridian exponent is called p throughout (elsewhere
the letter k is the invariant built from L, M, N), so p = eps * beta/alpha.
"""

from __future__ import annotations

import math
import warnings

from ._record import FrozenRecord, set_field
from .expr import Interval, Profile, format_number
from .rotational import ClosedFormRangeError, RotationalSurface, _check_speeds

__all__ = [
    "DEFAULT_U_DOMAIN",
    "MscParams",
    "identity_profile",
    "msc_profile",
    "msc_profile_text",
    "msc_surface",
    "msc_residual",
    "scaled_msc_residual",
    "msc_invariants",
    "power_law_invariants",
]


# the (lo, hi) of a power-law member's u grid when none is given
DEFAULT_U_DOMAIN = (0.25, 4.0)


class MscParams(FrozenRecord):
    """Parameters of a power-law member: g = c u^p with p = eps*beta/alpha.

    c = 0 is the degenerate flat branch (g identically zero); it is allowed
    but flagged with a warning when a profile is built from it.
    """

    __match_args__ = ("c", "alpha", "beta", "eps")

    def __init__(self, c: float, alpha: float, beta: float, eps: int):
        set_field(self, "c", c)
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "eps", eps)
        if not math.isfinite(c):
            raise ValueError(f"power-law constant c must be finite, got {c!r}")
        _check_speeds(alpha, beta)
        if alpha == beta:
            raise ValueError("rotation speeds must differ")
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        if self.p == 0.0 or not math.isfinite(self.p):  # beta/alpha under- or overflows
            raise ValueError(f"exponent beta/alpha must be finite and nonzero, got "
                             f"alpha={self.alpha!r}, beta={self.beta!r}")

    @property
    def p(self) -> float:
        return self.eps * self.beta / self.alpha


def identity_profile() -> Profile:
    """The normalized meridian first component f(u) = u."""
    return Profile.from_text("u")


def msc_profile_text(params: MscParams) -> str:
    return f"{format_number(params.c)}*u^{format_number(params.p)}"


def msc_profile(params: MscParams) -> Profile:
    """The power-law profile c u^p with exact symbolic derivatives, on the
    domain u > 0 (non-integer and negative exponents need it)."""
    p = params.p
    if p == 1.0 or p == -1.0:
        raise ValueError("meridian exponent +1 or -1 is excluded")
    if params.c == 0.0:
        warnings.warn("c = 0 gives the degenerate flat branch (g identically zero)",
                      stacklevel=2)
    return Profile.from_text(msc_profile_text(params),
                             domain=Interval(0.0, math.inf, open_lo=True))


def msc_surface(params: MscParams) -> RotationalSurface:
    """The power-law member; its meridian is defined for u > 0."""
    return RotationalSurface(identity_profile(), msc_profile(params), params.alpha, params.beta)


def _msc_sides(s: RotationalSurface, u: float) -> tuple[float, float]:
    """The sides a b (g f' - f g') and a^2 f g' - b^2 g f' of the msc
    equation from f, f', g, g' read at ``u``; with f = u (f' = 1.0) they are
    a b (g - u g') and a^2 u g' - b^2 g bit for bit."""
    f, f1, g, g1 = s.f.value(u), s.f.deriv1(u), s.g.value(u), s.g.deriv1(u)
    a, b = s.alpha, s.beta
    lhs, rhs = a * b * (g * f1 - f * g1), a * a * f * g1 - b * b * g * f1
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ClosedFormRangeError(u, "non-finite result")
    return lhs, rhs


def msc_residual(s: RotationalSurface, u: float, eps: int) -> float:
    """a b (g f' - f g') - eps (a^2 f g' - b^2 g f') at ``u``; zero exactly
    on the power-law members for the matching branch sign.

    Raises :class:`ClosedFormRangeError` naming u when a side or the
    residual is not finite.
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    lhs, rhs = _msc_sides(s, u)
    residual = lhs - eps * rhs
    if not math.isfinite(residual):
        raise ClosedFormRangeError(u, "non-finite result")
    return residual


def scaled_msc_residual(s: RotationalSurface, u: float) -> float:
    """The smaller of |msc_residual| over both branch signs, divided by
    max(|a b (g f' - f g')|, |a^2 f g' - b^2 g f'|), and 0 where both sides
    are 0 (the flat branch f = 0 or g = 0): the membership test's deviation
    at ``u``, in [0, 1] and unchanged under reparametrization and homothety.

    Raises :class:`ClosedFormRangeError` naming u when a side is not finite.
    """
    lhs, rhs = _msc_sides(s, u)
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return min(abs(lhs - eps * rhs) for eps in (1, -1)) / scale


def power_law_invariants(c: float, p: float, eps: int, u: float) -> tuple[float, float, float]:
    """Raw closed form for g = c u^p:

        k     = 4 c^4 p^4 (1-p)^4 u^(4(p-2)) / (1 + c^2 p^2 u^(2(p-1)))^6
        kappa = 2 eps c^2 p^2 (1-p)^2 u^(2(p-2)) / (1 + c^2 p^2 u^(2(p-1)))^3
        K     = -2 c^2 p^2 (1-p)^2 u^(2(p-2)) / (1 + c^2 p^2 u^(2(p-1)))^3

    eps enters only as the sign of kappa, so flipping it (with p fixed)
    flips kappa and leaves k and K unchanged; kappa^2 = k, K^2 = kappa^2
    and K = -eps*kappa hold identically.

    Raises :class:`ClosedFormRangeError` naming u when a result overflows
    or is not finite.
    """
    if u <= 0.0:
        raise ValueError("u must be positive")
    try:
        base = 1.0 + c * c * p * p * u ** (2.0 * (p - 1.0))
        amp = c * c * p * p * (1.0 - p) ** 2 * u ** (2.0 * (p - 2.0))
        k = 4.0 * c ** 4 * p ** 4 * (1.0 - p) ** 4 * u ** (4.0 * (p - 2.0)) / base ** 6
        kappa = 2.0 * eps * amp / base ** 3
        gauss = -2.0 * amp / base ** 3
    except OverflowError:  # float ** raises where * would give inf
        raise ClosedFormRangeError(u, "non-finite result") from None
    if not (math.isfinite(k) and math.isfinite(kappa) and math.isfinite(gauss)):
        raise ClosedFormRangeError(u, "non-finite result")
    return k, kappa, gauss


def msc_invariants(params: MscParams, u: float) -> tuple[float, float, float]:
    """(k, kappa, K) of the family member described by ``params``, where
    the member's branch sign eps = sign(p)."""
    return power_law_invariants(params.c, params.p, params.eps, u)
