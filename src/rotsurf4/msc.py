"""Minimal super-conformal members of the rotational family.

With the meridian normalized to f(u) = u, the family member is minimal
super-conformal exactly when g solves

    a b (g - u g') = eps (a^2 u g' - b^2 g),    eps = +-1,

whose solutions are the power laws g(u) = c u^p with exponent p = eps b/a.
This module detects members through the residual of that equation,
generates them, and evaluates their invariants in closed form.

Note on naming: the meridian exponent is called p throughout (elsewhere
the letter k is the invariant built from L, M, N), so p = eps * beta/alpha.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .expr import Interval, Profile, format_number
from .rotational import ClosedFormRangeError, RotationalSurface, _check_speeds, _finite_at

__all__ = [
    "MscParams",
    "identity_profile",
    "msc_profile",
    "msc_profile_text",
    "msc_surface",
    "msc_residual",
    "scaled_msc_residual",
    "reduced_invariants",
    "msc_invariants",
    "power_law_invariants",
]


@dataclass(frozen=True)
class MscParams:
    """Parameters of a power-law member: g = c u^p with p = eps*beta/alpha.

    c = 0 is the degenerate flat branch (g identically zero); it is allowed
    but flagged with a warning when a profile is built from it.
    """

    c: float
    alpha: float
    beta: float
    eps: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise ValueError(f"power-law constant c must be finite, got {self.c!r}")
        _check_speeds(self.alpha, self.beta)
        if self.alpha == self.beta:
            raise ValueError("rotation speeds must differ")
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")

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


def msc_surface(params: MscParams, u_domain=(0.25, 4.0)) -> RotationalSurface:
    """A power-law member on ``u_domain``, which must lie inside (0, inf)."""
    if isinstance(u_domain, Interval):
        interval = u_domain
    else:
        interval = Interval(float(u_domain[0]), float(u_domain[1]))
    if interval.lo <= 0.0 or interval.hi <= interval.lo:
        raise ValueError("the domain of a power-law meridian must lie inside (0, inf)")
    return RotationalSurface(identity_profile(), msc_profile(params),
                             params.alpha, params.beta, interval)


def _check_identity_meridian(s: RotationalSurface, u: float) -> None:
    f = s.f.value(u)
    f1 = s.f.deriv1(u)
    if abs(f - u) > 1e-12 * max(1.0, abs(u)) or abs(f1 - 1.0) > 1e-12:
        raise ValueError("the meridian first component must be f(u) = u")


def _msc_sides(s: RotationalSurface, u: float) -> tuple[float, float]:
    """The sides a b (g - u g') and a^2 u g' - b^2 g of the msc equation."""
    _check_identity_meridian(s, u)
    g = s.g.value(u)
    g1 = s.g.deriv1(u)
    a, b = s.alpha, s.beta
    return a * b * (g - u * g1), a * a * u * g1 - b * b * g


def msc_residual(s: RotationalSurface, u: float, eps: int) -> float:
    """a b (g - u g') - eps (a^2 u g' - b^2 g) at ``u``; zero exactly on the
    power-law members for the matching branch sign."""
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    lhs, rhs = _msc_sides(s, u)
    return lhs - eps * rhs


def scaled_msc_residual(s: RotationalSurface, u: float) -> float:
    """The smaller of |msc_residual| over both branch signs, divided by
    max(1, |a b (g - u g')|, |a^2 u g' - b^2 g|): the membership test's
    deviation at ``u``, comparable with a relative tolerance."""
    lhs, rhs = _msc_sides(s, u)
    return min(abs(lhs - eps * rhs) for eps in (1, -1)) / max(1.0, abs(lhs), abs(rhs))


def reduced_invariants(s: RotationalSurface, u: float) -> tuple[float, float, float]:
    """(nu1, nu2, mu) specialized to f(u) = u:

        nu1 = -g'' / (1 + g'^2)^(3/2)
        nu2 = (b^2 g - a^2 u g') / (sqrt(1 + g'^2) (a^2 u^2 + b^2 g^2))
        mu  = a b (g - u g') / (sqrt(1 + g'^2) (a^2 u^2 + b^2 g^2))
    """
    _check_identity_meridian(s, u)
    g, g1, g2 = s.g.value(u), s.g.deriv1(u), s.g.deriv2(u)
    a, b = s.alpha, s.beta
    ee = 1.0 + g1 * g1
    gg = a * a * u * u + b * b * g * g
    sqrt_e = math.sqrt(ee)
    nu1 = -g2 / (ee * sqrt_e)
    nu2 = (b * b * g - a * a * u * g1) / (sqrt_e * gg)
    mu = a * b * (g - u * g1) / (sqrt_e * gg)
    return nu1, nu2, mu


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
    _finite_at(u, (k, kappa, gauss))
    return k, kappa, gauss


def msc_invariants(params: MscParams, u: float) -> tuple[float, float, float]:
    """(k, kappa, K) of the family member described by ``params``, where
    the member's branch sign eps = sign(p)."""
    return power_law_invariants(params.c, params.p, params.eps, u)
