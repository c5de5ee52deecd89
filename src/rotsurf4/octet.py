"""The eight moving-frame invariants of a surface in principal parameters.

For principal parameters (F = 0, M = 0) the unit tangents x = z_u/sqrt(E),
y = z_v/sqrt(G) and a unit normal b collinear with sigma(x,x) and
sigma(y,y) determine a frame {x, y, b, l}, positively oriented.  The
derivative formulas of that frame carry eight invariant coefficients

    gamma1, gamma2, nu1, nu2, lambda, mu, beta1, beta2

with nu1 = <sigma(x,x), b>, nu2 = <sigma(y,y), b>, lambda = <sigma(x,y), b>,
mu = <sigma(x,y), l>, and beta1, beta2 the l-components of the derivatives
of the b field along the u and v coordinate directions.

b's sign is fixed here as sigma(x,x)/|sigma(x,x)| (falling back to
sigma(y,y) when the first vanishes, also to rounding), so all comparisons
are defined up to the simultaneous flip (nu1, nu2, lambda, mu) ->
-(nu1, nu2, lambda, mu), which corresponds to (b, l) -> (-b, -l) and
leaves the other four fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .forms import (FirstForm, _normal_parts, _tangent_form, generic_at, principal_defect,
                    second_form)
from .geometry import _FLOOR, GeometryError, Jet2, Vec4, cross4, dot, norm

__all__ = [
    "FrenetOctet",
    "NonPrincipalParamsError",
    "TotallyGeodesicError",
    "gauge_flip",
    "octet_generic",
    "invariants_from_octet",
]

_STEP = 1e-4  # stencil step of the b-field differences


class NonPrincipalParamsError(GeometryError):
    """The parameters are not principal (F or M is not zero)."""


class TotallyGeodesicError(GeometryError):
    """sigma(x,x) and sigma(y,y) both vanish, so b is undefined."""


@dataclass(slots=True)
class FrenetOctet:
    """A value type like :class:`Vec4`."""

    gamma1: float
    gamma2: float
    nu1: float
    nu2: float
    lam: float
    mu: float
    beta1: float
    beta2: float


_octet_values = attrgetter("gamma1", "gamma2", "nu1", "nu2", "lam", "mu", "beta1", "beta2")
_GAUGE_FLIPPED = (False, False, True, True, True, True, False, False)  # per _octet_values


def gauge_flip(o: FrenetOctet) -> FrenetOctet:
    """The (b, l) -> (-b, -l) gauge; octets are compared up to this flip."""
    return FrenetOctet(*[-x if flip else x for x, flip in zip(_octet_values(o), _GAUGE_FLIPPED)])


def _unit_or_none(n: Vec4 | tuple[float, ...], zij: Vec4,
                  e: float) -> tuple[float, ...] | None:
    """The components of n / |n|, or None where n is only rounding:
    |n|/e <= 1e-12, or |n| <= _FLOOR |z_ij|."""
    n1, n2, n3, n4 = n
    size = math.sqrt(n1 * n1 + n2 * n2 + n3 * n3 + n4 * n4)
    if size / e > 1e-12 and size > _FLOOR * norm(zij):
        return n1 / size, n2 / size, n3 / size, n4 / size
    return None


def _b_direction(jet: Jet2, ff: FirstForm,
                 n11: Vec4 | tuple[float, ...]) -> tuple[float, ...] | None:
    """The direction of sigma(x,x) = n11/E, or of sigma(y,y) = n22/G where
    the first vanishes; n22 is built from the jet on that fallback only."""
    b = _unit_or_none(n11, jet.z_uu, ff.E)
    if b is None:
        b = _unit_or_none(_normal_parts(jet, ff, jet.z_vv)[0], jet.z_vv, ff.G)
    return b


def octet_generic(jet_at: Callable[[float, float], Jet2], u: float, v: float) -> FrenetOctet:
    """The eight invariants at (u, v) from the jets of the map ``jet_at`` alone.

    beta1 and beta2 come from central finite differences of the b field
    along the coordinate directions (step ``_STEP``); everything else is
    exact in the jet at (u, v).  The stencil jets are read first, at
    (u - _STEP, v), (u + _STEP, v), (u, v - _STEP) and (u, v + _STEP) in
    that order, and only then the jet at (u, v), so an error reading a
    stencil jet is raised before any error at the centre.  A stencil jet
    builds n22 only on the sigma(y,y) fallback, where n11 gives no
    direction.  Raises
    :class:`NonPrincipalParamsError` away from principal parameters and
    :class:`TotallyGeodesicError` where b is undefined.
    """
    u_minus, u_plus, v_minus, v_plus = (jet_at(u - _STEP, v), jet_at(u + _STEP, v),
                                        jet_at(u, v - _STEP), jet_at(u, v + _STEP))
    jet = jet_at(u, v)
    ff, n11, n12, n22 = generic_at(jet)
    sxx, syy = n11 / ff.E, n22 / ff.G
    sxy = n12 / (math.sqrt(ff.E) * math.sqrt(ff.G))
    defect = principal_defect(ff, second_form(jet, ff, n11, n12, n22))
    if defect is not None:
        raise NonPrincipalParamsError(f"{defect}: parameters are not principal")

    b = _b_direction(jet, ff, n11)
    if b is None:
        raise TotallyGeodesicError(
            f"totally geodesic point at z={tuple(jet.z)!r}: b is undefined")
    b1, b2, b3, b4 = b
    b = Vec4(*b)
    x = jet.z_u / math.sqrt(ff.E)
    y = jet.z_v / math.sqrt(ff.G)
    l = cross4(x, y, b)
    l = l / norm(l)

    gamma1 = dot(jet.z_uu, y) / ff.E
    gamma2 = dot(jet.z_vv, x) / ff.G
    nu1 = dot(sxx, b)
    nu2 = dot(syy, b)
    lam = dot(sxy, b)
    mu = dot(sxy, l)

    l1, l2, l3, l4 = l.x1, l.x2, l.x3, l.x4

    def b_at(stencil_jet: Jet2) -> tuple[float, ...]:
        sff = _tangent_form(stencil_jet)
        bb = _b_direction(stencil_jet, sff, _normal_parts(stencil_jet, sff, stencil_jet.z_uu)[0])
        if bb is None:
            raise TotallyGeodesicError("totally geodesic stencil point")
        c1, c2, c3, c4 = bb
        # keep the field continuous across the sign convention
        return bb if c1 * b1 + c2 * b2 + c3 * b3 + c4 * b4 >= 0.0 else (-c1, -c2, -c3, -c4)

    def beta(plus: Jet2, minus: Jet2) -> float:
        """<(b(plus) - b(minus)) / (2 _STEP), l> with the float operations of Vec4s."""
        (p1, p2, p3, p4), (m1, m2, m3, m4) = b_at(plus), b_at(minus)
        s = 2.0 * _STEP
        return (p1 - m1) / s * l1 + (p2 - m2) / s * l2 + (p3 - m3) / s * l3 + (p4 - m4) / s * l4

    beta1 = beta(u_plus, u_minus)
    beta2 = beta(v_plus, v_minus)
    return FrenetOctet(gamma1, gamma2, nu1, nu2, lam, mu, beta1, beta2)


def invariants_from_octet(o: FrenetOctet) -> tuple[float, float, float]:
    """(k, kappa, K) from the octet:

        k = -4 nu1 nu2 mu^2,  kappa = (nu1 - nu2) mu,
        K = nu1 nu2 - (lambda^2 + mu^2).

    All three are invariant under the gauge flip.
    """
    k = -4.0 * o.nu1 * o.nu2 * o.mu * o.mu
    kappa = (o.nu1 - o.nu2) * o.mu
    gauss = o.nu1 * o.nu2 - (o.lam * o.lam + o.mu * o.mu)
    return k, kappa, gauss
