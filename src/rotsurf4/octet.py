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
from typing import Callable

from .forms import (FirstForm, _normal_part, _tangent_form, generic_at, principal_defect,
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


def gauge_flip(o: FrenetOctet) -> FrenetOctet:
    """The (b, l) -> (-b, -l) gauge; octets are compared up to this flip."""
    return FrenetOctet(o.gamma1, o.gamma2, -o.nu1, -o.nu2, -o.lam, -o.mu,
                       o.beta1, o.beta2)


def _b_direction(jet: Jet2, ff: FirstForm, n11: Vec4, n22: Vec4) -> Vec4 | None:
    """The direction of sigma(x,x) = n11/E, or of sigma(y,y) = n22/G where
    the first vanishes: |n11|/E <= 1e-12, or |n11| <= _FLOOR |z_uu|."""
    for n, zij, e in ((n11, jet.z_uu, ff.E), (n22, jet.z_vv, ff.G)):
        size = norm(n)
        if size / e > 1e-12 and size > _FLOOR * norm(zij):
            return n / size
    return None


def octet_generic(jet_at: Callable[[float, float], Jet2], u: float, v: float) -> FrenetOctet:
    """The eight invariants at (u, v) from the jets of the map ``jet_at`` alone.

    beta1 and beta2 come from central finite differences of the b field
    along the coordinate directions (step ``_STEP``); everything else is
    exact in the jet at (u, v).  The stencil jets are read first, at
    (u - _STEP, v), (u + _STEP, v), (u, v - _STEP) and (u, v + _STEP) in
    that order, and only then the jet at (u, v), so an error reading a
    stencil jet is raised before any error at the centre.  Raises
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

    b = _b_direction(jet, ff, n11, n22)
    if b is None:
        raise TotallyGeodesicError(
            f"totally geodesic point at z={tuple(jet.z)!r}: b is undefined")
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

    def b_at(stencil_jet: Jet2) -> Vec4:
        sff = _tangent_form(stencil_jet)
        bb = _b_direction(stencil_jet, sff, _normal_part(stencil_jet.z_uu, stencil_jet, sff),
                          _normal_part(stencil_jet.z_vv, stencil_jet, sff))
        if bb is None:
            raise TotallyGeodesicError("totally geodesic stencil point")
        # keep the field continuous across the sign convention
        return bb if dot(bb, b) >= 0.0 else -bb

    beta1 = dot((b_at(u_plus) - b_at(u_minus)) / (2.0 * _STEP), l)
    beta2 = dot((b_at(v_plus) - b_at(v_minus)) / (2.0 * _STEP), l)
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
