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
sigma(y,y) when the first vanishes), so all comparisons are defined up to
the simultaneous flip (nu1, nu2, lambda, mu) -> -(nu1, nu2, lambda, mu),
which corresponds to (b, l) -> (-b, -l) and leaves the other four fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .forms import generic_at, lmn
from .geometry import GeometryError, Jet2, Vec4, cross4, dot, norm

__all__ = [
    "FrenetOctet",
    "JetNeighbors",
    "NonPrincipalParamsError",
    "TotallyGeodesicError",
    "gauge_flip",
    "neighbors_from",
    "octet_generic",
    "invariants_from_octet",
]

_STEP = 1e-4  # stencil step of the b-field differences
_PRINCIPAL_TOL = 1e-8  # relative size of F and M below which parameters are principal


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


@dataclass(slots=True)
class JetNeighbors:
    """Stencil jets at (u -+ _STEP, v) and (u, v -+ _STEP) for the finite
    differences of the b field."""

    u_minus: Jet2
    u_plus: Jet2
    v_minus: Jet2
    v_plus: Jet2


def neighbors_from(jet_at: Callable[[float, float], Jet2], u: float, v: float) -> JetNeighbors:
    return JetNeighbors(jet_at(u - _STEP, v), jet_at(u + _STEP, v),
                        jet_at(u, v - _STEP), jet_at(u, v + _STEP))


def _sigma_diagonal(e1: Vec4, e2: Vec4, ff, ct) -> tuple[Vec4, Vec4]:
    """sigma(x,x) and sigma(y,y) as ambient vectors, for the principal unit
    tangents x, y, from the frame and forms of :func:`generic_at`."""
    return (e1 * ct.c11_1 + e2 * ct.c11_2) / ff.E, (e1 * ct.c22_1 + e2 * ct.c22_2) / ff.G


def _b_direction(sxx: Vec4, syy: Vec4) -> Vec4 | None:
    n = norm(sxx)
    if n > 1e-12:
        return sxx / n
    n = norm(syy)
    if n > 1e-12:
        return syy / n
    return None


def octet_generic(jet: Jet2, neighbors: JetNeighbors) -> FrenetOctet:
    """The eight invariants from jet data alone.

    beta1 and beta2 come from central finite differences of the b field
    along the coordinate directions (step ``_STEP``); everything
    else is exact in the jet.  Raises :class:`NonPrincipalParamsError` away
    from principal parameters and :class:`TotallyGeodesicError` where b is
    undefined.
    """
    e1, e2, ff, ct = generic_at(jet)
    sxx, syy = _sigma_diagonal(e1, e2, ff, ct)
    sxy = (e1 * ct.c12_1 + e2 * ct.c12_2) / (math.sqrt(ff.E) * math.sqrt(ff.G))
    if abs(ff.F) > _PRINCIPAL_TOL * max(1.0, ff.E, ff.G):
        raise NonPrincipalParamsError(f"F = {ff.F!r}: parameters are not principal")
    sf = lmn(ct, ff.W)
    if abs(sf.M) > _PRINCIPAL_TOL * max(1.0, abs(sf.L), abs(sf.N)):
        raise NonPrincipalParamsError(f"M = {sf.M!r}: parameters are not principal")

    b = _b_direction(sxx, syy)
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
        bb = _b_direction(*_sigma_diagonal(*generic_at(stencil_jet)))
        if bb is None:
            raise TotallyGeodesicError("totally geodesic stencil point")
        # keep the field continuous across the sign convention
        return bb if dot(bb, b) >= 0.0 else -bb

    beta1 = dot((b_at(neighbors.u_plus) - b_at(neighbors.u_minus)) / (2.0 * _STEP), l)
    beta2 = dot((b_at(neighbors.v_plus) - b_at(neighbors.v_minus)) / (2.0 * _STEP), l)
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
