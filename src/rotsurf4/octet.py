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
from operator import attrgetter
from typing import Callable

from ._record import Record
from .forms import _areas, _defect, _direction, _normal, _plane
from .geometry import GeometryError, Jet2, _det3s

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


class FrenetOctet(Record):
    """A value type like :class:`Vec4`."""

    __slots__ = __match_args__ = ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu", "beta1", "beta2")

    def __init__(self, gamma1: float, gamma2: float, nu1: float, nu2: float, lam: float,
                 mu: float, beta1: float, beta2: float):
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.nu1 = nu1
        self.nu2 = nu2
        self.lam = lam
        self.mu = mu
        self.beta1 = beta1
        self.beta2 = beta2


_octet_values = attrgetter(*FrenetOctet.__match_args__)
_GAUGE_FLIPPED = (False, False, True, True, True, True, False, False)  # per _octet_values


def gauge_flip(o: FrenetOctet) -> FrenetOctet:
    """The (b, l) -> (-b, -l) gauge; octets are compared up to this flip."""
    return FrenetOctet(*[-x if flip else x for x, flip in zip(_octet_values(o), _GAUGE_FLIPPED)])


def octet_generic(jet_at: Callable[[float, float], Jet2 | tuple], u: float,
                  v: float) -> FrenetOctet:
    """The eight invariants at (u, v) from the jets of the map ``jet_at`` alone.
    ``jet_at`` may return a :class:`Jet2` or the tuple form of a jet, six
    4-tuples ``(z, z_u, z_v, z_uu, z_uv, z_vv)``; each jet is read by unpacking.

    beta1 and beta2 come from central finite differences of the b field
    along the coordinate directions (step ``_STEP``); everything else is
    exact in the jet at (u, v).  The stencil jets are read first, at
    (u - _STEP, v), (u + _STEP, v), (u, v - _STEP) and (u, v + _STEP) in
    that order, and only then the jet at (u, v), so an error reading a
    stencil jet is raised before any error at the centre.  The centre and,
    in the order u + _STEP, u - _STEP, v + _STEP, v - _STEP, the stencil's
    b directions come from the frame-free kernel of :mod:`forms`; a stencil
    point builds n22 only on the sigma(y,y) fallback, where n11 gives no
    direction.  Raises :class:`NonPrincipalParamsError` away from principal
    parameters and :class:`TotallyGeodesicError` where b is undefined.
    """
    u_minus, u_plus, v_minus, v_plus = (jet_at(u - _STEP, v), jet_at(u + _STEP, v),
                                        jet_at(u, v - _STEP), jet_at(u, v + _STEP))
    z, zu, zv, zuu, zuv, zvv = jet_at(u, v)
    plane = _plane(zu, zv)
    (a1, a2, a3, a4), (c1, c2, c3, c4), ee, ff, gg, _ = plane
    n11, n12, n22 = _normal(plane, zuu), _normal(plane, zuv), _normal(plane, zvv)
    defect = _defect(ee, ff, gg, *_areas(plane, n11, n12, n22))
    if defect is not None:
        raise NonPrincipalParamsError(f"{defect}: parameters are not principal")

    b = _direction(zuu, zvv, plane, n11)
    if b is None:
        raise TotallyGeodesicError(f"totally geodesic point at z={tuple(z)!r}: b is undefined")
    b1, b2, b3, b4 = b
    se, sg = math.sqrt(ee), math.sqrt(gg)
    x1, x2, x3, x4 = x = a1 / se, a2 / se, a3 / se, a4 / se
    y1, y2, y3, y4 = y = c1 / sg, c2 / sg, c3 / sg, c4 / sg
    l1, l2, l3, l4 = _det3s(x, y, b)  # l = (-l1, l2, -l3, l4): <l, w> = det4(x, y, b, w)
    size = math.sqrt(l1 * l1 + l2 * l2 + l3 * l3 + l4 * l4)
    l1, l2, l3, l4 = -l1 / size, l2 / size, -l3 / size, l4 / size

    (p1, p2, p3, p4), (q1, q2, q3, q4) = zuu, zvv
    gamma1 = (p1 * y1 + p2 * y2 + p3 * y3 + p4 * y4) / ee
    gamma2 = (q1 * x1 + q2 * x2 + q3 * x3 + q4 * x4) / gg
    (p1, p2, p3, p4), (q1, q2, q3, q4) = n11, n22
    nu1 = p1 / ee * b1 + p2 / ee * b2 + p3 / ee * b3 + p4 / ee * b4
    nu2 = q1 / gg * b1 + q2 / gg * b2 + q3 / gg * b3 + q4 / gg * b4
    s = se * sg
    m1, m2, m3, m4 = n12[0] / s, n12[1] / s, n12[2] / s, n12[3] / s  # sigma(x,y)
    lam = m1 * b1 + m2 * b2 + m3 * b3 + m4 * b4
    mu = m1 * l1 + m2 * l2 + m3 * l3 + m4 * l4

    def b_at(stencil_jet) -> tuple[float, ...]:
        _, szu, szv, szuu, _, szvv = stencil_jet
        splane = _plane(szu, szv)
        bb = _direction(szuu, szvv, splane, _normal(splane, szuu))
        if bb is None:
            raise TotallyGeodesicError("totally geodesic stencil point")
        e1, e2, e3, e4 = bb
        # keep the field continuous across the sign convention
        return bb if e1 * b1 + e2 * b2 + e3 * b3 + e4 * b4 >= 0.0 else (-e1, -e2, -e3, -e4)

    def beta(plus, minus) -> float:
        """<(b(plus) - b(minus)) / (2 _STEP), l>."""
        (p1, p2, p3, p4), (m1, m2, m3, m4) = b_at(plus), b_at(minus)
        h = 2.0 * _STEP
        return (p1 - m1) / h * l1 + (p2 - m2) / h * l2 + (p3 - m3) / h * l3 + (p4 - m4) / h * l4

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
