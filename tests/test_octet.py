import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import octet_dev, octet_tuple, reference_octet_generic, rel_dev
from rotsurf4.geometry import (DegenerateMetricError, Jet2, RegularityError, Vec4,
                               analytic_jet2)
from rotsurf4.octet import (_STEP, FrenetOctet, NonPrincipalParamsError,
                            TotallyGeodesicError, gauge_flip,
                            invariants_from_octet, octet_generic)
from rotsurf4.rotational import closed_octet_at

SQRT5 = math.sqrt(5.0)


_STRAIGHT_MERIDIAN_CASES = [
    # straight meridians, so sigma(x,x) = 0, at a meridian speed |f'| of
    # about 0.01 and 0.0004: the rounding of n11 divided by E exceeds 1e-12,
    # and b must still come from sigma(y,y)
    ("sin(u)", "sin(-(1e200))", 1.8279756397734301, 2.717657573017669,
     4.698009323661253, 0.16666666666666669),
    ("exp(-(exp(u)))", "-(0.5)", 0.8153136288557405, 4.371767330045304,
     2.976032034303733, 3.1426987009704),
]


def _octet_at(surface, u, v):
    return octet_generic(lambda uu, vv: analytic_jet2(surface, uu, vv), u, v)


def test_octet_generic_running_example(parabola):
    o = _octet_at(parabola, 1.0, 0.0)
    expected = FrenetOctet(0.0, -9 / (5 * SQRT5), -2 / (5 * SQRT5), 2 / (5 * SQRT5),
                           0.0, -2 / (5 * SQRT5), 0.0, 6 / 5)
    assert octet_dev(o, expected) <= 1e-8


def test_octet_generic_agrees_with_closed_form_on_grid(parabola):
    for u in (0.5, 0.9, 1.4, 2.0):
        for v in (0.0, 2.1):
            assert octet_dev(_octet_at(parabola, u, v),
                             closed_octet_at(parabola, u)) <= 1e-5


@pytest.mark.parametrize("f_text, g_text, alpha, beta, u, v", _STRAIGHT_MERIDIAN_CASES)
def test_octet_generic_straight_meridian_takes_b_from_sigma_yy(f_text, g_text, alpha, beta,
                                                             u, v):
    from conftest import make_surface
    s = make_surface(f_text, g_text, alpha, beta)
    assert closed_octet_at(s, u).nu1 == 0.0
    assert octet_dev(_octet_at(s, u, v), closed_octet_at(s, u)) <= 1e-6  # beta2: O(h^2)


# curved meridians, straight ones (b from sigma(y,y) on the whole stencil)
# and ones that raise somewhere in the drawn range
_OCTET_MERIDIANS = (("u", "u^2"), ("u", "u^3"), ("u", "2*u"), ("cos(u)+2", "u^2+1"),
                    ("u", "sin(u)*exp(-u^2)+sqrt(u)"), ("3*u - 1", "0.5"), ("log(u)", "u"),
                    ("u", "0*u"))
# the straight-meridian cases as (meridian, alpha, beta, u, v)
_STRAIGHT_EXAMPLES = [(case[:2], *case[2:]) for case in _STRAIGHT_MERIDIAN_CASES]


def _outcome(octet_at, surface, u, v):
    """The octet's components as hex, or the class and message of its error."""
    try:
        o = octet_at(lambda uu, vv: analytic_jet2(surface, uu, vv), u, v)
    except Exception as error:
        return type(error), str(error)
    return [x.hex() for x in octet_tuple(o)]


@settings(max_examples=300, derandomize=True)
@given(st.sampled_from(_OCTET_MERIDIANS), st.floats(min_value=0.25, max_value=4.0),
       st.floats(min_value=0.25, max_value=4.0), st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-7.0, max_value=7.0))
@example(*_STRAIGHT_EXAMPLES[0])
@example(*_STRAIGHT_EXAMPLES[1])
def test_lazy_normal_part_is_the_eager_octet(meridian, alpha, beta, u, v):
    # the stencil builds n22 only where n11 gives no direction: every octet,
    # and every error, is the one that the eager stencil gives, to the bit
    assume(alpha != beta)
    from conftest import make_surface
    s = make_surface(*meridian, alpha, beta)
    assert _outcome(octet_generic, s, u, v) == _outcome(reference_octet_generic, s, u, v)


PLANE = Jet2(Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 0), Vec4(0, 1, 0, 0),
             Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))


def test_octet_plane_is_totally_geodesic():
    with pytest.raises(TotallyGeodesicError):
        octet_generic(lambda u, v: PLANE, 0.0, 0.0)


def test_octet_stencil_error_beats_totally_geodesic_centre():
    # the stencil jets are read before the centre is examined, so an error
    # reading one is raised even where the centre has no b direction
    def jet_at(u, v):
        if u == 1.0 + _STEP:
            raise RegularityError("no jet at the stencil point")
        return PLANE

    with pytest.raises(RegularityError, match="no jet at the stencil point"):
        octet_generic(jet_at, 1.0, 0.0)


def test_octet_rejects_non_principal_parameters():
    # shear the tangent frame of a plane so F != 0 while keeping curvature
    jet = Jet2(Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 0), Vec4(1, 1, 0, 0),
               Vec4(0, 0, 1, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 1, 0))

    with pytest.raises(NonPrincipalParamsError):
        octet_generic(lambda u, v: jet, 0.0, 0.0)


def test_lambda_and_beta1_vanish_on_family(parabola, cubic):
    for s in (parabola, cubic):
        for u in (0.6, 1.0, 1.7):
            o = _octet_at(s, u, 0.0)
            assert abs(o.lam) <= 1e-10
            assert abs(o.beta1) <= 1e-8


def test_fallback_normal_when_meridian_is_straight(linear):
    # g' f'' - f' g'' vanishes identically, so b comes from sigma(y, y)
    o = _octet_at(linear, 1.0, 0.0)
    oc = closed_octet_at(linear, 1.0)
    assert abs(oc.nu1) == 0.0 and abs(oc.mu) == 0.0
    assert octet_dev(o, oc) <= 1e-6


# ---------------------------------------------------------------------------
# invariants from the octet

def test_invariants_from_octet_running_example(parabola):
    k, kappa, gauss = invariants_from_octet(closed_octet_at(parabola, 1.0))
    assert k == pytest.approx(64 / 15625, rel=1e-14)
    assert kappa == pytest.approx(8 / 125, rel=1e-14)
    assert gauss == pytest.approx(-8 / 125, rel=1e-14)


def test_invariants_from_zero_octet():
    assert invariants_from_octet(FrenetOctet(0, 0, 0, 0, 0, 0, 0, 0)) == (0.0, 0.0, 0.0)


def test_generic_octet_relations_match_forms_pipeline_on_grid(parabola):
    # compose the generic octet with the invariant combinations and compare
    # against the forms pipeline, over a 20 x 20 grid
    from rotsurf4.forms import (first_form, gauss_curvature, invariants, lmn,
                                second_tensor)
    from rotsurf4.geometry import gram_schmidt_normals

    def jet_at(uu, vv):
        return analytic_jet2(parabola, uu, vv)

    us = [0.5 + 1.5 * i / 19 for i in range(20)]
    vs = [2.0 * math.pi * j / 20 for j in range(20)]
    worst = 0.0
    for u in us:
        for v in vs:
            k_o, x_o, g_o = invariants_from_octet(octet_generic(jet_at, u, v))
            jet = jet_at(u, v)
            ff = first_form(jet)
            e1, e2 = gram_schmidt_normals(jet)
            ct = second_tensor(jet, e1, e2)
            rec = invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct))
            worst = max(worst, rel_dev(k_o, rec.k), rel_dev(x_o, rec.kappa),
                        rel_dev(g_o, rec.K))
    assert worst <= 1e-8


octet_floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@given(octet_floats, octet_floats, octet_floats, octet_floats,
       octet_floats, octet_floats, octet_floats, octet_floats)
def test_gauge_flip_leaves_invariants_fixed(g1, g2, n1, n2, la, mu, b1, b2):
    o = FrenetOctet(g1, g2, n1, n2, la, mu, b1, b2)
    a = invariants_from_octet(o)
    b = invariants_from_octet(gauge_flip(o))
    for x, y in zip(a, b):
        assert abs(x - y) <= 1e-15 * max(1.0, abs(x))


def test_gauge_flip_is_involution():
    o = FrenetOctet(0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8)
    assert gauge_flip(gauge_flip(o)) == o


def test_octet_generic_degenerate_jet_raises_frame_message(parabola):
    z = Vec4(0, 0, 0, 0)
    jet = Jet2(z, Vec4(1, 0, 0, 0), Vec4(2, 0, 0, 0), z, z, z)

    def jet_at(u, v):  # the degenerate jet at (1, 0) only
        return jet if (u, v) == (1.0, 0.0) else analytic_jet2(parabola, u, v)

    with pytest.raises(DegenerateMetricError, match="tangent plane degenerate"):
        octet_generic(jet_at, 1.0, 0.0)


def test_gauge_flip_negates_nu1_nu2_lambda_mu_only():
    o = gauge_flip(FrenetOctet(0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.0, -0.8))
    assert octet_tuple(o) == (0.1, -0.2, -0.3, 0.4, -0.5, 0.6, 0.0, -0.8)
    assert math.copysign(1.0, o.beta1) == 1.0
