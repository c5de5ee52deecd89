import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import curve_frenet_oracle, frames_at, rel_dev, vline_curvatures, vline_derivatives
from rotsurf4.expr import EvalDomainError, Profile
from rotsurf4.geometry import GeometryError, RegularityError, Vec4, fd_jet2
from rotsurf4.octet import invariants_from_octet
from rotsurf4.rotational import (ClosedFormRangeError, RotationalSurface, closed_forms_at,
                                 closed_invariants_at, closed_octet_at)

SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# construction

def test_surface_rejects_equal_speeds():
    f, g = Profile.from_text("u"), Profile.from_text("u^2")
    with pytest.raises(ValueError):
        RotationalSurface(f, g, 1.0, 1.0)


def test_surface_rejects_nonpositive_speeds():
    f, g = Profile.from_text("u"), Profile.from_text("u^2")
    with pytest.raises(ValueError):
        RotationalSurface(f, g, 0.0, 1.0)
    with pytest.raises(ValueError):
        RotationalSurface(f, g, 1.0, -2.0)


@pytest.mark.parametrize("alpha, beta, name", [
    (math.nan, 2.0, "alpha"), (math.inf, 2.0, "alpha"), (-math.inf, 2.0, "alpha"),
    (1.0, math.nan, "beta"), (1.0, math.inf, "beta"),
])
def test_surface_rejects_non_finite_speeds_by_name(alpha, beta, name):
    f, g = Profile.from_text("u"), Profile.from_text("u^2")
    with pytest.raises(ValueError, match=f"rotation speed {name} must be finite"):
        RotationalSurface(f, g, alpha, beta)


# ---------------------------------------------------------------------------
# meridian jets over a grid

def _first_failure(jets, us):
    """The jets up to the first error, and (index, type, text) of that error."""
    out = []
    try:
        for _ in us:
            out.append(next(jets))
    except (EvalDomainError, GeometryError) as exc:
        return out, (len(out), type(exc), str(exc))
    return out, None


@pytest.mark.parametrize("f, g, us, on_grid, failure", [
    ("u", "sin(u)*exp(-u^2)+sqrt(u)", [0.25, 1.0, 3.0], True, None),
    # regularity errors on the grid path, raised when their u is reached
    ("u", "u^2", [-1.0, 0.0, 1.0], True, (1, RegularityError, "rotation radii vanish at u=0.0")),
    ("1", "u-u", [0.0, 1.0], True, (0, RegularityError, "meridian speed vanishes at u=0.0")),
    # a regularity failure before a profile error: the profile miss sends
    # every point to meridian_jet, which meets the radii first
    ("u", "u/(u-1)", [0.0, 0.5, 1.0], False,
     (0, RegularityError, "rotation radii vanish at u=0.0")),
    # a profile error before a regularity failure
    ("u-1", "(u-1)*log(u)", [0.0, 0.5, 1.0], False, (0, EvalDomainError, "log")),
    ("u", "log(u)", [1.0, 0.5, -1.0], False, (2, EvalDomainError, "log")),
])
def test_meridian_jets_equal_meridian_jet_in_u_order(f, g, us, on_grid, failure):
    s = RotationalSurface(Profile.from_text(f), Profile.from_text(g), 1.0, 2.0)
    assert (s.f.grid(us) is not None and s.g.grid(us) is not None) == on_grid
    want = _first_failure(map(s.meridian_jet, us), us)
    got = _first_failure(s.meridian_jets(us), us)
    assert [[x.hex() for x in jet] for jet in got[0]] == [[x.hex() for x in jet]
                                                           for jet in want[0]]
    assert got[1] == want[1]
    if failure is None:
        assert got[1] is None
    else:
        index, kind, text = failure
        assert got[1][:2] == (index, kind) and text in got[1][2]


# ---------------------------------------------------------------------------
# closed forms

def test_closed_forms_running_example(parabola):
    ff, sf = closed_forms_at(parabola, 1.0)
    assert (ff.E, ff.F, ff.G) == (5.0, 0.0, 5.0)
    assert sf.L == pytest.approx(8 / 25, rel=1e-14)
    assert sf.M == 0.0
    assert sf.N == pytest.approx(8 / 25, rel=1e-14)


def test_closed_forms_flat_for_linear_meridian(linear):
    for u in (0.5, 1.0, 2.0):
        _, sf = closed_forms_at(linear, u)
        assert sf.L == 0.0 and sf.N == 0.0


def test_closed_forms_have_no_v_argument(parabola):
    import inspect
    for fn in (closed_forms_at, closed_invariants_at, closed_octet_at):
        assert "v" not in inspect.signature(fn).parameters


def test_closed_forms_regularity_error():
    s = RotationalSurface(Profile.from_text("u^2"), Profile.from_text("u^3"), 1.0, 2.0)
    with pytest.raises(RegularityError):
        closed_forms_at(s, 0.0)  # f' = g' = 0 there


def test_closed_forms_check_only_the_values_they_return():
    # g f' - f g' = 0 at u = 0, so L = N = 0, while (g' f'' - f' g'') / sqrt(E),
    # a tensor component that the forms no longer return, is 1.3e308 / sqrt(0.5) = inf
    s = RotationalSurface(Profile.from_text("0.5-0.5*u+0.65e308*u^2"),
                          Profile.from_text("-0.5+0.5*u+0.65e308*u^2"), 1.0, 1.0000001)
    ff, sf = closed_forms_at(s, 0.0)
    assert (ff.E, sf.L, sf.N) == (0.5, 0.0, 0.0)
    with pytest.raises(ClosedFormRangeError, match="non-finite result"):
        closed_octet_at(s, 0.0)  # nu1 = (g' f'' - f' g'') / E^(3/2)


@pytest.mark.parametrize("f, g", [("1e-120*u", "1e-120*u^2"), ("1e200*u", "u^2")])
def test_closed_forms_out_of_range_raise_with_u(f, g):
    s = RotationalSurface(Profile.from_text(f), Profile.from_text(g), 1.0, 2.0)
    for fn in (closed_forms_at, closed_invariants_at, closed_octet_at):
        with pytest.raises(ClosedFormRangeError) as err:
            fn(s, 1.0)
        assert err.value.u == 1.0 and "u=1.0" in str(err.value)


# ---------------------------------------------------------------------------
# closed invariants

def test_closed_invariants_power_overflow_raises_with_u():
    # G^3 overflows, which float ** reports as OverflowError, not inf
    s = RotationalSurface(Profile.from_text("1e110*u"), Profile.from_text("u^2"), 1.0, 2.0)
    with pytest.raises(ClosedFormRangeError) as err:
        closed_invariants_at(s, 1.0)
    assert err.value.u == 1.0 and "non-finite result" in str(err.value)


def test_closed_invariants_running_example(parabola):
    k, kappa, gauss = closed_invariants_at(parabola, 1.0)
    assert k == pytest.approx(64 / 15625, rel=1e-14)
    assert kappa == pytest.approx(8 / 125, rel=1e-14)
    assert gauss == pytest.approx(-8 / 125, rel=1e-14)


def test_closed_invariants_flat_family(linear):
    for u in (0.5, 1.0, 2.0):
        assert closed_invariants_at(linear, u) == (0.0, 0.0, 0.0)


def test_closed_invariants_swapped_speeds():
    s = RotationalSurface(Profile.from_text("u"), Profile.from_text("u^2"), 2.0, 1.0)
    k, _, _ = closed_invariants_at(s, 1.0)
    assert k == pytest.approx(-224 / 15625, rel=1e-14)


# ---------------------------------------------------------------------------
# closed octet

def test_closed_octet_running_example(parabola):
    o = closed_octet_at(parabola, 1.0)
    assert o.gamma1 == 0.0 and o.lam == 0.0 and o.beta1 == 0.0
    assert o.gamma2 == pytest.approx(-9 / (5 * SQRT5), rel=1e-14)
    assert o.nu1 == pytest.approx(-2 / (5 * SQRT5), rel=1e-14)
    assert o.nu2 == pytest.approx(2 / (5 * SQRT5), rel=1e-14)
    assert o.mu == pytest.approx(-2 / (5 * SQRT5), rel=1e-14)
    assert o.beta2 == pytest.approx(6 / 5, rel=1e-14)


def test_closed_octet_reproduces_closed_invariants(parabola, cubic):
    for s in (parabola, cubic):
        for u in (0.5, 1.0, 1.8):
            from_octet = invariants_from_octet(closed_octet_at(s, u))
            closed = closed_invariants_at(s, u)
            for a, b in zip(from_octet, closed):
                assert abs(a - b) <= 1e-14 * max(1.0, abs(a), abs(b))


def test_closed_octet_linear_meridian(linear):
    o = closed_octet_at(linear, 1.0)
    assert o.nu1 == 0.0 and o.mu == 0.0
    k, kappa, _ = invariants_from_octet(o)
    assert k == 0.0 and kappa == 0.0


# ---------------------------------------------------------------------------
# canonical frames

def test_frames_are_positively_oriented_orthonormal(parabola):
    from rotsurf4.geometry import det4, dot, norm
    for (u, v) in ((1.0, 0.0), (0.7, 2.2)):
        x, y, n1, n2 = frames_at(parabola, u, v)
        for w in (x, y, n1, n2):
            assert abs(norm(w) - 1.0) <= 1e-14
        pairs = ((x, y), (x, n1), (x, n2), (y, n1), (y, n2), (n1, n2))
        assert max(abs(dot(a, b)) for a, b in pairs) <= 1e-14
        assert det4(x, y, n1, n2) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# v-line curvatures

def test_vline_curvatures_example():
    cc = vline_curvatures(1.0, 1.0, 1.0, 2.0)
    assert cc.kappa == pytest.approx(math.sqrt(17 / 5), rel=1e-14)
    assert cc.tau == pytest.approx(-6 / math.sqrt(85), rel=1e-14)
    assert cc.sigma3 == pytest.approx(2 * math.sqrt(5) / math.sqrt(17), rel=1e-14)


def test_vline_equal_speeds_give_zero_torsion():
    # excluded from the surface family, checked for the formula in isolation
    assert vline_curvatures(1.0, 1.0, 2.0, 2.0).tau == 0.0


def test_vline_one_radius_zero():
    cc = vline_curvatures(0.0, 1.0, 1.0, 2.0)
    assert cc.kappa == pytest.approx(2.0, rel=1e-14)   # beta
    assert cc.tau == 0.0
    assert cc.sigma3 == pytest.approx(1.0, rel=1e-14)  # alpha


def test_vline_degenerate_rejected():
    with pytest.raises(RegularityError):
        vline_curvatures(0.0, 0.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# Frenet oracle

def test_oracle_reproduces_vline_formulas():
    cc = curve_frenet_oracle(*vline_derivatives(1.0, 1.0, 1.0, 2.0, 0.0))
    formula = vline_curvatures(1.0, 1.0, 1.0, 2.0)
    assert abs(cc.kappa - formula.kappa) <= 1e-9
    assert abs(cc.tau - abs(formula.tau)) <= 1e-9
    assert abs(cc.sigma3 - abs(formula.sigma3)) <= 1e-9


def test_oracle_matches_formulas_for_general_radii():
    for (a, b, al, be) in ((1.0, 2.0, 1.0, 3.0), (0.5, 1.5, 2.0, 1.0), (2.0, 0.7, 3.0, 2.0)):
        cc = curve_frenet_oracle(*vline_derivatives(a, b, al, be, 0.3))
        formula = vline_curvatures(a, b, al, be)
        assert rel_dev(cc.kappa, formula.kappa) <= 1e-12
        assert rel_dev(cc.tau, abs(formula.tau)) <= 1e-12
        assert rel_dev(cc.sigma3, abs(formula.sigma3)) <= 1e-12


def test_oracle_planar_circle():
    derivs = vline_derivatives(1.0, 0.0, 1.0, 2.0, 0.0)
    cc = curve_frenet_oracle(*derivs)
    assert cc.kappa == pytest.approx(1.0, rel=1e-12)
    assert cc.tau == 0.0
    assert cc.sigma3 == 0.0


def test_oracle_curvatures_constant_along_vline():
    values = []
    for j in range(10):
        v = 2.0 * math.pi * j / 10
        cc = curve_frenet_oracle(*vline_derivatives(1.0, 1.0, 1.0, 2.0, v))
        values.append((cc.kappa, cc.tau, cc.sigma3))
    for idx in range(3):
        spread = max(v[idx] for v in values) - min(v[idx] for v in values)
        assert spread <= 1e-10


# meridians regular on u in [0.3, 2.5], with f and g of either sign there
_LAW_MERIDIANS = (("u", "u^2"), ("u", "u^3"), ("u", "sin(u)*exp(-u^2)+sqrt(u)"),
                  ("cos(u)+2", "u^2+1"), ("exp(u)", "exp(2*u)"), ("u-1.5", "2-u^2"))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(_LAW_MERIDIANS), st.floats(min_value=0.3, max_value=2.5),
       st.floats(min_value=0.25, max_value=4.0), st.floats(min_value=0.25, max_value=4.0))
def test_vline_curvature_law_ties_vlines_to_the_octet(meridian, u, alpha, beta):
    # with q4 = al^4 f^2 + be^4 g^2, the octet's numerators satisfy
    # (al^2 f f' + be^2 g g')^2 + (be^2 g f' - al^2 f g')^2 = E q4, so
    # sqrt(G) hypot(gamma2, nu2) = sqrt(q4 / G), the v-line's kappa.  Bound:
    # the four products in those numerators have squares summing to E q4, so
    # their rounding moves the hypot by at most about 10 eps relative, however
    # much nu2 cancels; E, G, q4 and the roots and quotients add about 10 eps
    # more to first order.  The law held to 2.6 eps on 1 800 random points.
    assume(alpha != beta)
    s = RotationalSurface(Profile.from_text(meridian[0]), Profile.from_text(meridian[1]),
                          alpha, beta)
    f, _, _, g, _, _, _, gg = s.meridian_jet(u)
    o = closed_octet_at(s, u)
    kappa = vline_curvatures(f, g, alpha, beta).kappa
    assert abs(math.sqrt(gg) * math.hypot(o.gamma2, o.nu2) - kappa) <= (
        32.0 * sys.float_info.epsilon * kappa)


# ---------------------------------------------------------------------------
# pipeline equivalence samples (the full sweep runs in the acceptance suite)

def test_pipeline_equivalence_spot_check(parabola):
    from rotsurf4.forms import first_form, lmn, second_tensor
    from rotsurf4.geometry import gram_schmidt_normals
    amap = parabola.as_map()
    u, v = 1.2, 0.4
    jet = fd_jet2(amap, u, v)
    ff = first_form(jet)
    e1, e2 = gram_schmidt_normals(jet)
    sf = lmn(second_tensor(jet, e1, e2), ff.W)
    ffc, sfc = closed_forms_at(parabola, u)
    assert rel_dev(ff.E, ffc.E) <= 1e-6
    assert rel_dev(ff.G, ffc.G) <= 1e-6
    assert rel_dev(sf.L, sfc.L) <= 1e-6
    assert rel_dev(sf.N, sfc.N) <= 1e-6


def test_ambient_mirror_flips_kappa_spot_check(parabola):
    from rotsurf4.forms import (first_form, gauss_curvature, invariants, lmn,
                                second_tensor)
    from rotsurf4.geometry import gram_schmidt_normals

    amap = parabola.as_map()

    def mirrored(u, v):
        p = amap(u, v)
        return Vec4(p.x1, p.x2, p.x3, -p.x4)

    def record(m, u, v):
        jet = fd_jet2(m, u, v)
        ff = first_form(jet)
        e1, e2 = gram_schmidt_normals(jet)
        ct = second_tensor(jet, e1, e2)
        return invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct))

    a = record(amap, 1.0, 0.3)
    b = record(mirrored, 1.0, 0.3)
    assert abs(a.kappa + b.kappa) <= 1e-9
    assert abs(a.k - b.k) <= 1e-9
    assert abs(a.K - b.K) <= 1e-9
