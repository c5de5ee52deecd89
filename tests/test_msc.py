import math
import random

import pytest

from rotsurf4.expr import Binary, Constant, Profile, Variable
from rotsurf4.forms import (ellipse_samples, first_form, gauss_curvature, invariants,
                            is_circle, lmn, second_tensor, superconformal_verdict)
from rotsurf4.geometry import analytic_jet2, gram_schmidt_normals, norm
from rotsurf4.msc import (MscParams, identity_profile, msc_invariants,
                          msc_profile, msc_profile_text, msc_residual,
                          msc_surface, power_law_invariants,
                          scaled_msc_residual)
from rotsurf4.rotational import (ClosedFormRangeError, RotationalSurface,
                                 closed_octet_at)


def _record(surface, u):
    jet = analytic_jet2(surface, u, 0.0)
    ff = first_form(jet)
    e1, e2 = gram_schmidt_normals(jet)
    ct = second_tensor(jet, e1, e2)
    return invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct))


# ---------------------------------------------------------------------------
# params

def test_params_validation():
    with pytest.raises(ValueError):
        MscParams(1.0, 1.0, 1.0, 1)
    with pytest.raises(ValueError):
        MscParams(1.0, -1.0, 2.0, 1)
    with pytest.raises(ValueError):
        MscParams(1.0, 1.0, 2.0, 0)


@pytest.mark.parametrize("c, alpha, beta, name", [
    (1.0, math.nan, 2.0, "alpha"), (1.0, math.inf, 2.0, "alpha"),
    (1.0, 1.0, math.nan, "beta"), (1.0, 1.0, -math.inf, "beta"),
    (math.nan, 1.0, 2.0, "constant c"), (-math.inf, 1.0, 2.0, "constant c"),
])
def test_params_reject_non_finite_values_by_name(c, alpha, beta, name):
    with pytest.raises(ValueError, match=name):
        MscParams(c, alpha, beta, 1)


def test_params_exponent():
    assert MscParams(1.0, 1.0, 2.0, 1).p == 2.0
    assert MscParams(2.0, 2.0, 1.0, -1).p == -0.5


# ---------------------------------------------------------------------------
# residual

def test_residual_vanishes_for_square_profile(parabola):
    for u in (0.5, 1.0, 2.0):
        assert msc_residual(parabola, u, 1) == 0.0


def test_residual_cubic_value(cubic):
    assert msc_residual(cubic, 1.0, 1) == -3.0


def test_residual_of_reparametrized_member():
    # (2u, u^2) is the member (t, t^2/4) in the chart t = 2u
    s = RotationalSurface(Profile.from_text("2*u"), Profile.from_text("u^2"), 1.0, 2.0)
    assert msc_residual(s, 1.0, 1) == 0.0


def test_residual_rejects_bad_branch_sign(parabola):
    with pytest.raises(ValueError):
        msc_residual(parabola, 1.0, 0)


def test_residual_vanishes_for_random_power_laws():
    rng = random.Random(99)
    speeds = [(a, b) for a in (1.0, 2.0, 3.0) for b in (1.0, 2.0, 3.0) if a != b]
    for _ in range(12):
        c = rng.uniform(0.5, 2.0)
        alpha, beta = rng.choice(speeds)
        eps = rng.choice((1, -1))
        params = MscParams(c, alpha, beta, eps)
        surface = msc_surface(params)
        for i in range(10):
            u = 0.25 + 3.75 * i / 9
            scale = 1.0 + abs(u) ** (abs(params.p) + 1.0)
            assert abs(msc_residual(surface, u, eps)) <= 1e-12 * scale


def _scaled_residual_reference(s, u):
    """The membership deviation written out: residual over both branch
    signs, each divided by the scale of the equation's two sides."""
    best = None
    for eps in (1, -1):
        r = msc_residual(s, u, eps)
        g, g1 = s.g.value(u), s.g.deriv1(u)
        a, b = s.alpha, s.beta
        scale = max(abs(a * b * (g - u * g1)), abs(a * a * u * g1 - b * b * g))
        d = abs(r) / scale
        best = d if best is None else min(best, d)
    return best


@pytest.mark.parametrize("g_text, alpha, beta", [
    ("u^2", 1.0, 2.0), ("2.5*u^(-1.5)", 2.0, 3.0), ("u^3", 1.0, 2.0),
    ("sin(u)*exp(-u^2)+sqrt(u)", 1.0, 2.0), ("1e6*u^0.5", 2.0, 1.0)])
def test_scaled_residual_matches_reference(g_text, alpha, beta):
    s = RotationalSurface(identity_profile(), Profile.from_text(g_text), alpha, beta)
    for u in (0.25, 0.7, 1.0, 1.9, 4.0):
        assert scaled_msc_residual(s, u).hex() == _scaled_residual_reference(s, u).hex()


def test_scaled_residual_of_reparametrized_member():
    s = RotationalSurface(Profile.from_text("2*u"), Profile.from_text("u^2"), 1.0, 2.0)
    assert scaled_msc_residual(s, 1.0) == 0.0


def test_scaled_residual_flat_branch_is_zero():
    # g = 0 makes both sides 0; the flat branch reads as a member
    s = RotationalSurface(Profile.from_text("u"), Profile.from_text("0*u"), 1.0, 2.0)
    assert scaled_msc_residual(s, 1.5) == 0.0


def test_scaled_residual_is_scale_free_for_slow_charts():
    # the cubic is no member however small u is (both sides shrink like u^3)
    s = RotationalSurface(Profile.from_text("u"), Profile.from_text("u^3"), 1.0, 2.0)
    for u in (1e-5, 0.5, 2.0):
        assert scaled_msc_residual(s, u) == pytest.approx(0.75, rel=1e-15)


@pytest.mark.parametrize("g_text, alpha, beta", [("u^2", 1e200, 2e200), ("1e300*u^2", 1.0, 1e10)])
def test_residuals_out_of_range_name_u(g_text, alpha, beta):
    s = RotationalSurface(identity_profile(), Profile.from_text(g_text), alpha, beta)
    with pytest.raises(ClosedFormRangeError, match=r"u=1\.5"):
        scaled_msc_residual(s, 1.5)
    with pytest.raises(ClosedFormRangeError, match=r"u=1\.5"):
        msc_residual(s, 1.5, 1)


def test_residual_overflowing_difference_names_u():
    # finite sides of opposite sign to the branch: their difference overflows
    s = RotationalSurface(identity_profile(), Profile.from_text("5e306*u^3"), 1.0, 2.0)
    assert msc_residual(s, 2.0, 1) == pytest.approx(-1.2e308, rel=1e-15)
    with pytest.raises(ClosedFormRangeError, match=r"u=2\.0"):
        msc_residual(s, 2.0, -1)


# ---------------------------------------------------------------------------
# (nu1, nu2, mu) of f = u meridians, through closed_octet_at

def test_reduced_invariants_square_profile(parabola):
    o = closed_octet_at(parabola, 1.0)
    nu1, nu2, mu = o.nu1, o.nu2, o.mu
    assert nu1 == pytest.approx(-2 / 5 ** 1.5, rel=1e-14)
    assert nu2 == pytest.approx(2 / 5 ** 1.5, rel=1e-14)
    assert mu == pytest.approx(-2 / 5 ** 1.5, rel=1e-14)


def test_reduced_invariants_linear_profile(linear):
    assert closed_octet_at(linear, 1.0).nu1 == 0.0


def _reduced_invariants(s, u):
    """(nu1, nu2, mu) written out for f(u) = u:

        nu1 = -g'' / (1 + g'^2)^(3/2)
        nu2 = (b^2 g - a^2 u g') / (sqrt(1 + g'^2) (a^2 u^2 + b^2 g^2))
        mu  = a b (g - u g') / (sqrt(1 + g'^2) (a^2 u^2 + b^2 g^2))
    """
    g, g1, g2 = s.g.value(u), s.g.deriv1(u), s.g.deriv2(u)
    a, b = s.alpha, s.beta
    ee = 1.0 + g1 * g1
    gg = a * a * u * u + b * b * g * g
    sqrt_e = math.sqrt(ee)
    return (-g2 / (ee * sqrt_e), (b * b * g - a * a * u * g1) / (sqrt_e * gg),
            a * b * (g - u * g1) / (sqrt_e * gg))


def test_reduced_invariants_match_closed_octet(parabola, cubic):
    for s in (parabola, cubic):
        for u in (0.5, 1.0, 1.7):
            nu1, nu2, mu = _reduced_invariants(s, u)
            o = closed_octet_at(s, u)
            assert abs(nu1 - o.nu1) <= 1e-14 * max(1.0, abs(nu1))
            assert abs(nu2 - o.nu2) <= 1e-14 * max(1.0, abs(nu2))
            assert abs(mu - o.mu) <= 1e-14 * max(1.0, abs(mu))


# ---------------------------------------------------------------------------
# profile generation

def test_msc_profile_square():
    profile = msc_profile(MscParams(1.0, 1.0, 2.0, 1))
    assert profile.expr == Binary("*", Constant(1.0),
                                  Binary("^", Variable(), Constant(2.0)))
    assert msc_profile_text(MscParams(1.0, 1.0, 2.0, 1)) == "1*u^2"


def test_msc_profile_negative_branch():
    params = MscParams(2.0, 2.0, 1.0, -1)
    assert msc_profile_text(params) == "2*u^-0.5"
    profile = msc_profile(params)
    assert profile.value(4.0) == 1.0


def test_msc_profile_solves_the_equation():
    params = MscParams(1.3, 3.0, 2.0, 1)
    surface = msc_surface(params)
    for i in range(10):
        u = 0.25 + 3.75 * i / 9
        scale = 1.0 + abs(u) ** (abs(params.p) + 1.0)
        assert abs(msc_residual(surface, u, 1)) <= 1e-12 * scale


def test_msc_profile_flags_degenerate_constant():
    with pytest.warns(UserWarning):
        msc_profile(MscParams(0.0, 1.0, 2.0, 1))


def test_identity_profile_is_exact():
    p = identity_profile()
    assert p.value(1.7) == 1.7
    assert p.deriv1(1.7) == 1.0
    assert p.deriv2(1.7) == 0.0


# ---------------------------------------------------------------------------
# surface generation

def test_msc_surface_is_minimal_superconformal_everywhere():
    surface = msc_surface(MscParams(1.0, 1.0, 2.0, 1))
    for i in range(10):
        u = 0.5 + 1.5 * i / 9
        rec = _record(surface, u)
        assert superconformal_verdict(rec.k, rec.kappa, rec.K, 1e-10) == (True, True)


def test_msc_surface_negative_branch_is_member():
    params = MscParams(1.5, 2.0, 3.0, -1)
    surface = msc_surface(params)
    assert surface.g.deriv1(1.0) < 0.0  # decreasing profile
    for u in (0.5, 1.0, 2.0):
        rec = _record(surface, u)
        assert superconformal_verdict(rec.k, rec.kappa, rec.K, 1e-10)[1]


def test_msc_surface_ellipse_is_centered_circle():
    surface = msc_surface(MscParams(1.0, 1.0, 2.0, 1))
    for u in (0.5, 1.0, 2.0):
        report = is_circle(ellipse_samples(analytic_jet2(surface, u, 0.0), 16), 1e-10)
        assert report.ok
        assert norm(report.center) <= 1e-10


# ---------------------------------------------------------------------------
# closed invariants of the family

def test_msc_invariants_at_one():
    k, kappa, gauss = msc_invariants(MscParams(1.0, 1.0, 2.0, 1), 1.0)
    assert k == pytest.approx(64 / 15625, rel=1e-14)
    assert kappa == pytest.approx(8 / 125, rel=1e-14)
    assert gauss == pytest.approx(-8 / 125, rel=1e-14)


def test_msc_invariants_at_two():
    k, kappa, gauss = msc_invariants(MscParams(1.0, 1.0, 2.0, 1), 2.0)
    assert k == pytest.approx(64 / 17 ** 6, rel=1e-14)
    assert kappa == pytest.approx(8 / 4913, rel=1e-14)
    assert gauss == pytest.approx(-8 / 4913, rel=1e-14)


def test_msc_invariant_identities():
    rng = random.Random(3)
    speeds = [(a, b) for a in (1.0, 2.0, 3.0) for b in (1.0, 2.0, 3.0) if a != b]
    for _ in range(15):
        c = rng.uniform(0.5, 2.0)
        alpha, beta = rng.choice(speeds)
        eps = rng.choice((1, -1))
        params = MscParams(c, alpha, beta, eps)
        for u in (0.25, 1.0, 4.0):
            k, kappa, gauss = msc_invariants(params, u)
            assert abs(kappa * kappa - k) <= 1e-14 * max(1.0, abs(k))
            assert abs(gauss * gauss - kappa * kappa) <= 1e-14 * max(1.0, kappa * kappa)
            assert abs(gauss + eps * kappa) <= 1e-14 * max(1.0, abs(kappa))
            assert gauss <= 0.0


def test_power_law_invariants_eps_flip():
    # eps enters the closed form only as kappa's sign (exponent held fixed)
    from rotsurf4.msc import power_law_invariants
    for (c, p, u) in ((1.2, 3.0, 0.5), (0.7, -0.5, 1.0), (2.0, 1.5, 2.0)):
        k_up, x_up, g_up = power_law_invariants(c, p, 1, u)
        k_dn, x_dn, g_dn = power_law_invariants(c, p, -1, u)
        assert x_dn == -x_up
        assert k_dn == k_up
        assert g_dn == g_up


def test_msc_invariants_branch_signs():
    for u in (0.5, 1.0, 2.0):
        k1, x1, g1 = msc_invariants(MscParams(1.2, 1.0, 3.0, 1), u)
        k2, x2, g2 = msc_invariants(MscParams(1.2, 1.0, 3.0, -1), u)
        assert x1 > 0.0 and x2 < 0.0   # kappa carries the branch sign
        assert k1 > 0.0 and k2 > 0.0
        assert g1 < 0.0 and g2 < 0.0


def test_msc_invariants_need_positive_u():
    with pytest.raises(ValueError):
        msc_invariants(MscParams(1.0, 1.0, 2.0, 1), 0.0)


@pytest.mark.parametrize("c", [1e60, math.inf])  # float ** overflows; inf / inf
def test_power_law_invariants_out_of_range_names_u(c):
    with pytest.raises(ClosedFormRangeError, match=r"u=1\.5"):
        power_law_invariants(c, 2.0, 1, 1.5)


# ---------------------------------------------------------------------------
# characterization in both directions

def test_characterization_members_and_nonmembers():
    members = [msc_surface(MscParams(c, a, b, e))
               for (c, a, b, e) in ((1.0, 1.0, 2.0, 1), (1.5, 3.0, 2.0, -1))]
    nonmembers = [
        RotationalSurface(Profile.from_text("u"), Profile.from_text("u^3"), 1.0, 2.0),
        RotationalSurface(Profile.from_text("u"), Profile.from_text("u^2+1"), 1.0, 2.0),
    ]
    us = [0.5 + 1.5 * i / 9 for i in range(10)]
    for surface, expected in [(s, True) for s in members] + [(s, False) for s in nonmembers]:
        max_residual = max(min(abs(msc_residual(surface, u, 1)),
                               abs(msc_residual(surface, u, -1))) for u in us)
        sc_everywhere = all(
            superconformal_verdict(rec.k, rec.kappa, rec.K, 1e-8) == (True, True)
            for rec in (_record(surface, u) for u in us))
        assert (max_residual <= 1e-8) == expected
        assert sc_everywhere == expected
