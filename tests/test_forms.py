import math
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import frames_at, reference_generic_at, reference_generic_invariants, rel_dev
from rotsurf4.expr import Binary, Profile, Unary, Variable, evaluate, parse
from rotsurf4.forms import (CircleReport, FrameError, NonFiniteInvariantError,
                            PointType, SecondForm, SecondTensor, christoffel,
                            classify, ellipse_samples,
                            first_form, gauss_curvature, generic_at,
                            generic_invariants, invariants,
                            is_circle, is_minimal, is_principal_params,
                            is_superconformal, lmn, mean_curvature_vector,
                            principal_defect, second_form, second_form_value,
                            second_tensor, superconformal_residuals)
from rotsurf4.geometry import (DegenerateMetricError, GeometryError, Jet2, Vec4,
                               analytic_jet2, det4, dot, fd_jet2,
                               gram_schmidt_normals, norm)
from rotsurf4.msc import scaled_msc_residual
from rotsurf4.rotational import RotationalSurface, closed_forms_at, closed_invariants_at

SQRT5 = math.sqrt(5.0)

PLANE_JET = Jet2(Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 0), Vec4(0, 1, 0, 0),
                 Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
PLANE_FRAME = (Vec4(0, 0, 1, 0), Vec4(0, 0, 0, 1))


def _generic_record(surface, u, v, class_tol=1e-8):
    jet = analytic_jet2(surface, u, v)
    e1, e2 = gram_schmidt_normals(jet)
    ff = first_form(jet)
    ct = second_tensor(jet, e1, e2)
    return invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct), class_tol=class_tol)


# ---------------------------------------------------------------------------
# first form

def test_first_form_running_example(parabola):
    ff = first_form(analytic_jet2(parabola, 1.0, 0.0))
    assert (ff.E, ff.F, ff.G, ff.W) == (5.0, 0.0, 5.0, 5.0)


def test_first_form_plane():
    ff = first_form(PLANE_JET)
    assert (ff.E, ff.F, ff.G) == (1.0, 0.0, 1.0)


def test_first_form_f_vanishes_on_family(parabola):
    for u in (0.5, 1.1, 1.9):
        for v in (0.0, 2.2):
            assert abs(first_form(analytic_jet2(parabola, u, v)).F) <= 1e-12


def test_first_form_degenerate():
    jet = Jet2(Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 0), Vec4(2, 0, 0, 0),
               Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
    with pytest.raises(DegenerateMetricError):
        first_form(jet)


# ---------------------------------------------------------------------------
# second tensor

def test_second_tensor_running_example(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    _, _, n1, n2 = frames_at(parabola, 1.0, 0.0)
    ct = second_tensor(jet, n1, n2)
    assert ct.c11_1 == pytest.approx(-2 / SQRT5, rel=1e-14)
    assert ct.c11_2 == pytest.approx(0.0, abs=1e-15)
    assert ct.c12_1 == pytest.approx(0.0, abs=1e-15)
    assert ct.c12_2 == pytest.approx(-2 / SQRT5, rel=1e-14)
    assert ct.c22_1 == pytest.approx(2 / SQRT5, rel=1e-14)
    assert ct.c22_2 == pytest.approx(0.0, abs=1e-15)


def test_second_tensor_plane_all_zero():
    ct = second_tensor(PLANE_JET, *PLANE_FRAME)
    assert ct == SecondTensor(0, 0, 0, 0, 0, 0)


def test_second_tensor_flipping_e2_negates_second_column(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    e1, e2 = gram_schmidt_normals(jet)
    ct = second_tensor(jet, e1, e2)
    flipped = second_tensor(jet, e1, -e2)
    assert (flipped.c11_1, flipped.c12_1, flipped.c22_1) == (ct.c11_1, ct.c12_1, ct.c22_1)
    assert (flipped.c11_2, flipped.c12_2, flipped.c22_2) == (-ct.c11_2, -ct.c12_2, -ct.c22_2)


def test_second_tensor_rejects_bad_frame(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    with pytest.raises(FrameError):
        second_tensor(jet, Vec4(1, 0, 0, 0), Vec4(0, 1, 0, 0))  # tangent, not normal


# ---------------------------------------------------------------------------
# christoffel

def test_christoffel_running_example(parabola):
    ch = christoffel(analytic_jet2(parabola, 1.0, 0.0))
    assert ch.uu_u == pytest.approx(0.8, rel=1e-14)
    assert ch.uu_v == pytest.approx(0.0, abs=1e-15)
    assert ch.uv_u == pytest.approx(0.0, abs=1e-15)
    assert ch.uv_v == pytest.approx(1.8, rel=1e-14)
    assert ch.vv_u == pytest.approx(-1.8, rel=1e-14)
    assert ch.vv_v == pytest.approx(0.0, abs=1e-15)


def test_christoffel_plane_zero():
    ch = christoffel(PLANE_JET)
    assert all(c == 0.0 for c in (ch.uu_u, ch.uu_v, ch.uv_u, ch.uv_v, ch.vv_u, ch.vv_v))


def test_christoffel_residual_is_normal(parabola):
    jet = analytic_jet2(parabola, 1.3, 0.9)
    ch = christoffel(jet)
    for zij, (cu, cv) in ((jet.z_uu, (ch.uu_u, ch.uu_v)),
                          (jet.z_uv, (ch.uv_u, ch.uv_v)),
                          (jet.z_vv, (ch.vv_u, ch.vv_v))):
        res = zij - jet.z_u * cu - jet.z_v * cv
        assert abs(dot(res, jet.z_u)) <= 1e-10
        assert abs(dot(res, jet.z_v)) <= 1e-10


# ---------------------------------------------------------------------------
# L, M, N and invariants

def test_lmn_running_example(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    _, _, n1, n2 = frames_at(parabola, 1.0, 0.0)
    sf = lmn(second_tensor(jet, n1, n2), first_form(jet).W)
    assert sf.L == pytest.approx(8 / 25, rel=1e-14)
    assert sf.M == pytest.approx(0.0, abs=1e-15)
    assert sf.N == pytest.approx(8 / 25, rel=1e-14)


def test_lmn_zero_tensor():
    sf = lmn(SecondTensor(0, 0, 0, 0, 0, 0), 1.0)
    assert (sf.L, sf.M, sf.N) == (0.0, 0.0, 0.0)


def test_lmn_matches_closed_form(parabola):
    _, sf_closed = closed_forms_at(parabola, 1.0)
    jet = analytic_jet2(parabola, 1.0, 0.0)
    e1, e2 = gram_schmidt_normals(jet)
    sf = lmn(second_tensor(jet, e1, e2), first_form(jet).W)
    assert sf.L == pytest.approx(sf_closed.L, rel=1e-12)
    assert sf.L == pytest.approx(8 / 25, rel=1e-12)


def test_invariants_running_example(parabola):
    rec = _generic_record(parabola, 1.0, 0.0)
    assert rec.k == pytest.approx(64 / 15625, rel=1e-12)
    assert rec.kappa == pytest.approx(8 / 125, rel=1e-12)
    assert rec.point_type is PointType.ELLIPTIC


def test_invariants_flat_for_zero_forms():
    from rotsurf4.forms import FirstForm
    rec = invariants(FirstForm(1.0, 0.0, 1.0, 1.0), SecondForm(0.0, 0.0, 0.0), 0.0)
    assert rec.k == 0.0 and rec.kappa == 0.0
    assert rec.point_type is PointType.FLAT


@pytest.mark.parametrize("k, kappa, sf", [
    (math.nan, math.nan, SecondForm(0.0, 0.0, 0.0)),
    (math.nan, 0.0, SecondForm(1.0, 0.0, 1.0)),
    (0.0, math.nan, SecondForm(1.0, 0.0, 1.0)),
    (math.inf, 0.0, SecondForm(1e200, 0.0, 1e200)),  # inf / inf scale
])
def test_classify_refuses_nan(k, kappa, sf):
    with pytest.raises(NonFiniteInvariantError):
        classify(k, kappa, sf)


def test_invariants_hyperbolic_example():
    s = RotationalSurface(Profile.from_text("u"), Profile.from_text("u^2"), 2.0, 1.0)
    rec = _generic_record(s, 1.0, 0.0)
    assert rec.k == pytest.approx(-224 / 15625, rel=1e-12)
    assert rec.point_type is PointType.HYPERBOLIC


def test_gauss_curvature_running_example(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    e1, e2 = gram_schmidt_normals(jet)
    gauss = gauss_curvature(first_form(jet), second_tensor(jet, e1, e2))
    assert gauss == pytest.approx(-8 / 125, rel=1e-12)


def test_gauss_curvature_plane_zero():
    gauss = gauss_curvature(first_form(PLANE_JET), second_tensor(PLANE_JET, *PLANE_FRAME))
    assert gauss == 0.0


def test_second_form_value():
    sf = SecondForm(8 / 25, 0.0, 8 / 25)
    assert second_form_value(sf, 1.0, 0.0) == pytest.approx(8 / 25, rel=1e-15)
    assert second_form_value(SecondForm(1.0, 0.0, -1.0), 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        second_form_value(sf, 0.0, 0.0)


def test_is_principal_params(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.7)
    ff = first_form(jet)
    e1, e2 = gram_schmidt_normals(jet)
    sf = lmn(second_tensor(jet, e1, e2), ff.W)
    assert is_principal_params(ff, sf, 1e-12)
    assert is_principal_params(ff, second_form(jet, *generic_at(jet)))
    from rotsurf4.forms import FirstForm
    assert not is_principal_params(FirstForm(1.0, 0.5, 1.0, math.sqrt(0.75)), sf, 1e-12)
    assert is_principal_params(FirstForm(1.0, 0.0, 1.0, 1.0), SecondForm(1, 0, 1), 0.0)
    # the rule is relative: |F| <= tol max(1, E, G), |M| <= tol max(1, |L|, |N|)
    big = FirstForm(1e6, 5e-3, 1e6, 1e6)
    assert is_principal_params(big, SecondForm(1e4, 5e-5, 1.0), 1e-8)
    assert principal_defect(big, SecondForm(1e4, 5e-5, 1.0), 1e-8) is None
    assert principal_defect(big, SecondForm(1e4, 2e-4, 1.0), 1e-8) == "M = 0.0002"
    assert principal_defect(FirstForm(1e6, 2e-2, 1e6, 1e6), SecondForm(1e4, 1.0, 1.0),
                            1e-8) == "F = 0.02"
    assert not is_principal_params(FirstForm(1.0, 2e-8, 1.0, 1.0), SecondForm(1, 0, 1))


# ---------------------------------------------------------------------------
# minimality / super-conformality

def test_minimal_superconformal_running_example(parabola):
    rec = _generic_record(parabola, 1.0, 0.0)
    assert is_minimal(rec, 1e-10)
    assert is_superconformal(rec, 1e-10)


def test_cubic_is_not_superconformal(cubic):
    rec = _generic_record(cubic, 1.0, 0.0)
    assert not is_minimal(rec, 1e-6)
    assert not is_superconformal(rec, 1e-6)


def test_flat_point_degenerately_superconformal(linear):
    rec = _generic_record(linear, 1.0, 0.0)
    assert rec.point_type is PointType.FLAT
    assert is_minimal(rec, 1e-10)
    assert is_superconformal(rec, 1e-10)


# ---------------------------------------------------------------------------
# mean curvature vector and the curvature ellipse

def test_mean_curvature_vanishes_on_running_example(parabola):
    h = mean_curvature_vector(*generic_at(analytic_jet2(parabola, 1.0, 0.0)))
    assert norm(h) <= 1e-15


def test_mean_curvature_vanishes_on_plane():
    h = mean_curvature_vector(*generic_at(PLANE_JET))
    assert norm(h) == 0.0


def test_mean_curvature_nonzero_on_cubic(cubic):
    h = mean_curvature_vector(*generic_at(analytic_jet2(cubic, 1.0, 0.0)))
    assert norm(h) > 1e-3


def test_ellipse_samples_circle_on_running_example(parabola):
    samples = ellipse_samples(*generic_at(analytic_jet2(parabola, 1.0, 0.0)), 8)
    radius = 2 / (5 * SQRT5)
    for s in samples:
        assert norm(s) == pytest.approx(radius, rel=1e-12)
    centroid = Vec4(0, 0, 0, 0)
    for s in samples:
        centroid = centroid + s
    assert norm(centroid) / len(samples) <= 1e-15


def test_ellipse_first_sample_is_sigma_xx(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    first = ellipse_samples(*generic_at(jet), 8)[0]
    e1, e2 = gram_schmidt_normals(jet)
    ff = first_form(jet)
    ct = second_tensor(jet, e1, e2)
    sigma_xx = (e1 * ct.c11_1 + e2 * ct.c11_2) / ff.E
    assert norm(first - sigma_xx) <= 1e-15


def test_ellipse_samples_plane_all_zero():
    samples = ellipse_samples(*generic_at(PLANE_JET), 6)
    assert all(norm(s) == 0.0 for s in samples)


def test_ellipse_samples_needs_three():
    with pytest.raises(ValueError):
        ellipse_samples(*generic_at(PLANE_JET), 2)


def test_is_circle_detects_true_circle(parabola):
    report = is_circle(ellipse_samples(*generic_at(analytic_jet2(parabola, 1.0, 0.0)), 8),
                       1e-6)
    assert report.ok and not report.degenerate
    assert report.radius == pytest.approx(2 / (5 * SQRT5), rel=1e-12)


def test_is_circle_rejects_proper_ellipse():
    # semi-axes 1 and 2: synthetic normal parts on the unit metric
    from rotsurf4.forms import FirstForm
    ff = FirstForm(1.0, 0.0, 1.0, 1.0)
    samples = ellipse_samples(ff, Vec4(0, 0, 1, 0), Vec4(0, 0, 0, 2), Vec4(0, 0, -1, 0), 12)
    assert not is_circle(samples, 1e-6).ok


def test_is_circle_degenerate_zero_samples():
    report = is_circle([Vec4(0, 0, 0, 0)] * 5, 1e-6)
    assert report.ok and report.degenerate


def test_is_circle_needs_three_samples():
    with pytest.raises(ValueError):
        is_circle([Vec4(0, 0, 0, 0)] * 2, 1e-6)


def test_circle_report_is_truthy():
    assert bool(CircleReport(True, False, Vec4(0, 0, 0, 0), 1.0, 0.0))
    assert not bool(CircleReport(False, False, Vec4(0, 0, 0, 0), 1.0, 0.5))


# ---------------------------------------------------------------------------
# frame independence and orientation laws

def test_frame_independence_under_normal_rotation(parabola):
    rng = random.Random(5)
    jet = analytic_jet2(parabola, 1.4, 0.6)
    ff = first_form(jet)
    e1, e2 = gram_schmidt_normals(jet)
    base = lmn(second_tensor(jet, e1, e2), ff.W)
    for _ in range(20):
        t = rng.uniform(0.0, 2.0 * math.pi)
        r1 = e1 * math.cos(t) + e2 * math.sin(t)
        r2 = e1 * (-math.sin(t)) + e2 * math.cos(t)
        sf = lmn(second_tensor(jet, r1, r2), ff.W)
        assert rel_dev(sf.L, base.L) <= 1e-10
        assert rel_dev(sf.M, base.M) <= 1e-10
        assert rel_dev(sf.N, base.N) <= 1e-10
        rec = invariants(ff, sf, 0.0)
        base_rec = invariants(ff, base, 0.0)
        assert rel_dev(rec.k, base_rec.k) <= 1e-10
        assert rel_dev(rec.kappa, base_rec.kappa) <= 1e-10


def test_orientation_flip_negates_lmn_and_kappa(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    ff = first_form(jet)
    e1, e2 = gram_schmidt_normals(jet)
    sf = lmn(second_tensor(jet, e1, e2), ff.W)
    sf_flip = lmn(second_tensor(jet, e1, -e2), ff.W)
    assert (sf_flip.L, sf_flip.M, sf_flip.N) == (-sf.L, -sf.M, -sf.N)
    rec = invariants(ff, sf, 0.0)
    rec_flip = invariants(ff, sf_flip, 0.0)
    assert rec_flip.kappa == -rec.kappa
    assert rec_flip.k == rec.k


def test_relation_audit_on_grid(parabola):
    # generic (L N - M^2)/(E G - F^2) against the closed forms, 20 x 20 grid
    us = [0.5 + 1.5 * i / 19 for i in range(20)]
    vs = [2.0 * math.pi * j / 20 for j in range(20)]
    for u in us:
        k_closed, _, _ = closed_invariants_at(parabola, u)
        for v in vs:
            jet = analytic_jet2(parabola, u, v)
            ff = first_form(jet)
            e1, e2 = gram_schmidt_normals(jet)
            sf = lmn(second_tensor(jet, e1, e2), ff.W)
            k = (sf.L * sf.N - sf.M * sf.M) / (ff.E * ff.G - ff.F * ff.F)
            assert abs(k - k_closed) <= 1e-9 * max(1.0, abs(k), abs(k_closed))


def test_invariants_survive_shear_reparametrization(parabola):
    # k, kappa, K do not depend on the parametrization; a sheared pull-back
    # exercises the F != 0 branches of the generic pipeline
    from rotsurf4.geometry import fd_jet2
    amap = parabola.as_map()

    def sheared(u, v):
        return amap(u, v + 0.3 * u)

    for u in (0.7, 1.0, 1.6):
        k_c, x_c, g_c = closed_invariants_at(parabola, u)
        jet = fd_jet2(sheared, u, 0.2)
        ff = first_form(jet)
        assert abs(ff.F) > 0.1  # the shear really is non-orthogonal
        e1, e2 = gram_schmidt_normals(jet)
        ct = second_tensor(jet, e1, e2)
        rec = invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct))
        assert rel_dev(rec.k, k_c) <= 1e-6
        assert rel_dev(rec.kappa, x_c) <= 1e-6
        assert rel_dev(rec.K, g_c) <= 1e-6
        h = mean_curvature_vector(*generic_at(jet))
        assert norm(h) <= 1e-7  # parametrization-invariant ambient vector


def test_christoffel_decomposition_with_shear(parabola):
    from rotsurf4.geometry import fd_jet2
    amap = parabola.as_map()

    def sheared(u, v):
        return amap(u, v + 0.3 * u)

    jet = fd_jet2(sheared, 1.1, 0.5)
    ch = christoffel(jet)
    for zij, (cu, cv) in ((jet.z_uu, (ch.uu_u, ch.uu_v)),
                          (jet.z_uv, (ch.uv_u, ch.uv_v)),
                          (jet.z_vv, (ch.vv_u, ch.vv_v))):
        res = zij - jet.z_u * cu - jet.z_v * cv
        assert abs(dot(res, jet.z_u)) <= 1e-10 * max(1.0, norm(zij))
        assert abs(dot(res, jet.z_v)) <= 1e-10 * max(1.0, norm(zij))


@pytest.mark.parametrize("g_text,is_member", [("u^2", True), ("u^3", False)])
def test_minimality_iff_centered_ellipse(g_text, is_member):
    s = RotationalSurface(Profile.from_text("u"), Profile.from_text(g_text), 1.0, 2.0)
    for u in [0.5 + 1.5 * i / 9 for i in range(10)]:
        jet = analytic_jet2(s, u, 0.0)
        ff = first_form(jet)
        e1, e2 = gram_schmidt_normals(jet)
        ct = second_tensor(jet, e1, e2)
        rec = invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct))
        h_small = norm(mean_curvature_vector(*generic_at(jet))) <= 1e-10
        scale = max(1.0, rec.kappa ** 2, abs(rec.k), rec.K ** 2)
        minimal = abs(rec.kappa ** 2 - rec.k) <= 1e-10 * scale
        assert h_small == minimal == is_member


# ---------------------------------------------------------------------------
# the generic pipeline behind generic_at / generic_invariants

GENERIC_SURFACES = [("u", "u^2", 1.0, 2.0), ("u", "u^3", 1.0, 2.0),
                    ("u", "sin(u)*exp(-u^2)+sqrt(u)", 1.0, 2.0),
                    ("cos(u)+2", "u^2+1", 2.0, 3.0), ("u", "2*u", 1.0, 2.0)]


def _hexes(*values):
    return [x.hex() for v in values for x in (v if isinstance(v, Vec4) else [v])]


@pytest.mark.parametrize("f_text, g_text, alpha, beta", GENERIC_SURFACES)
@pytest.mark.parametrize("u, v", [(0.5, 0.0), (1.3, 0.7), (2.2, 4.0)])
def test_generic_at_is_the_hand_composition(f_text, g_text, alpha, beta, u, v):
    s = RotationalSurface(Profile.from_text(f_text), Profile.from_text(g_text), alpha, beta)
    for jet in (analytic_jet2(s, u, v), fd_jet2(s.as_map(), u, v)):
        ff = first_form(jet)
        ch = christoffel(jet)
        zu, zv = jet.z_u, jet.z_v
        n11 = jet.z_uu - zu * ch.uu_u - zv * ch.uu_v
        n12 = jet.z_uv - zu * ch.uv_u - zv * ch.uv_v
        n22 = jet.z_vv - zu * ch.vv_u - zv * ch.vv_v
        w2 = ff.W * ff.W
        sf = SecondForm(2.0 * det4(zu, zv, n11, n12) / w2, det4(zu, zv, n11, n22) / w2,
                        2.0 * det4(zu, zv, n12, n22) / w2)
        rec = invariants(ff, sf, (dot(n11, n22) - dot(n12, n12)) / w2)
        gff, g11, g12, g22 = generic_at(jet)
        grec = generic_invariants(jet, gff, g11, g12, g22)
        assert _hexes(gff.E, gff.F, gff.G, gff.W) == _hexes(ff.E, ff.F, ff.G, ff.W)
        assert _hexes(g11, g12, g22) == _hexes(n11, n12, n22)
        fields = ("E", "F", "G", "L", "M", "N", "k", "kappa", "K")
        assert (_hexes(*(getattr(grec, n) for n in fields))
                == _hexes(*(getattr(rec, n) for n in fields)))
        assert grec.point_type is rec.point_type


def test_generic_at_degenerate_jet_raises_frame_message():
    jet = Jet2(Vec4(0, 0, 0, 0), Vec4(1, 0, 0, 0), Vec4(2, 0, 0, 0),
               Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
    with pytest.raises(DegenerateMetricError, match="tangent plane degenerate"):
        generic_at(jet)


# the frame-free pipeline against the framed one kept in helpers.  The two
# round differently, so they are compared against a rounding bound: with
# s = max |z_ij| and rho = (E + G)/W >= 2, which grows with the condition
# number |z_u||z_v|/W of the tangent pair and with the imbalance of E and G,
# the natural sizes are s^2/W for L, M and N, s^2/W^2 for K, rho s^2/W^2
# for kappa and s^4/W^4 for k.  In each path a form's rounding error is at
# most a few dozen eps times rho^2 times its size (dot products and the
# 24-term det4 carry gamma_n ~ n eps, Higham 2002, ch. 3; the Christoffel
# solve and Gram-Schmidt amplify by at most the condition number squared),
# and k's three products add their factors' errors; 2^10 eps rho^2 covers
# the sum of both paths with a margin

def _jet_from_surface(s, u, v, shear, fd):
    """The jet of (u, v) -> z(u, v + shear u): F != 0 when shear != 0."""
    amap = s.as_map()
    if fd:
        return fd_jet2(lambda uu, vv: amap(uu, vv + shear * uu), u, v)
    j = analytic_jet2(s, u, v + shear * u)
    return Jet2(j.z, j.z_u + j.z_v * shear, j.z_v,
                j.z_uu + j.z_uv * (2.0 * shear) + j.z_vv * (shear * shear),
                j.z_uv + j.z_vv * shear, j.z_vv)


_unit = st.floats(min_value=-1.0, max_value=1.0)
_vec = st.builds(Vec4, _unit, _unit, _unit, _unit)
surface_jets = st.builds(
    lambda surface, a, d, u, v, shear, fd: _jet_from_surface(
        RotationalSurface(Profile.from_text(surface[0]), Profile.from_text(surface[1]),
                          a, a + d), u, v, shear, fd),
    st.sampled_from(GENERIC_SURFACES), st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=0.25, max_value=2.0), st.floats(min_value=0.3, max_value=2.5),
    st.floats(min_value=0.0, max_value=6.2), st.floats(min_value=-1.0, max_value=1.0),
    st.booleans())
random_jets = st.builds(Jet2, _vec, _vec, _vec, _vec, _vec, _vec)


@settings(max_examples=300, deadline=None)
@given(st.one_of(surface_jets, random_jets))
def test_frame_free_forms_agree_with_the_framed_reference(jet):
    try:
        e1, e2, ff, ct = reference_generic_at(jet)
        ref = reference_generic_invariants(ff, ct)
    except GeometryError:
        assume(False)
    gff, n11, n12, n22 = generic_at(jet)
    rec = generic_invariants(jet, gff, n11, n12, n22)
    assert (gff.E, gff.F, gff.G, gff.W) == (ff.E, ff.F, ff.G, ff.W)
    W = ff.W
    s = max(norm(jet.z_uu), norm(jet.z_uv), norm(jet.z_vv))
    rho = (ff.E + ff.G) / W
    bound = 2.0 ** 10 * sys.float_info.epsilon * rho * rho
    sizes = {"L": s * s / W, "M": s * s / W, "N": s * s / W, "K": s * s / W ** 2,
             "kappa": rho * s * s / W ** 2, "k": (s * s / W ** 2) ** 2,
             "E": 0.0, "F": 0.0, "G": 0.0}
    for name, size in sizes.items():
        assert abs(getattr(rec, name) - getattr(ref, name)) <= bound * size, name


_special = st.sampled_from((math.nan, math.inf, -math.inf))


@st.composite
def broken_jets(draw):
    """Jets whose tangent plane is degenerate (zero, collinear, underflowing)
    or that carry a NaN or inf, and tiny z_u, where E W^2 underflows."""
    z, zu, zv, zuu, zuv, zvv = (draw(_vec) for _ in range(6))
    kind = draw(st.sampled_from(("zero", "collinear", "tiny", "ew", "special_tangent",
                                 "special_second")))
    if kind == "zero":
        zu = Vec4(0.0, 0.0, 0.0, 0.0)
    elif kind == "collinear":
        zv = zu * draw(st.sampled_from((2.0, -0.5, 0.25)))
    elif kind == "tiny":
        scale = 10.0 ** draw(st.floats(min_value=-170.0, max_value=-100.0))
        zu, zv = zu * scale, zv * scale
    elif kind == "ew":
        zu = zu * 10.0 ** draw(st.floats(min_value=-160.0, max_value=-120.0))
    vecs = [z, zu, zv, zuu, zuv, zvv]
    if kind.startswith("special"):
        slot = draw(st.sampled_from((1, 2) if kind == "special_tangent" else (3, 4, 5)))
        comps = list(vecs[slot])
        comps[draw(st.integers(min_value=0, max_value=3))] = draw(_special)
        vecs[slot] = Vec4(*comps)
    return Jet2(*vecs)


def _raised(fn):
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(broken_jets())
def test_frame_free_path_raises_as_the_framed_reference(jet):
    framed = _raised(lambda: reference_generic_invariants(*reference_generic_at(jet)[2:]))
    free = _raised(lambda: generic_invariants(jet, *generic_at(jet)))
    # an exactly collinear pair can leave EG - F^2 a rounding residue > 0;
    # the framed path then stops at second_tensor's frame check, which the
    # frame-free path does not have
    assume(framed is None or framed[0] is not FrameError)
    assert framed is not None and free is not None
    if framed[1].startswith("cannot classify"):
        # a non-finite k or kappa: the message prints k, kappa and the scale
        # from whichever of L, M, N stayed finite, and those round differently
        assert free[0] is framed[0] and free[1].startswith("cannot classify")
    else:
        assert free == framed


def test_superconformal_residuals_running_example(parabola):
    k, kappa, gauss = closed_invariants_at(parabola, 1.0)
    minimal, conformal, scale = superconformal_residuals(k, kappa, gauss)
    assert minimal <= 1e-15 and conformal <= 1e-15 and scale == 1.0
    assert superconformal_residuals(-3.0, 2.0, 5.0) == (7.0, 21.0, 25.0)


# a scale max(1, L^2, M^2, N^2, LN) that overflows falls back to dividing
# twice by max(1, |L|, |M|, |N|), the same scale without the squares
@pytest.mark.parametrize("k, kappa, sf, expected", [
    (1e305, 0.0, SecondForm(1e155, 0.0, 1e150), PointType.ELLIPTIC),
    (-1e305, 0.0, SecondForm(1e155, 0.0, 1e150), PointType.HYPERBOLIC),
    (0.0, 1e305, SecondForm(0.0, 1e155, 0.0), PointType.PARABOLIC),
    (1.0, 0.0, SecondForm(1e200, 0.0, 1e-200), PointType.FLAT),
])
def test_classify_overflowed_scale(k, kappa, sf, expected):
    assert classify(k, kappa, sf) is expected


@pytest.mark.parametrize("k, kappa", [(math.inf, 0.0), (0.0, -math.inf)])
def test_classify_refuses_infinite_invariant(k, kappa):
    with pytest.raises(NonFiniteInvariantError):
        classify(k, kappa, SecondForm(1.0, 0.0, 1.0))


# metamorphic laws: a homothety (f, g) -> (lam f, lam g) scales k by lam^-4
# and kappa, K by lam^-2; swapping (f, alpha) <-> (g, beta) permutes the
# coordinates evenly and leaves (k, kappa, K) unchanged

def _closed(s, u, v):
    return closed_invariants_at(s, u)


def _generic(s, u, v):
    jet = analytic_jet2(s, u, v)
    rec = generic_invariants(jet, *generic_at(jet))
    return rec.k, rec.kappa, rec.K


def _law_dev(got, want):
    k, kappa, gauss = want
    k_scale = max(abs(k), kappa * kappa, gauss * gauss)
    x_scale = max(abs(kappa), abs(gauss))
    return max(abs(got[0] - k) / k_scale,
               abs(got[1] - kappa) / x_scale, abs(got[2] - gauss) / x_scale)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GENERIC_SURFACES[:4]), st.sampled_from([_closed, _generic]),
       st.floats(min_value=0.3, max_value=2.5), st.floats(min_value=0.0, max_value=6.2),
       st.floats(min_value=0.25, max_value=4.0))
def test_homothety_and_swap_laws(surface, path, u, v, lam):
    f_text, g_text, alpha, beta = surface
    s = RotationalSurface(Profile.from_text(f_text), Profile.from_text(g_text), alpha, beta)
    scaled = RotationalSurface(Profile.from_text(f"{lam!r}*({f_text})"),
                               Profile.from_text(f"{lam!r}*({g_text})"), alpha, beta)
    swapped = RotationalSurface(Profile.from_text(g_text), Profile.from_text(f_text),
                                beta, alpha)
    base = path(s, u, v)
    k, kappa, gauss = path(scaled, u, v)
    assert _law_dev((k * lam ** 4, kappa * lam ** 2, gauss * lam ** 2), base) <= 1e-12
    assert _law_dev(path(swapped, u, v), base) <= 1e-12


# metamorphic laws: a reparametrization u -> phi(u) with phi' > 0 moves
# (k, kappa, K) and the msc verdict to the point phi(u); a homothety leaves
# the scaled msc residual unchanged

def _substitute(e, phi):
    """The tree ``e`` with ``phi`` in place of every u."""
    if isinstance(e, Variable):
        return phi
    if isinstance(e, Unary):
        return Unary(e.op, _substitute(e.child, phi))
    if isinstance(e, Binary):
        return Binary(e.op, _substitute(e.left, phi), _substitute(e.right, phi))
    return e


CHART_SURFACES = [*GENERIC_SURFACES[:4],
                  ("u", "1.5*u^(-0.5)", 2.0, 1.0), ("u", "0.7*u^1.5", 2.0, 3.0)]
charts = st.one_of(
    st.builds("{!r}*u+{!r}".format, st.floats(min_value=0.2, max_value=3.0),
              st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from(["u^3", "exp(u)", "1e-6*u+1"]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CHART_SURFACES), st.sampled_from([_closed, _generic]), charts,
       st.floats(min_value=0.3, max_value=2.5), st.floats(min_value=0.0, max_value=6.2),
       st.floats(min_value=0.25, max_value=4.0))
def test_reparametrization_and_homothety_laws(surface, path, chart, u, v, lam):
    f_text, g_text, alpha, beta = surface
    phi = parse(chart)
    s = RotationalSurface(Profile.from_text(f_text), Profile.from_text(g_text), alpha, beta)
    moved = RotationalSurface(Profile.from_expr(_substitute(parse(f_text), phi)),
                              Profile.from_expr(_substitute(parse(g_text), phi)), alpha, beta)
    scaled = RotationalSurface(Profile.from_text(f"{lam!r}*({f_text})"),
                               Profile.from_text(f"{lam!r}*({g_text})"), alpha, beta)
    t = evaluate(phi, u)
    # keep phi(u) in the range of the laws above: (cos u + 2, u^2 + 1) is
    # singular at u = 0, and near it cancellation in g' f'' - f' g'' leaves
    # only ~1e-12 of the invariants' digits (seen at phi(u) = 0.03)
    assume(t >= 0.3)
    assert _law_dev(path(moved, u, v), path(s, t, v)) <= 1e-12
    residual = scaled_msc_residual(s, t)
    assert abs(scaled_msc_residual(moved, u) - residual) <= 1e-12
    assert abs(scaled_msc_residual(scaled, t) - residual) <= 1e-12
