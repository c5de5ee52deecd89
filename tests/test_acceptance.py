"""Acceptance suite: the exit criteria of the build, one test per
criterion, each printing a single pass/fail line (run with ``pytest -s``
to see them).  Tolerances are fixed here, not calibrated."""

import math
import random
import time

from helpers import (central_diff, curve_frenet_oracle, octet_dev, random_expr, rel_dev,
                     tame_at, vline_curvatures, vline_derivatives)
from rotsurf4.expr import Profile, differentiate, evaluate
from rotsurf4.forms import (PointType, ellipse_samples, first_form, gauss_curvature,
                            invariants, is_circle, lmn, second_tensor, superconformal_verdict)
from rotsurf4.geometry import (Vec4, analytic_jet2, fd_jet2,
                               gram_schmidt_normals, norm)
from rotsurf4.msc import MscParams, msc_residual, msc_surface
from rotsurf4.octet import invariants_from_octet, octet_generic
from rotsurf4.rotational import (RotationalSurface, closed_forms_at,
                                 closed_invariants_at, closed_octet_at)

K_EXACT, KAPPA_EXACT, GAUSS_EXACT = 64 / 15625, 8 / 125, -8 / 125


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _surface(f_text, g_text, alpha, beta):
    return RotationalSurface(Profile.from_text(f_text), Profile.from_text(g_text),
                             alpha, beta)


def _generic_record(jet, class_tol=1e-8):
    ff = first_form(jet)
    e1, e2 = gram_schmidt_normals(jet)
    ct = second_tensor(jet, e1, e2)
    return invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct), class_tol=class_tol)


def test_criterion_1_running_example_exactness():
    start = time.perf_counter()
    s = _surface("u", "u^2", 1.0, 2.0)

    # (a) closed forms
    ka, xa, ga = closed_invariants_at(s, 1.0)
    dev_a = max(abs(ka - K_EXACT), abs(xa - KAPPA_EXACT), abs(ga - GAUSS_EXACT))

    # (b) generic pipeline on finite-difference jets
    rec = _generic_record(fd_jet2(s.as_map(), 1.0, 0.0))
    dev_b = max(rel_dev(rec.k, K_EXACT), rel_dev(rec.kappa, KAPPA_EXACT),
                rel_dev(rec.K, GAUSS_EXACT))

    # (c) invariant combinations of the octet
    kc, xc, gc = invariants_from_octet(closed_octet_at(s, 1.0))
    dev_c = max(abs(kc - K_EXACT), abs(xc - KAPPA_EXACT), abs(gc - GAUSS_EXACT))

    elapsed = time.perf_counter() - start
    ok = dev_a <= 1e-12 and dev_b <= 1e-6 and dev_c <= 1e-12 and elapsed < 1.0
    _report("criterion 1: running-example exactness via three paths", ok,
            f"closed {dev_a:.2e}, generic {dev_b:.2e}, octet {dev_c:.2e}, {elapsed:.2f}s")


SWEEP_SET = (("u", "u^2", 1.0, 2.0), ("u", "u^3", 1.0, 2.0), ("u", "2*u", 1.0, 2.0),
             ("u", "u^2", 2.0, 1.0), ("u", "2*sqrt(u)", 2.0, 1.0))


def test_criterion_2_pipeline_equivalence_sweep():
    start = time.perf_counter()
    worst_forms = 0.0
    worst_octet = 0.0
    us = [0.5 + 1.5 * i / 19 for i in range(20)]
    for f_text, g_text, alpha, beta in SWEEP_SET:
        s = _surface(f_text, g_text, alpha, beta)
        amap = s.as_map()

        def jet_at(uu, vv):
            return analytic_jet2(s, uu, vv)

        for u in us:
            ffc, sfc = closed_forms_at(s, u)
            kc, xc, gc = closed_invariants_at(s, u)
            oc = closed_octet_at(s, u)
            for v in (0.0, 2.1):
                jet = fd_jet2(amap, u, v)
                ff = first_form(jet)
                e1, e2 = gram_schmidt_normals(jet)
                ct = second_tensor(jet, e1, e2)
                sf = lmn(ct, ff.W)
                rec = invariants(ff, sf, gauss_curvature(ff, ct))
                worst_forms = max(worst_forms,
                                  rel_dev(ff.E, ffc.E), rel_dev(ff.F, ffc.F),
                                  rel_dev(ff.G, ffc.G), rel_dev(sf.L, sfc.L),
                                  rel_dev(sf.M, sfc.M), rel_dev(sf.N, sfc.N),
                                  rel_dev(rec.k, kc), rel_dev(rec.kappa, xc),
                                  rel_dev(rec.K, gc))
                og = octet_generic(jet_at, u, v)
                worst_octet = max(worst_octet, octet_dev(oc, og))
    elapsed = time.perf_counter() - start
    ok = worst_forms <= 1e-6 and worst_octet <= 1e-5 and elapsed < 10.0
    _report("criterion 2: pipeline equivalence over 5 surfaces x 20 u-points", ok,
            f"forms/invariants {worst_forms:.2e}, octet {worst_octet:.2e}, {elapsed:.1f}s")


def test_criterion_3_msc_characterization():
    rng = random.Random(20250809)
    speeds = [(a, b) for a in (1.0, 2.0, 3.0) for b in (1.0, 2.0, 3.0) if a != b]
    worst_residual = 0.0
    worst_identity = 0.0
    worst_circle = 0.0
    worst_center = 0.0
    us = [0.25 + 3.75 * i / 9 for i in range(10)]
    for _ in range(20):
        c = rng.uniform(0.5, 2.0)
        alpha, beta = rng.choice(speeds)
        eps = rng.choice((1, -1))
        params = MscParams(c, alpha, beta, eps)
        surface = msc_surface(params)
        for u in us:
            scale = 1.0 + abs(u) ** (abs(params.p) + 1.0)
            worst_residual = max(worst_residual,
                                 abs(msc_residual(surface, u, eps)) / scale)
        for u in us[::2]:  # 5 sample points
            jet = analytic_jet2(surface, u, 0.0)
            ff = first_form(jet)
            e1, e2 = gram_schmidt_normals(jet)
            ct = second_tensor(jet, e1, e2)
            rec = invariants(ff, lmn(ct, ff.W), gauss_curvature(ff, ct))
            s_norm = max(1.0, rec.kappa ** 2, abs(rec.k), rec.K ** 2)
            worst_identity = max(worst_identity,
                                 abs(rec.kappa ** 2 - rec.k) / s_norm,
                                 abs(rec.K ** 2 - rec.kappa ** 2) / s_norm)
            report = is_circle(ellipse_samples(jet, 16), 1e-6)
            worst_circle = max(worst_circle,
                               report.max_deviation / max(1.0, report.radius))
            worst_center = max(worst_center, norm(report.center))
    ok = (worst_residual <= 1e-12 and worst_identity <= 1e-8
          and worst_circle <= 1e-6 and worst_center <= 1e-6)
    _report("criterion 3: msc characterization over 20 random members", ok,
            f"residual {worst_residual:.2e}, identities {worst_identity:.2e}, "
            f"circle {worst_circle:.2e}, centroid {worst_center:.2e}")


def test_criterion_4_negative_control():
    s = _surface("u", "u^3", 1.0, 2.0)
    residual = msc_residual(s, 1.0, 1)
    rec = _generic_record(analytic_jet2(s, 1.0, 0.0))
    superconformal = superconformal_verdict(rec.k, rec.kappa, rec.K, 1e-6)[1]
    ok = abs(residual - (-3.0)) <= 1e-12 and not superconformal
    _report("criterion 4: cubic meridian is rejected", ok,
            f"residual {residual!r}, superconformal {superconformal}")


def test_criterion_5_helix_oracle():
    expected = vline_curvatures(1.0, 1.0, 1.0, 2.0)
    cc = curve_frenet_oracle(*vline_derivatives(1.0, 1.0, 1.0, 2.0, 0.0))
    dev = max(abs(cc.kappa - math.sqrt(17 / 5)),
              abs(cc.tau - 6 / math.sqrt(85)),
              abs(cc.sigma3 - 2 * math.sqrt(5) / math.sqrt(17)),
              abs(cc.kappa - expected.kappa),
              abs(cc.tau - abs(expected.tau)),
              abs(cc.sigma3 - abs(expected.sigma3)))
    spreads = []
    samples = [curve_frenet_oracle(*vline_derivatives(1.0, 1.0, 1.0, 2.0,
                                                      2.0 * math.pi * j / 10))
               for j in range(10)]
    for pick in (lambda s: s.kappa, lambda s: s.tau, lambda s: s.sigma3):
        vals = [pick(s) for s in samples]
        spreads.append(max(vals) - min(vals))
    ok = dev <= 1e-9 and max(spreads) <= 1e-10
    _report("criterion 5: helix oracle reproduces the v-line formulas", ok,
            f"dev {dev:.2e}, spread {max(spreads):.2e}")


def test_criterion_6_flat_family():
    worst = 0.0
    all_flat = True
    for c in (0.5, 1.0, 2.0):
        s = _surface("u", f"{c}*u", 1.0, 2.0)
        for i in range(10):
            u = 0.5 + 1.5 * i / 9
            k, kappa, gauss = closed_invariants_at(s, u)
            worst = max(worst, abs(k), abs(kappa), abs(gauss))
            ffc, sfc = closed_forms_at(s, u)
            rec = invariants(ffc, sfc, gauss)
            all_flat = all_flat and rec.point_type is PointType.FLAT
            generic = _generic_record(analytic_jet2(s, u, 0.0))
            all_flat = all_flat and generic.point_type is PointType.FLAT
    ok = worst <= 1e-12 and all_flat
    _report("criterion 6: linear meridians are flat", ok,
            f"max invariant {worst:.2e}, all classified flat: {all_flat}")


def test_criterion_7_orientation_law():
    s = _surface("u", "u^2", 1.0, 2.0)
    amap = s.as_map()

    def mirrored(u, v):
        x1, x2, x3, x4 = amap(u, v)
        return Vec4(x1, x2, x3, -x4)

    worst_kappa = 0.0
    worst_keep = 0.0
    for i in range(10):
        u = 0.5 + 1.5 * i / 9
        for v in (0.0, 1.3, 3.9):
            a = _generic_record(fd_jet2(amap, u, v))
            b = _generic_record(fd_jet2(mirrored, u, v))
            worst_kappa = max(worst_kappa, abs(a.kappa + b.kappa))
            worst_keep = max(worst_keep, abs(a.k - b.k), abs(a.K - b.K))
    ok = worst_kappa <= 1e-9 and worst_keep <= 1e-9
    _report("criterion 7: hyperplane mirror flips kappa, fixes k and K", ok,
            f"kappa {worst_kappa:.2e}, k/K {worst_keep:.2e}")


def test_criterion_8_parser_differentiator():
    rng = random.Random(424242)
    checked = 0
    worst = 0.0
    while checked < 200:
        e = random_expr(rng, 6)
        u = rng.uniform(0.3, 2.5)
        h = 1e-5 * max(1.0, abs(u))
        if not tame_at(e, u, h):
            continue
        try:
            sym = evaluate(differentiate(e), u)
        except Exception:
            continue
        fd = central_diff(lambda x: evaluate(e, x), u, h)
        if abs(fd) > 1e4:
            continue
        worst = max(worst, abs(sym - fd) / max(1.0, abs(fd)))
        checked += 1

    # the profiles driving criteria 1-6 carry symbolic second derivatives
    symbolic = True
    profiles = [Profile.from_text(t) for t in
                ("u", "u^2", "u^3", "2*u", "2*sqrt(u)", "0.5*u", "1*u^2")]
    for p in profiles:
        symbolic = symbolic and p.d1 == differentiate(p.expr)
        symbolic = symbolic and p.d2 == differentiate(p.d1)

    ok = worst <= 1e-6 and symbolic
    _report("criterion 8: symbolic derivatives match finite differences", ok,
            f"200 trees, worst {worst:.2e}, symbolic path {symbolic}")
