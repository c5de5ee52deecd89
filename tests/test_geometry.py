import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (field_values, frames_at, jet_dev, reference_analytic_jet2,
                     reference_cross4, reference_det4, reference_gram_schmidt_normals, vec_dev)
from rotsurf4.expr import EvalDomainError, Profile
from rotsurf4.forms import generic_at
from rotsurf4.geometry import (DegenerateMetricError, GeometryError, Jet2, RegularityError,
                               Vec4, analytic_jet2, analytic_jet2_from, cross4, det4, dot,
                               fd_jet2, gram_schmidt_normals, norm, rotate, rotation_trig)
from rotsurf4.rotational import RotationalSurface, closed_forms_at

E1, E2, E3, E4 = (Vec4(1, 0, 0, 0), Vec4(0, 1, 0, 0),
                  Vec4(0, 0, 1, 0), Vec4(0, 0, 0, 1))

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def _vec(rng):
    return Vec4(rng.uniform(-2, 2), rng.uniform(-2, 2),
                rng.uniform(-2, 2), rng.uniform(-2, 2))


# ---------------------------------------------------------------------------
# dot / norm / det4 / cross4

def test_dot_basis_orthogonal():
    assert dot(E1, E2) == 0.0


def test_det4_identity():
    assert det4(E1, E2, E3, E4) == 1.0


def test_norm_example():
    assert norm(Vec4(1, 0, 2, 0)) == pytest.approx(math.sqrt(5), rel=1e-15)


def test_det4_against_numpy():
    rng = random.Random(11)
    for _ in range(50):
        rows = [_vec(rng) for _ in range(4)]
        expected = np.linalg.det(np.array([tuple(r) for r in rows]))
        assert det4(*rows) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_cross4_defines_determinant():
    rng = random.Random(12)
    for _ in range(50):
        a, b, c, w = (_vec(rng) for _ in range(4))
        assert dot(cross4(a, b, c), w) == pytest.approx(det4(a, b, c, w),
                                                        rel=1e-12, abs=1e-12)


def test_cross4_basis():
    assert tuple(cross4(E1, E2, E3)) == (0.0, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# double rotation of the meridian

def _surface(f_text, g_text, alpha=1.0, beta=2.0):
    return RotationalSurface(Profile.from_text(f_text), Profile.from_text(g_text), alpha, beta)


def test_double_rotation_of_plane_meridian():
    m = _surface("u", "u^2").as_map()
    u, v = 1.3, 0.7
    expected = Vec4(1.3 * math.cos(v), 1.3 * math.sin(v),
                    1.69 * math.cos(2 * v), 1.69 * math.sin(2 * v))
    assert vec_dev(m(u, v), expected) <= 1e-15


def test_double_rotation_identity_at_v0():
    s = _surface("u", "u^2")
    m = s.as_map()
    for u in (0.5, 1.0, 2.0):
        assert vec_dev(m(u, 0.0), s.meridian_at(u)) == 0.0


@settings(max_examples=60)
@given(st.floats(min_value=0.3, max_value=2.5),
       st.floats(min_value=0.0, max_value=6.2),
       st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.5, max_value=3.0))
def test_double_rotation_preserves_plane_radii(u, v, alpha, beta):
    assume(alpha != beta)
    s = _surface("u", "u^2 - 1", alpha, beta)
    p = s.as_map()(u, v)
    q = s.meridian_at(u)
    assert abs((p.x1 ** 2 + p.x2 ** 2) - (q.x1 ** 2 + q.x2 ** 2)) <= 1e-12
    assert abs((p.x3 ** 2 + p.x4 ** 2) - (q.x3 ** 2 + q.x4 ** 2)) <= 1e-12


# meridians whose values take either sign and both signed zeros
_SIGNED_MERIDIANS = (("u", "u^2"), ("u", "0*u"), ("-u", "u^3"), ("0*u", "-u"), ("u^3 - u", "u - 1"))


@settings(max_examples=300, derandomize=True)
@given(st.sampled_from(_SIGNED_MERIDIANS),
       st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                 st.floats(min_value=-5.0, max_value=5.0)),
       st.one_of(st.sampled_from((0.0, -0.0)), st.floats(min_value=-7.0, max_value=7.0)),
       st.floats(min_value=0.25, max_value=4.0),
       st.floats(min_value=0.25, max_value=4.0))
def test_surface_map_is_the_written_out_rotation(meridian, u, v, alpha, beta):
    assume(alpha != beta)
    s = _surface(*meridian, alpha, beta)
    f, g = s.f.value(u), s.g.value(u)
    ca, sa = math.cos(alpha * v), math.sin(alpha * v)
    cb, sb = math.cos(beta * v), math.sin(beta * v)
    expected = (f * ca - 0.0 * sa, f * sa + 0.0 * ca, g * cb - 0.0 * sb, g * sb + 0.0 * cb)
    assert [x.hex() for x in s.as_map()(u, v)] == [x.hex() for x in expected]


def _fresh_point(s, u, v):
    return [x.hex() for x in rotate(s.meridian_at(u), rotation_trig(s.alpha, s.beta, v))]


# few distinct values, so calls repeat and interleave; both signed zeros
_MEMO_US = st.sampled_from((0.0, -0.0, 0.5, -1.25, 1.0 + 1e-4, 2.0, 3.0))
_MEMO_VS = st.sampled_from((0.0, -0.0, 0.7, -2.5, 1e-4, 4.0))


@settings(max_examples=200, derandomize=True)
@given(st.sampled_from(_SIGNED_MERIDIANS), st.lists(st.tuples(_MEMO_US, _MEMO_VS), max_size=30),
       st.floats(min_value=0.25, max_value=4.0), st.floats(min_value=0.25, max_value=4.0))
def test_surface_map_remembers_exactly_the_fresh_reads(meridian, calls, alpha, beta):
    # the map remembers meridian points and trig per value; every call,
    # first or repeated, is the fresh rotation of fresh reads to the bit
    assume(alpha != beta)
    s = _surface(*meridian, alpha, beta)
    m = s.as_map()
    for u, v in calls:
        assert [x.hex() for x in m(u, v)] == _fresh_point(s, u, v)


def test_surface_map_keeps_each_sign_of_zero():
    # f = -u is -0.0 at u = 0.0, and x1 = f cos(av) - 0.0 sin(av) is then
    # -0.0 only where sin(av) is +0.0: a shared u or v entry for the two
    # zeros would carry the first call's sign of x1 over to the second
    s = _surface("-u", "u^3")
    m = s.as_map()
    points = {}
    for u, v in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                 (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)):
        point = [x.hex() for x in m(u, v)]
        assert point == _fresh_point(s, u, v)
        points[(math.copysign(1.0, u), math.copysign(1.0, v))] = point
    assert points[(1.0, 1.0)][0] == "-0x0.0p+0"
    assert points[(-1.0, 1.0)][0] == points[(1.0, -1.0)][0] == "0x0.0p+0"


@pytest.mark.parametrize("u, v, error, message", [
    (-1.0, 0.5, EvalDomainError, "log of non-positive value -1.0"),
    (0.0, 0.5, EvalDomainError, "log of non-positive value 0.0"),
    (1.5, 1e308, GeometryError, "rotation angle overflows at v=1e+308"),
])
def test_surface_map_raises_again_on_a_raising_read(u, v, error, message):
    # a read that raises is not remembered: the same call raises the same
    # error again, and the map still answers where the reads are defined
    s = _surface("log(u)", "u", 1.0, 2.0)
    m = s.as_map()
    for _ in range(2):
        with pytest.raises(error) as caught:
            m(u, v)
        assert str(caught.value).endswith(message)
    assert [x.hex() for x in m(1.5, 0.5)] == _fresh_point(s, 1.5, 0.5)


# ---------------------------------------------------------------------------
# analytic jets

@settings(max_examples=300, derandomize=True)
@given(st.sampled_from(_SIGNED_MERIDIANS),
       st.one_of(st.sampled_from((1.0, -1.0)), st.floats(min_value=-5.0, max_value=5.0)),
       st.one_of(st.sampled_from((0.0, -0.0)), st.floats(min_value=-7.0, max_value=7.0)),
       st.floats(min_value=0.25, max_value=4.0),
       st.floats(min_value=0.25, max_value=4.0))
def test_jet_builder_is_the_analytic_jet(meridian, u, v, alpha, beta):
    assume(alpha != beta)
    s = _surface(*meridian, alpha, beta)
    try:
        expected = reference_analytic_jet2(s, u, v)
    except RegularityError:
        return
    built = analytic_jet2_from(alpha, beta, s.meridian_jet(u), rotation_trig(alpha, beta, v))
    for jet in (built, analytic_jet2(s, u, v)):
        assert ([x.hex() for vec in field_values(jet) for x in vec]
                == [x.hex() for vec in field_values(expected) for x in vec])


def test_analytic_jet_running_example(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    assert tuple(jet.z) == (1.0, 0.0, 1.0, 0.0)
    assert tuple(jet.z_u) == (1.0, 0.0, 2.0, 0.0)
    assert vec_dev(jet.z_v, Vec4(0, 1, 0, 2)) == 0.0
    assert tuple(jet.z_uu) == (0.0, 0.0, 2.0, 0.0)
    assert vec_dev(jet.z_uv, Vec4(0, 1, 0, 4)) == 0.0
    assert vec_dev(jet.z_vv, Vec4(-1, 0, -4, 0)) == 0.0


def test_analytic_jet_regularity_violation():
    # f = u, g = 0: radii vanish at u = 0
    s = RotationalSurface(Profile.from_text("u"), Profile.from_text("0"), 1.0, 2.0)
    with pytest.raises(RegularityError):
        analytic_jet2(s, 0.0, 0.0)


@pytest.mark.parametrize("f_text, g_text, message", [
    ("u", "0", "rotation radii vanish at u=0.0"),
    ("1", "1", "meridian speed vanishes at u=0.0"),
    ("0", "0", "rotation radii vanish at u=0.0"),  # both vanish: the radii come first
])
def test_analytic_jet_and_closed_forms_share_regularity_errors(f_text, g_text, message):
    s = _surface(f_text, g_text)
    with pytest.raises(RegularityError) as jet_error:
        analytic_jet2(s, 0.0, 0.5)
    with pytest.raises(RegularityError) as forms_error:
        closed_forms_at(s, 0.0)
    assert str(jet_error.value) == str(forms_error.value) == message


# ---------------------------------------------------------------------------
# finite-difference jets

def test_fd_jet_matches_analytic(parabola):
    amap = parabola.as_map()
    for (u, v) in ((1.0, 0.0), (0.7, 1.9), (1.8, 4.4)):
        assert jet_dev(analytic_jet2(parabola, u, v),
                       fd_jet2(amap, u, v, 1e-4)) <= 1e-6


def test_fd_jet_affine_map_second_partials_vanish():
    jet = fd_jet2(lambda u, v: Vec4(u, v, 0.0, 0.0), 0.3, -0.8)
    for part in (jet.z_uu, jet.z_uv, jet.z_vv):
        assert max(abs(c) for c in part) <= 1e-10
    assert vec_dev(jet.z_u, Vec4(1, 0, 0, 0)) <= 1e-12
    assert vec_dev(jet.z_v, Vec4(0, 1, 0, 0)) <= 1e-12


def test_fd_jet_constant_map():
    jet = fd_jet2(lambda u, v: Vec4(2.0, -1.0, 0.5, 3.0), 0.0, 0.0)
    assert max(abs(c) for c in jet.z_u) == 0.0
    assert max(abs(c) for c in jet.z_v) == 0.0


def test_fd_jet_richardson_beats_plain(parabola):
    amap = parabola.as_map()
    ja = analytic_jet2(parabola, 1.0, 0.5)
    plain = jet_dev(ja, fd_jet2(amap, 1.0, 0.5, 1e-3, richardson=False))
    extrapolated = jet_dev(ja, fd_jet2(amap, 1.0, 0.5, 1e-3))
    assert extrapolated < plain


def test_fd_jet_rejects_bad_step(parabola):
    with pytest.raises(ValueError):
        fd_jet2(parabola.as_map(), 1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# normal frames

def _orthonormality_residual(jet, e1, e2):
    return max(abs(norm(e1) - 1.0), abs(norm(e2) - 1.0), abs(dot(e1, e2)),
               abs(dot(e1, jet.z_u)), abs(dot(e1, jet.z_v)),
               abs(dot(e2, jet.z_u)), abs(dot(e2, jet.z_v)))


def test_gram_schmidt_matches_closed_frame(parabola):
    jet = analytic_jet2(parabola, 1.0, 0.0)
    e1, e2 = gram_schmidt_normals(jet)
    _, _, n1, n2 = frames_at(parabola, 1.0, 0.0)
    # same plane, same orientation: the projection matrix is a rotation
    proj = ((dot(e1, n1), dot(e1, n2)), (dot(e2, n1), dot(e2, n2)))
    det = proj[0][0] * proj[1][1] - proj[0][1] * proj[1][0]
    assert abs(det - 1.0) <= 1e-12


def test_gram_schmidt_plane_jet():
    jet = Jet2(Vec4(0, 0, 0, 0), E1, E2,
               Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
    e1, e2 = gram_schmidt_normals(jet)
    assert abs(e1.x1) <= 1e-15 and abs(e1.x2) <= 1e-15
    assert abs(e2.x1) <= 1e-15 and abs(e2.x2) <= 1e-15
    assert det4(jet.z_u, jet.z_v, e1, e2) > 0.0


def test_gram_schmidt_orthonormality_random_jets():
    rng = random.Random(13)
    done = 0
    while done < 100:
        zu, zv = _vec(rng), _vec(rng)
        ee, ff, gg = dot(zu, zu), dot(zu, zv), dot(zv, zv)
        if ee * gg - ff * ff <= 1e-6:
            continue
        jet = Jet2(Vec4(0, 0, 0, 0), zu, zv,
                   Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
        e1, e2 = gram_schmidt_normals(jet)
        assert _orthonormality_residual(jet, e1, e2) <= 1e-12 * max(1.0, norm(zu), norm(zv))
        assert det4(zu, zv, e1, e2) > 0.0
        done += 1


def test_gram_schmidt_degenerate_tangent_plane():
    jet = Jet2(Vec4(0, 0, 0, 0), E1, E1 * 2.0,
               Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0), Vec4(0, 0, 0, 0))
    with pytest.raises(DegenerateMetricError):
        gram_schmidt_normals(jet)


def test_gram_schmidt_rejects_nan_tangent():
    z = Vec4(0, 0, 0, 0)
    jet = Jet2(z, Vec4(math.nan, 0, 0, 0), Vec4(0, 1, 0, 0), z, z, z)
    with pytest.raises(DegenerateMetricError, match="tangent plane degenerate"):
        gram_schmidt_normals(jet)


@settings(max_examples=300, derandomize=True)
@given(st.builds(Vec4, finite_floats, finite_floats, finite_floats, finite_floats),
       st.floats(min_value=-3.0, max_value=3.0))
@example(Vec4(0.6715302078397394, -0.13446586418989326, 0.524560164915884,
              -0.9957878932977786), -0.3276768356711912)
def test_exact_multiples_are_collinear(zu, c):
    # z_v = c z_u can leave EG - F^2 a rounding residue > 0 and the residual
    # of z_v a few ulps of |z_v| long; no frame and no forms come from that
    z = Vec4(0.0, 0.0, 0.0, 0.0)
    jet = Jet2(z, zu, zu * c, z, z, z)
    for build in (gram_schmidt_normals, generic_at):
        with pytest.raises(DegenerateMetricError):
            build(jet)


# ---------------------------------------------------------------------------
# the scalar kernel against the Vec4-based reference, bit for bit

# signed zeros and small integers make axis-aligned vectors, on which the
# seed residuals tie and the lowest index must win
kernel_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -0.5]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
kernel_vecs = st.builds(Vec4, kernel_floats, kernel_floats, kernel_floats, kernel_floats)
axis_vecs = st.builds(lambda i, s: Vec4(*(s if j == i else 0.0 for j in range(4))),
                      st.integers(0, 3), st.sampled_from([1.0, -1.0, 2.5, -3.0]))


def _hex(v):
    return tuple(float.hex(c) for c in v)


def _frame_or_error(fn, jet):
    try:
        e1, e2 = fn(jet)
    except DegenerateMetricError as exc:
        return str(exc)
    return _hex(e1), _hex(e2)


@settings(max_examples=400)
@given(st.one_of(kernel_vecs, axis_vecs), st.one_of(kernel_vecs, axis_vecs))
def test_gram_schmidt_bit_identical_to_reference(zu, zv):
    zero = Vec4(0.0, 0.0, 0.0, 0.0)
    jet = Jet2(zero, zu, zv, zero, zero, zero)
    assert (_frame_or_error(gram_schmidt_normals, jet)
            == _frame_or_error(reference_gram_schmidt_normals, jet))


def test_gram_schmidt_axis_ties_pick_lowest_index():
    zero = Vec4(0.0, 0.0, 0.0, 0.0)
    jet = Jet2(zero, Vec4(1.0, 0.0, 0.0, 0.0), Vec4(0.0, 1.0, 0.0, 0.0), zero, zero, zero)
    e1, e2 = gram_schmidt_normals(jet)
    assert e1 == Vec4(0.0, 0.0, 1.0, 0.0) and e2 == Vec4(0.0, 0.0, 0.0, 1.0)
    assert _frame_or_error(reference_gram_schmidt_normals, jet) == (_hex(e1), _hex(e2))


@settings(max_examples=400)
@given(st.one_of(kernel_vecs, axis_vecs), st.one_of(kernel_vecs, axis_vecs),
       st.one_of(kernel_vecs, axis_vecs), st.one_of(kernel_vecs, axis_vecs))
def test_det4_cross4_bit_identical_to_reference(a, b, c, d):
    assert float.hex(det4(a, b, c, d)) == float.hex(reference_det4(a, b, c, d))
    assert _hex(cross4(a, b, c)) == _hex(reference_cross4(a, b, c))


def test_vec4_value_semantics():
    a = Vec4(1.0, -0.0, 2.5, 3.0)
    assert a == Vec4(1.0, -0.0, 2.5, 3.0)
    assert a != Vec4(1.0, -0.0, 2.5, 4.0)
    assert repr(a) == "Vec4(x1=1.0, x2=-0.0, x3=2.5, x4=3.0)"
    assert tuple(a) == (1.0, -0.0, 2.5, 3.0)
