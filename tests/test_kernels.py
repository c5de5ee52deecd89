"""The generic oracle's component kernels against their Vec4 references in
``helpers``, bit for bit: every float by ``float.hex`` (so signed zeros
count), every error by class and message."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_surface
from helpers import (field_values, octet_tuple, reference_fd_jet2, reference_frame_free_invariants,
                     reference_generic_parts, reference_octet_generic, reference_tangent_basis,
                     reference_tangent_form)
from rotsurf4.forms import _plane, generic_at, generic_invariants
from rotsurf4.geometry import Jet2, RegularityError, Vec4, analytic_jet2, fd_jet2, tangent_basis
from rotsurf4.octet import _STEP, octet_generic

special_floats = st.one_of(
    st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 1e308, -1e308,
                     5e-324, 1e-160)),
    st.floats())
# signed zeros and small integers make components tie
plain_floats = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, -0.5)),
                         st.floats(min_value=-1e3, max_value=1e3))


@st.composite
def special_vecs(draw):
    """A vector of plain components, one of which is special in one draw of four."""
    comps = [draw(plain_floats) for _ in range(4)]
    if draw(st.integers(0, 3)) == 3:
        comps[draw(st.integers(0, 3))] = draw(special_floats)
    return Vec4(*comps)


ZERO = Vec4(0.0, 0.0, 0.0, 0.0)


def _hex(values):
    return [float.hex(x) if isinstance(x, float) else x for x in values]


def _outcome(fn):
    """The hex of the floats ``fn`` returns, or the class and message of its error."""
    try:
        return _hex(fn())
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def tangent_pairs(draw):
    """(z_u, z_v) drawn independently, with z_v an exact multiple of z_u, or
    with z_u zero."""
    zu, zv = draw(special_vecs()), draw(special_vecs())
    shape = draw(st.sampled_from(("free", "free", "free", "collinear", "zero")))
    if shape == "collinear":
        zv = zu * draw(plain_floats)
    elif shape == "zero":
        zu = draw(st.sampled_from((ZERO, -ZERO)))
    return zu, zv


@st.composite
def kernel_jets(draw):
    zu, zv = draw(tangent_pairs())
    return Jet2(draw(special_vecs()), zu, zv, draw(special_vecs()), draw(special_vecs()),
                draw(special_vecs()))


def _jet_values(jet):
    return [x for part in (jet.z, jet.z_u, jet.z_v, jet.z_uu, jet.z_uv, jet.z_vv) for x in part]


def _fd_outcome(fd, points, fail_at, u, v, h, richardson):
    """fd's outcome on a map that returns ``points`` in call order and raises
    at call ``fail_at``, with the arguments of every call."""
    calls = []

    def surface_map(uu, vv):
        calls.append(_hex((uu, vv)))
        if len(calls) - 1 == fail_at:
            raise RegularityError(f"no point at call {fail_at}")
        return points[len(calls) - 1]

    return _outcome(lambda: _jet_values(fd(surface_map, u, v, h, richardson=richardson))), calls


# points 1e-300 apart, so quotients by a subnormal h h stay finite
_POINTS = [Vec4(1.0 + i, 2.0 - i * i, 0.5 * i, -1.0 / (i + 1)) * 1e-300 for i in range(17)]


@settings(max_examples=300, deadline=None)
@given(st.lists(special_vecs(), min_size=17, max_size=17),
       st.one_of(st.just(-1), st.integers(0, 16)), special_floats, special_floats,
       st.one_of(st.none(), st.floats(min_value=1e-6, max_value=1.0), special_floats),
       st.booleans())
@example(_POINTS, -1, 1.0, 2.0, 3e-161, True)  # h h is subnormal: 4 h h is (4 h) h
def test_fd_jet2_is_the_vec4_reference(points, fail_at, u, v, h, richardson):
    assert (_fd_outcome(fd_jet2, points, fail_at, u, v, h, richardson)
            == _fd_outcome(reference_fd_jet2, points, fail_at, u, v, h, richardson))


def _form_values(ff):
    return ff.E, ff.F, ff.G, ff.W


_ZU = Vec4(0.6715302078397394, -0.13446586418989326, 0.524560164915884, -0.9957878932977786)


@settings(max_examples=500, deadline=None)
@given(tangent_pairs())
@example((_ZU, _ZU * -0.3276768356711912))  # EG - F^2 > 0, but the residual is rounding
def test_tangent_guard_is_the_vec4_reference(pair):
    # also: wherever the guard passes, first_form's own check passes
    zu, zv = pair
    jet = Jet2(ZERO, zu, zv, ZERO, ZERO, ZERO)
    assert (_outcome(lambda: [x for t in tangent_basis(zu, zv) for x in t])
            == _outcome(lambda: [x for t in reference_tangent_basis(zu, zv) for x in t]))
    assert (_outcome(lambda: _plane(jet)[2:])
            == _outcome(lambda: _form_values(reference_tangent_form(jet))))


def _parts_values(parts):
    ff, *normals = parts
    return [*_form_values(ff), *(x for n in normals for x in n)]


@settings(max_examples=300, deadline=None)
@given(kernel_jets())
def test_generic_at_is_the_vec4_reference(jet):
    assert (_outcome(lambda: _parts_values(generic_at(jet)))
            == _outcome(lambda: _parts_values(reference_generic_parts(jet))))


@settings(max_examples=300, deadline=None)
@given(kernel_jets())
def test_generic_invariants_is_the_vec4_reference(jet):
    assert (_outcome(lambda: field_values(generic_invariants(jet, *generic_at(jet))))
            == _outcome(lambda: field_values(
                reference_frame_free_invariants(jet, *reference_generic_parts(jet)))))


_STENCIL = ((-_STEP, 0.0), (_STEP, 0.0), (0.0, -_STEP), (0.0, _STEP))
_MERIDIANS = (("u", "u^2"), ("u", "u^3"), ("3*u - 1", "0.5"), ("u", "sin(u)*exp(-u^2)+sqrt(u)"))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_MERIDIANS),
       st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=-3.0, max_value=3.0),
       st.lists(st.one_of(st.none(), kernel_jets()), min_size=4, max_size=4))
def test_octet_stencil_is_the_vec4_reference(meridian, u, v, drawn):
    # a principal centre, and stencil jets that are the surface's or drawn,
    # so the b direction, its sign alignment and the differences meet
    # signed zeros, NaN, inf, collinear tangents and a zero z_u
    surface = make_surface(*meridian, 1.0, 2.0)
    stencil = {(u + du, v + dv): jet for (du, dv), jet in zip(_STENCIL, drawn)}

    def jet_at(uu, vv):
        return stencil.get((uu, vv)) or analytic_jet2(surface, uu, vv)

    assert (_outcome(lambda: octet_tuple(octet_generic(jet_at, u, v)))
            == _outcome(lambda: octet_tuple(reference_octet_generic(jet_at, u, v))))


def _centre(data, jet):
    """The surface's principal jet, a drawn jet, or the surface's jet with
    some parts drawn or replaced by tangential combinations a z_u + b z_v:
    a drawn z_u or z_v makes F nonzero or the plane degenerate, a drawn z_uv
    ("twisted") makes M nonzero, a tangential z_uu leaves only sigma(y,y) to
    give b, and a tangential z_vv as well ("flat") leaves b undefined."""
    shape = data.draw(st.sampled_from(("surface", "drawn", "parts", "parts", "flat", "twisted")))
    if shape == "surface":
        return jet
    if shape == "drawn":
        return data.draw(kernel_jets())
    parts = {name: getattr(jet, name) for name in ("z", "z_u", "z_v", "z_uu", "z_uv", "z_vv")}
    names = {"flat": ("z_uu", "z_vv"), "twisted": ("z_uv",)}.get(shape) or data.draw(
        st.sets(st.sampled_from(("z_u", "z_v", "z_uu", "z_uv", "z_vv")), min_size=1))
    for name in names:
        if shape != "flat" and (shape == "twisted" or data.draw(st.booleans())):
            parts[name] = data.draw(special_vecs())
        else:
            parts[name] = jet.z_u * data.draw(plain_floats) + jet.z_v * data.draw(plain_floats)
    return Jet2(**parts)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_MERIDIANS), st.floats(min_value=0.5, max_value=2.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.lists(st.one_of(st.none(), kernel_jets()), min_size=4, max_size=4), st.data())
def test_octet_centre_is_the_vec4_reference(meridian, u, v, drawn, data):
    # the centre drawn as well as the stencil, so non-principal, degenerate
    # and totally geodesic centres, and b from sigma(y,y), meet the reference
    surface = make_surface(*meridian, 1.0, 2.0)
    points = {(u + du, v + dv): jet for (du, dv), jet in zip(_STENCIL, drawn)}
    points[u, v] = _centre(data, analytic_jet2(surface, u, v))

    def jet_at(uu, vv):
        return points.get((uu, vv)) or analytic_jet2(surface, uu, vv)

    assert (_outcome(lambda: octet_tuple(octet_generic(jet_at, u, v)))
            == _outcome(lambda: octet_tuple(reference_octet_generic(jet_at, u, v))))
