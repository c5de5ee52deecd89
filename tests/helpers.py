"""Shared test utilities, kept independent of the library internals where
they act as oracles (tolerance math, finite differences, random trees, the
tree-walking evaluator, the unfolded and the folded tree differentiators,
the Vec4-based frame kernel, the Vec4 forms of the generic oracle's
per-point kernels: fd_jet2, the tangent guard, the normal parts, the
second form and the invariant record, the framed generic pipeline, the
per-point ``export``, closed-form row and ``verify`` loops, the closed
formulas as one function per table part, the deviation
expressions, the octet with both normal parts built up front, the
csv-module CSV writer, the canonical frame of the family and the Frenet
curvatures of its v-lines)."""

import csv
import math
import random
import sys
from typing import NamedTuple

from rotsurf4 import msc as msc_mod
from rotsurf4.cli import (_INVARIANT_HEADER, _OCTET_HEADER, EXIT_OK, EXIT_VERIFY, _at,
                          _build_config, _Check, _PointError, _rel, _svg_line_plot, _write_out,
                          cmd_plot)
from rotsurf4.expr import (Binary, Constant, EvalDomainError, Unary, Variable, _finite, _power,
                           evaluate)
from rotsurf4.forms import (NonFiniteInvariantError, SecondForm, _defect, classify, first_form,
                            invariants, is_circle, lmn, second_tensor, superconformal_residuals)
from rotsurf4.geometry import (_FLOOR, DegenerateMetricError, GeometryError, Jet2,
                               RegularityError, Vec4, dot, gram_schmidt_normals, norm,
                               rotation_trig)
from rotsurf4.octet import (_STEP, FrenetOctet, NonPrincipalParamsError, TotallyGeodesicError,
                            gauge_flip, invariants_from_octet)
from rotsurf4.rotational import (ClosedFormRangeError, closed_forms_at, closed_invariants_at,
                                 closed_octet_at)


def field_values(record) -> list:
    """The field values of a record in field order, its ``__match_args__``
    (slotted records have no ``vars``)."""
    return [getattr(record, name) for name in type(record).__match_args__]


def rel_dev(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def vec_dev(a, b) -> float:
    return max(rel_dev(x, y) for x, y in zip(a, b))


def jet_dev(j1, j2) -> float:
    return max(vec_dev(getattr(j1, name), getattr(j2, name))
               for name in ("z", "z_u", "z_v", "z_uu", "z_uv", "z_vv"))


def octet_tuple(o: FrenetOctet):
    return (o.gamma1, o.gamma2, o.nu1, o.nu2, o.lam, o.mu, o.beta1, o.beta2)


def octet_dev(a: FrenetOctet, b: FrenetOctet) -> float:
    """Componentwise deviation up to the (b, l) -> (-b, -l) gauge flip."""
    ta, tb = octet_tuple(a), octet_tuple(b)
    flipped = (tb[0], tb[1], -tb[2], -tb[3], -tb[4], -tb[5], tb[6], tb[7])
    direct = max(rel_dev(x, y) for x, y in zip(ta, tb))
    mirror = max(rel_dev(x, y) for x, y in zip(ta, flipped))
    return min(direct, mirror)


def num(x: float) -> str:
    """A number as the CLI writes it: 17 significant digits."""
    return f"{x:.17g}"


def central_diff(fn, u: float, h: float) -> float:
    return (fn(u + h) - fn(u - h)) / (2.0 * h)


_UNARY_OPS = ("neg", "sin", "cos", "exp", "log", "sqrt")
_BINARY_OPS = ("+", "-", "*", "/")
_EXPONENTS = (-2.0, -1.0, -0.5, 0.5, 1.5, 2.0, 3.0)


def random_expr(rng: random.Random, depth: int):
    """A random well-formed tree of the given maximum depth; exponents are
    constants so the derivative stays within the power rule."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.6:
            return Variable()
        return Constant(round(rng.uniform(-3.0, 3.0), 3))
    kind = rng.random()
    if kind < 0.4:
        return Unary(rng.choice(_UNARY_OPS), random_expr(rng, depth - 1))
    if kind < 0.85:
        return Binary(rng.choice(_BINARY_OPS),
                      random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return Binary("^", random_expr(rng, depth - 1), Constant(rng.choice(_EXPONENTS)))


def tame_at(e, u: float, h: float, bound: float = 1e4) -> bool:
    """True when the tree evaluates to moderate values on the whole
    five-point stencil around u (keeps the FD comparison meaningful)."""
    try:
        for uu in (u - 2 * h, u - h, u, u + h, u + 2 * h):
            if abs(evaluate(e, uu)) > bound:
                return False
    except Exception:
        return False
    return True


def reference_evaluate(e, u: float) -> float:
    """A tree evaluated at ``u`` by walking it, each domain rule checked on
    the operand before the float function runs: the oracle for the closures
    of ``rotsurf4.expr.compile_expr`` (value, error node and message).  The
    finiteness rule of + - * / and ``^`` are the library's own helpers."""
    ev = reference_evaluate
    match e:
        case Constant(v):
            return v
        case Variable():
            return u
        case Unary("neg", child):
            return -ev(child, u)
        case Unary("sin", child):
            return math.sin(ev(child, u))
        case Unary("cos", child):
            return math.cos(ev(child, u))
        case Unary("exp", child):
            try:
                return math.exp(ev(child, u))
            except OverflowError:
                raise EvalDomainError(e, "overflow") from None
        case Unary("log", child):
            v = ev(child, u)
            if v <= 0.0:
                raise EvalDomainError(e, f"log of non-positive value {v!r}")
            return math.log(v)
        case Unary("sqrt", child):
            v = ev(child, u)
            if v < 0.0:
                raise EvalDomainError(e, f"square root of negative value {v!r}")
            return math.sqrt(v)
        case Binary("+", a, b):
            return _finite(e, ev(a, u) + ev(b, u))
        case Binary("-", a, b):
            return _finite(e, ev(a, u) - ev(b, u))
        case Binary("*", a, b):
            return _finite(e, ev(a, u) * ev(b, u))
        case Binary("/", a, b):
            num = ev(a, u)
            den = ev(b, u)
            if den == 0.0:
                raise EvalDomainError(e, "division by zero")
            return _finite(e, num / den)
        case Binary("^", a, b):
            return _power(e, ev(a, u), ev(b, u))
    raise TypeError(f"not an expression node: {e!r}")


def reference_differentiate(e):
    """The symbolic derivative built node for node by the textbook rules,
    with nothing folded: the oracle for ``rotsurf4.expr.differentiate``."""
    d = reference_differentiate
    match e:
        case Constant(_):
            return Constant(0.0)
        case Variable():
            return Constant(1.0)
        case Unary("neg", child):
            return Unary("neg", d(child))
        case Unary("sin", child):
            return Binary("*", Unary("cos", child), d(child))
        case Unary("cos", child):
            return Unary("neg", Binary("*", Unary("sin", child), d(child)))
        case Unary("exp", child):
            return Binary("*", e, d(child))
        case Unary("log", child):
            return Binary("/", d(child), child)
        case Unary("sqrt", child):
            return Binary("/", d(child), Binary("*", Constant(2.0), e))
        case Binary("+" | "-" as op, a, b):
            return Binary(op, d(a), d(b))
        case Binary("*", a, b):
            return Binary("+", Binary("*", d(a), b), Binary("*", a, d(b)))
        case Binary("/", a, b):
            return Binary("/", Binary("-", Binary("*", d(a), b), Binary("*", a, d(b))),
                          Binary("^", b, Constant(2.0)))
        case Binary("^", a, Constant(p)):
            if p == 0.0:
                return Constant(0.0)
            return Binary("*", Binary("*", Constant(p), Binary("^", a, Constant(p - 1.0))),
                          d(a))
        case Binary("^", a, b):
            return Binary("*", e, Binary("+", Binary("*", d(b), Unary("log", a)),
                                         Binary("/", Binary("*", b, d(a)), a)))
    raise TypeError(f"not an expression node: {e!r}")


_ONE = Constant(1.0)
_FOLD_FN = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y,
            "/": lambda x, y: x / y}


def _reference_fold(op: str, a, b):
    """``Binary(op, a, b)`` with ``1*x``, ``x*1``, ``x - (+0)`` and finite
    constant operations folded, the node kept where the operation raises."""
    if op == "*":
        if a == _ONE:
            return b
        if b == _ONE:
            return a
    elif (op == "-" and isinstance(b, Constant) and b.value == 0.0
          and math.copysign(1.0, b.value) > 0.0):
        return a
    node = Binary(op, a, b)
    if isinstance(a, Constant) and isinstance(b, Constant):
        x, y = a.value, b.value
        try:
            if op == "^":
                return Constant(_power(node, x, y))
            return Constant(_finite(node, _FOLD_FN[op](x, y)))
        except (EvalDomainError, ZeroDivisionError):
            pass
    return node


def reference_folded_differentiate(e, _memo=None):
    """The folded symbolic derivative as a recursive tree rewrite, one tree
    node per rule application (a node object met again is given its
    derivative object again): the oracle for the derivatives that
    ``rotsurf4.expr`` builds on its tape."""
    if _memo is None:
        _memo = {}
    else:
        d = _memo.get(id(e))
        if d is not None:
            return d

    def d(x):
        return reference_folded_differentiate(x, _memo)

    fold = _reference_fold
    match e:
        case Constant(_):
            out = Constant(0.0)
        case Variable():
            out = Constant(1.0)
        case Unary("neg", child):
            out = Unary("neg", d(child))
        case Unary("sin", child):
            out = fold("*", Unary("cos", child), d(child))
        case Unary("cos", child):
            out = Unary("neg", fold("*", Unary("sin", child), d(child)))
        case Unary("exp", child):
            out = fold("*", e, d(child))
        case Unary("log", child):
            out = fold("/", d(child), child)
        case Unary("sqrt", child):
            out = fold("/", d(child), fold("*", Constant(2.0), e))
        case Binary("+" | "-" as op, a, b):
            out = fold(op, d(a), d(b))
        case Binary("*", a, b):
            out = fold("+", fold("*", d(a), b), fold("*", a, d(b)))
        case Binary("/", a, b):
            out = fold("/", fold("-", fold("*", d(a), b), fold("*", a, d(b))),
                       fold("^", b, Constant(2.0)))
        case Binary("^", a, Constant(p)):
            if p == 0.0:
                out = Constant(0.0)
            else:
                out = fold("*", fold("*", Constant(p), fold("^", a, Constant(p - 1.0))), d(a))
        case Binary("^", a, b):
            out = fold("*", e, fold("+", fold("*", d(b), Unary("log", a)),
                                    fold("/", fold("*", b, d(a)), a)))
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    _memo[id(e)] = out
    return out


# ---------------------------------------------------------------------------
# The frame kernel written with Vec4 arithmetic throughout: the bit-for-bit
# oracle for the scalar ``rotsurf4.geometry`` det4 and gram_schmidt_normals,
# and for the minors that give the octet's l.

def _reference_det3(r1, r2, r3) -> float:
    return (r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
            - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
            + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0]))


def reference_det4(a, b, c, d) -> float:
    head = tuple(a)
    rows = (tuple(b), tuple(c), tuple(d))
    total = 0.0
    for j, sign in enumerate((1.0, -1.0, 1.0, -1.0)):
        minor = [r[:j] + r[j + 1:] for r in rows]
        total += sign * head[j] * _reference_det3(*minor)
    return total


def reference_cross4(a, b, c):
    rows = (tuple(a), tuple(b), tuple(c))
    comps = []
    for j, sign in enumerate((-1.0, 1.0, -1.0, 1.0)):
        minor = [r[:j] + r[j + 1:] for r in rows]
        comps.append(sign * _reference_det3(*minor))
    return Vec4(*comps)


_REFERENCE_BASIS = (Vec4(1.0, 0.0, 0.0, 0.0), Vec4(0.0, 1.0, 0.0, 0.0),
                    Vec4(0.0, 0.0, 1.0, 0.0), Vec4(0.0, 0.0, 0.0, 1.0))


def reference_gram_schmidt_normals(jet):
    zu, zv = jet.z_u, jet.z_v
    ee = dot(zu, zu)
    ff = dot(zu, zv)
    gg = dot(zv, zv)
    if not (ee > 0.0 and ee * gg - ff * ff > 0.0):  # also rejects NaN
        raise DegenerateMetricError(
            f"tangent plane degenerate: EG-F^2 = {ee * gg - ff * ff!r}")
    t1 = zu / math.sqrt(ee)
    w = zv - t1 * dot(zv, t1)
    nw = norm(w)
    if nw / norm(zv) <= 32.0 * sys.float_info.epsilon:  # a residual that is only rounding
        raise DegenerateMetricError("tangent vectors are collinear")
    t2 = w / nw

    def pick(frame):
        best, best_norm = None, -1.0
        for cand in _REFERENCE_BASIS:
            r = cand
            for q in frame:
                r = r - q * dot(r, q)
            n = norm(r)
            if n > best_norm:
                best, best_norm = r, n
        return best, best_norm

    r1, n1 = pick((t1, t2))
    e1 = r1 / n1
    r2, n2 = pick((t1, t2, e1))
    e2 = r2 / n2
    if reference_det4(zu, zv, e1, e2) < 0.0:
        e2 = -e2
    return e1, e2


# ---------------------------------------------------------------------------
# The generic oracle's per-point kernels written with Vec4 arithmetic and a
# dict of parts: the bit-for-bit and error-text oracle for the component
# kernels of ``rotsurf4.geometry.fd_jet2`` and its tangent-plane guard and
# for ``rotsurf4.forms``' frame-free kernel under ``generic_values``,
# ``mean_curvature_vector`` and ``ellipse_samples``.

def reference_fd_jet2(surface_map, u, v, h=None, *, richardson=True):
    if h is None:
        h = 1e-4 * max(1.0, abs(u), abs(v))
    if h <= 0.0:
        raise ValueError("step must be positive")
    z = surface_map(u, v)
    parts = _reference_fd_parts(surface_map, u, v, h, z)
    if richardson:
        half = _reference_fd_parts(surface_map, u, v, h / 2.0, z)
        parts = {key: (half[key] * 4.0 - parts[key]) / 3.0 for key in parts}
    return Jet2(z=z, **parts)


def _reference_fd_parts(m, u, v, h, z):
    pu = m(u + h, v)
    mu = m(u - h, v)
    pv = m(u, v + h)
    mv = m(u, v - h)
    pp = m(u + h, v + h)
    pm = m(u + h, v - h)
    mp = m(u - h, v + h)
    mm = m(u - h, v - h)
    return {
        "z_u": (pu - mu) / (2.0 * h),
        "z_v": (pv - mv) / (2.0 * h),
        "z_uu": (pu - z * 2.0 + mu) / (h * h),
        "z_vv": (pv - z * 2.0 + mv) / (h * h),
        "z_uv": ((pp - pm) - (mp - mm)) / (4.0 * h * h),
    }


def reference_tangent_basis(zu, zv):
    ee = dot(zu, zu)
    ff = dot(zu, zv)
    gg = dot(zv, zv)
    if not (ee > 0.0 and ee * gg - ff * ff > 0.0):
        raise DegenerateMetricError(
            f"tangent plane degenerate: EG-F^2 = {ee * gg - ff * ff!r}")
    t1 = zu / math.sqrt(ee)
    w = zv - t1 * dot(zv, t1)
    nw = norm(w)
    if nw / math.sqrt(gg) <= _FLOOR:
        raise DegenerateMetricError("tangent vectors are collinear")
    return t1, w / nw


def reference_tangent_form(jet):
    """``first_form`` behind the guards of ``reference_tangent_basis``."""
    reference_tangent_basis(jet.z_u, jet.z_v)
    return first_form(jet)


def reference_normal_part(zij, jet, ff):
    a, b, det = dot(zij, jet.z_u), dot(zij, jet.z_v), ff.W * ff.W
    gu, gv = (ff.G * a - ff.F * b) / det, (ff.E * b - ff.F * a) / det
    return zij - jet.z_u * gu - jet.z_v * gv


def reference_generic_parts(jet):
    """(first form, n11, n12, n22): the first form and the normal parts of the kernel."""
    ff = reference_tangent_form(jet)
    return (ff, *(reference_normal_part(zij, jet, ff) for zij in (jet.z_uu, jet.z_uv, jet.z_vv)))


def reference_second_form(jet, ff, n11, n12, n22):
    """L, M, N of ``rotsurf4.forms.generic_values`` by the det4 areas on Vec4s."""
    zu, zv, w2 = jet.z_u, jet.z_v, ff.W * ff.W
    return SecondForm(2.0 * reference_det4(zu, zv, n11, n12) / w2,
                      reference_det4(zu, zv, n11, n22) / w2,
                      2.0 * reference_det4(zu, zv, n12, n22) / w2)


def reference_frame_free_invariants(jet, ff, n11, n12, n22):
    """``rotsurf4.forms.generic_values`` on Vec4s, with the point type: the
    invariant record from what ``reference_generic_parts`` returns, refused
    where E W^2 underflows to 0."""
    if ff.E * ff.W * ff.W == 0.0:  # although E, W > 0
        raise NonFiniteInvariantError(f"E W underflows to 0 at E={ff.E!r}, W={ff.W!r}")
    gauss = (dot(n11, n22) - dot(n12, n12)) / (ff.W * ff.W)
    return invariants(ff, reference_second_form(jet, ff, n11, n12, n22), gauss)


def reference_mean_curvature_vector(ff, n11, n12, n22):
    """``rotsurf4.forms.mean_curvature_vector`` from what ``reference_generic_parts`` returns."""
    return (n11 * ff.G - n12 * (2.0 * ff.F) + n22 * ff.E) / (2.0 * ff.W * ff.W)


def reference_ellipse_samples(ff, n11, n12, n22, n):
    """``rotsurf4.forms.ellipse_samples`` from what ``reference_generic_parts`` returns."""
    if n < 3:
        raise ValueError("need at least 3 samples")
    if ff.E * ff.W * ff.W == 0.0:  # although E, W > 0
        raise NonFiniteInvariantError(f"E W underflows to 0 at E={ff.E!r}, W={ff.W!r}")
    h = reference_mean_curvature_vector(ff, n11, n12, n22)
    a = n11 / ff.E - h
    sxy = (n12 * ff.E - n11 * ff.F) / (ff.E * ff.W)
    return [h + a * math.cos(t) + sxy * math.sin(t)
            for t in (2.0 * math.pi * j / n for j in range(n))]


# ---------------------------------------------------------------------------
# The generic pipeline through an orthonormal normal frame: the rounding-bound
# and error-text oracle for the frame-free ``rotsurf4.forms.generic_values``.

def reference_framed_forms(jet):
    """Normal frame (e1, e2), first form and second tensor of ``jet``; the
    frame comes first, so a degenerate jet raises its error message."""
    e1, e2 = gram_schmidt_normals(jet)
    ff = first_form(jet)
    return e1, e2, ff, second_tensor(jet, e1, e2)


def reference_framed_invariants(ff, ct):
    """The invariant record of the forms that ``reference_framed_forms`` returns,
    with K = <sigma(x,x), sigma(y,y)> - |sigma(x,y)|^2 on the orthonormalized
    tangent pair x = z_u/sqrt(E), y = (E z_v - F z_u)/(sqrt(E) W)."""
    E, F, W = ff.E, ff.F, ff.W
    try:
        sxx = (ct.c11_1 / E, ct.c11_2 / E)
        sxy = ((E * ct.c12_1 - F * ct.c11_1) / (E * W),
               (E * ct.c12_2 - F * ct.c11_2) / (E * W))
        syy = ((E * E * ct.c22_1 - 2.0 * E * F * ct.c12_1 + F * F * ct.c11_1) / (E * W * W),
               (E * E * ct.c22_2 - 2.0 * E * F * ct.c12_2 + F * F * ct.c11_2) / (E * W * W))
    except ZeroDivisionError:  # E W or E W^2 underflows although E, W > 0
        raise NonFiniteInvariantError(f"E W underflows to 0 at E={E!r}, W={W!r}") from None
    gauss = (sxx[0] * syy[0] + sxx[1] * syy[1]) - (sxy[0] * sxy[0] + sxy[1] * sxy[1])
    return invariants(ff, lmn(ct, W), gauss)


# ---------------------------------------------------------------------------
# ``export`` run one grid point at a time: each vertex through the surface map
# (``rotate`` on 4-tuples) and formatted number by number, each face by its own
# f-string, all lines joined at the end: the byte-for-byte and error-point
# oracle for ``rotsurf4.cli.cmd_export``, which builds one vertex chunk and
# one face chunk per u-row from the meridian read once per u and the rotation
# once per v.

def reference_export(args, parser) -> int:
    surface, us, vs = _build_config(args, parser, default_v=(0.0, 2.0 * math.pi, 24))
    nu, nv = len(us), len(vs)
    if nu < 2 or nv < 2:
        parser.error("export needs at least a 2x2 grid")
    surface_map, dropped = surface.as_map(), int(args.projection.removeprefix("drop"))
    lines = []
    for u in us:
        for v in vs:
            try:
                point = surface_map(u, v)
            except (GeometryError, EvalDomainError) as exc:
                raise _PointError(u, v, exc) from exc
            kept = [x for i, x in enumerate(point, 1) if i != dropped]
            lines.append("v " + " ".join(num(x) for x in kept))
    for i in range(nu - 1):
        for j in range(nv if args.close_v else nv - 1):
            a, d = i * nv + j + 1, i * nv + (j + 1) % nv + 1
            lines.append(f"f {a} {a + nv} {d + nv} {d}")
    _write_out(args.out, ("\n".join(lines) + "\n",))
    return EXIT_OK


# ---------------------------------------------------------------------------
# The closed-form grid commands computed one u at a time from the public
# ``closed_forms_at``, ``closed_invariants_at``, ``closed_octet_at`` and
# ``forms.invariants`` (an ``invariants`` row's K from ``reference_gauss``),
# with every CSV field (the ones the CLI's row formats
# write as a literal 0 included) written through the csv module: the
# byte-for-byte and error-point oracle for ``rotsurf4.cli``'s
# ``cmd_invariants``, ``cmd_octet`` and line ``cmd_plot``, which compute
# their rows in one loop over the whole-grid meridian jets, and for its
# ``_write_csv``.

def _reference_rows(us, v, closed):
    rows = []
    for u in us:
        try:
            rows.append(closed(u))
        except (GeometryError, EvalDomainError) as exc:
            raise _PointError(u, v, exc) from exc
    return rows


def reference_gauss(surface, u):
    """K at u by the formula of ``closed_invariants_at`` alone, from
    ``meridian_jet``: refused where its divisor (G E)^2 is 0 or inf, where a
    term of its numerator is 0 or subnormal with no zero factor, or where K
    is not finite, and not where only the closed k or kappa would be."""
    f, f1, f2, g, g1, g2, ee, gg = surface.meridian_jet(u)
    a, b = surface.alpha, surface.beta
    mixed = g * f1 - f * g1
    radial = b * b * g * f1 - a * a * f * g1
    bend = g1 * f2 - f1 * g2
    divisor = gg * gg * ee * ee
    if divisor == 0.0:
        raise ClosedFormRangeError(u, "zero divisor")
    if math.isinf(divisor):
        raise ClosedFormRangeError(u, "non-finite result")
    terms = ((gg * radial * bend, (gg, radial, bend)),
             (a * a * b * b * ee * mixed * mixed, (a, b, ee, mixed)))
    for term, factors in terms:
        if abs(term) < sys.float_info.min and 0.0 not in factors:
            raise ClosedFormRangeError(u, "a term of K's numerator underflows")
    gauss = (terms[0][0] - terms[1][0]) / divisor
    if not math.isfinite(gauss):
        raise ClosedFormRangeError(u, "non-finite result")
    return gauss


def reference_invariants(args, parser) -> int:
    surface, us, vs = _build_config(args, parser)

    def record(u):
        ff, sf = closed_forms_at(surface, u)
        return invariants(ff, sf, reference_gauss(surface, u), class_tol=args.tol_class)

    rows = [[u, v, *field_values(rec)[:-1], rec.point_type.value]
            for u, rec in zip(us, _reference_rows(us, vs[0], record)) for v in vs]
    reference_write_csv(args.out, _INVARIANT_HEADER, None, rows)
    return EXIT_OK


def reference_octet(args, parser) -> int:
    surface, us, vs = _build_config(args, parser)
    octets = _reference_rows(us, vs[0], lambda u: closed_octet_at(surface, u))
    reference_write_csv(args.out, _OCTET_HEADER, None,
                        [[u, *octet_tuple(o)] for u, o in zip(us, octets)])
    return EXIT_OK


def reference_plot(args, parser) -> int:
    if args.quantity == "ellipse":
        return cmd_plot(args, parser)
    surface, us, vs = _build_config(args, parser)
    if args.quantity in ("k", "kappa", "K"):
        index = ("k", "kappa", "K").index(args.quantity)
        values = _reference_rows(us, vs[0],
                                 lambda u: closed_invariants_at(surface, u)[index])
    else:
        values = _reference_rows(us, vs[0],
                                 lambda u: getattr(closed_octet_at(surface, u), args.quantity))
    _write_out(args.out, (_svg_line_plot(us, values, args.quantity),))
    return EXIT_OK


def reference_write_csv(path, header, row_formats, rows):
    def write(stream):
        writer = csv.writer(stream)
        writer.writerow(header.rstrip("\r\n").split(","))
        for row in rows:
            writer.writerow([x if isinstance(x, str) else num(x) for x in row])

    if path is None or path == "-":
        write(sys.stdout)
    else:
        with open(path, "w", newline="") as stream:
            write(stream)


# ---------------------------------------------------------------------------
# The closed formulas as one function per table part over one u's meridian
# jet, and the grid rows composed from them one call per u: the bit-for-bit
# and first-error oracle for the grid kernels ``rotational._invariant_rows``
# and ``_octet_rows`` and for ``cli._grid_table``.

def reference_row_forms(s, u, data):
    """(E, G, W, L, N) from the meridian jet of u; W = sqrt(EG) is finite only if E and G are."""
    f, f1, f2, g, g1, g2, ee, gg = data
    a, b = s.alpha, s.beta
    try:
        big_l = 2.0 * a * b * (g * f1 - f * g1) * (g1 * f2 - f1 * g2) / (gg * ee)
        big_n = -2.0 * a * b * (g * f1 - f * g1) * (b * b * g * f1 - a * a * f * g1) / (gg * ee)
    except ZeroDivisionError:
        raise ClosedFormRangeError(u, "zero divisor") from None
    w = math.sqrt(ee * gg)
    if not (math.isfinite(w) and math.isfinite(big_l) and math.isfinite(big_n)):
        raise ClosedFormRangeError(u, "non-finite result")
    return ee, gg, w, big_l, big_n


def reference_row_invariants(s, u, data):
    """The closed (k, kappa, K): k and kappa, then ``reference_row_gauss``."""
    f, f1, f2, g, g1, g2, ee, gg = data
    a, b = s.alpha, s.beta
    mixed = g * f1 - f * g1
    bend = g1 * f2 - f1 * g2
    radial = b * b * g * f1 - a * a * f * g1
    try:
        k = -4.0 * a * a * b * b * mixed * mixed * bend * radial / (gg ** 3 * ee ** 3)
        kappa = a * b * mixed / (gg * gg * ee * ee) * (gg * bend - ee * radial)
    except ZeroDivisionError:
        raise ClosedFormRangeError(u, "zero divisor") from None
    except OverflowError:
        raise ClosedFormRangeError(u, "non-finite result") from None
    if not (math.isfinite(k) and math.isfinite(kappa)):
        raise ClosedFormRangeError(u, "non-finite result")
    return k, kappa, reference_row_gauss(s, u, data)


def reference_row_gauss(s, u, data):
    f, f1, f2, g, g1, g2, ee, gg = data
    a, b, mixed, den = s.alpha, s.beta, g * f1 - f * g1, gg * gg * ee * ee
    if 0.0 < den < math.inf:
        radial, bend = b * b * g * f1 - a * a * f * g1, g1 * f2 - f1 * g2
        bent, twisted = gg * radial * bend, a * a * b * b * ee * mixed * mixed
        if (abs(bent) < sys.float_info.min and radial and bend
                or abs(twisted) < sys.float_info.min and mixed):
            raise ClosedFormRangeError(u, "a term of K's numerator underflows")
        gauss = (bent - twisted) / den
        if math.isfinite(gauss):
            return gauss
    raise ClosedFormRangeError(u, "non-finite result" if den else "zero divisor")


def reference_row_octet(s, u, data):
    """(gamma2, nu1, nu2, mu, beta2)."""
    f, f1, f2, g, g1, g2, ee, gg = data
    a, b = s.alpha, s.beta
    sqrt_e = math.sqrt(ee)
    try:
        nu1 = (g1 * f2 - f1 * g2) / (ee * sqrt_e)
        gamma2 = -(a * a * f * f1 + b * b * g * g1) / (sqrt_e * gg)
        nu2 = (b * b * g * f1 - a * a * f * g1) / (sqrt_e * gg)
        mu = a * b * (g * f1 - f * g1) / (sqrt_e * gg)
        beta2 = a * b * (f * f1 + g * g1) / (sqrt_e * math.sqrt(gg))
    except ZeroDivisionError:
        raise ClosedFormRangeError(u, "zero divisor") from None
    if not all(map(math.isfinite, (nu1, gamma2, nu2, mu, beta2))):
        raise ClosedFormRangeError(u, "non-finite result")
    return gamma2, nu1, nu2, mu, beta2


def reference_invariant_row(s, tol, u, data):
    """(E, G, L, N, k, kappa, K, type) of an ``invariants`` row: the forms, k and kappa by
    the float operations of ``forms.invariants`` less its F = M = 0.0 terms, K, the type."""
    ee, gg, _, big_l, big_n = reference_row_forms(s, u, data)
    k, kappa = big_l * big_n / (ee * gg), (ee * big_n + gg * big_l) / (2.0 * (ee * gg))
    return (ee, gg, big_l, big_n, k, kappa, reference_row_gauss(s, u, data),
            classify(k, kappa, SecondForm(big_l, 0.0, big_n), tol).value)


def reference_grid_rows(surface, us, v, row):
    """[row(u, jet) for u in us] over ``meridian_jets(us)``; an error names (u, v) for its u."""
    rows, jets = [], surface.meridian_jets(us)
    try:
        for u in us:
            rows.append(row(u, next(jets)))
    except (GeometryError, EvalDomainError) as exc:
        raise _PointError(u, v, exc) from exc
    return rows


# ---------------------------------------------------------------------------
# The analytic jet built with keyword Vec4 fields straight from the surface's
# reads, and ``verify`` run one grid point at a time with every closed-side
# value read again at each point and the Vec4 reference kernels on the
# generic side: the bit-for-bit oracle for
# ``rotsurf4.geometry.analytic_parts_from`` and the byte-for-byte, error-point
# and exit-code oracle for ``rotsurf4.cli.cmd_verify``, which reads each of
# them once per grid line.

def reference_analytic_jet2(surface, u, v):
    f, f1, f2, g, g1, g2, _, _ = surface.meridian_jet(u)
    a, b = surface.alpha, surface.beta
    ca, sa, cb, sb = rotation_trig(a, b, v)
    return Jet2(
        z=Vec4(f * ca, f * sa, g * cb, g * sb),
        z_u=Vec4(f1 * ca, f1 * sa, g1 * cb, g1 * sb),
        z_v=Vec4(-a * f * sa, a * f * ca, -b * g * sb, b * g * cb),
        z_uu=Vec4(f2 * ca, f2 * sa, g2 * cb, g2 * sb),
        z_uv=Vec4(-a * f1 * sa, a * f1 * ca, -b * g1 * sb, b * g1 * cb),
        z_vv=Vec4(-a * a * f * ca, -a * a * f * sa, -b * b * g * cb, -b * b * g * sb),
    )


_JET_PARTS = ("z", "z_u", "z_v", "z_uu", "z_uv", "z_vv")


def reference_jet_dev(j1, j2) -> float:
    """``cli._jet_dev`` as the expression ``max(0.0, *map(_rel, ...))`` over
    the 24 components, z first and each Vec4 in x1..x4 order."""
    return max(0.0, *map(_rel, [x for name in _JET_PARTS for x in getattr(j1, name)],
                         [x for name in _JET_PARTS for x in getattr(j2, name)]))


def reference_octet_dev(a, b) -> float:
    """``cli._octet_dev`` as two maxima over ``map`` and ``gauge_flip``."""
    mine = octet_tuple(a)
    return min(max(map(_rel, mine, octet_tuple(b))),
               max(map(_rel, mine, octet_tuple(gauge_flip(b)))))


def reference_verify(args, parser) -> int:
    surface, us, vs = _build_config(args, parser)
    tuple_map = surface.as_map()

    def surface_map(u, v):  # the map's points as Vec4s, for the Vec4 arithmetic of the fd reference
        return Vec4(*tuple_map(u, v))

    checks = {
        "jets": _Check("jets", args.tol_pipeline),
        "forms": _Check("forms", args.tol_pipeline),
        "invariants": _Check("invariants", args.tol_pipeline),
        "octet": _Check("octet", args.tol_octet),
        "octet-vs-invariants": _Check("octet-vs-invariants", args.tol_relations),
        "superconformal": _Check("superconformal", args.tol_superconformal),
        "ellipse-circle": _Check("ellipse-circle", args.tol_circle),
    }

    def jet_at(u, v):
        return reference_analytic_jet2(surface, u, v)

    residuals = []
    for u in us:
        with _at(u, vs[0]):
            ffc, sfc = closed_forms_at(surface, u)
            kc, xc, gc = closed_invariants_at(surface, u)
            oc = closed_octet_at(surface, u)
            ko, xo, go = invariants_from_octet(oc)
            checks["octet-vs-invariants"].update(
                max(_rel(ko, kc), _rel(xo, xc), _rel(go, gc)), (u, vs[0]))
            residuals.append(msc_mod.scaled_msc_residual(surface, u))
        for v in vs:
            with _at(u, v):
                jet_a = jet_at(u, v)
                jet_f = reference_fd_jet2(surface_map, u, v)
                checks["jets"].update(reference_jet_dev(jet_a, jet_f), (u, v))

                rec = reference_frame_free_invariants(jet_f, *reference_generic_parts(jet_f))
                checks["forms"].update(max(
                    _rel(rec.E, ffc.E), _rel(rec.F, ffc.F), _rel(rec.G, ffc.G),
                    _rel(rec.L, sfc.L), _rel(rec.M, sfc.M), _rel(rec.N, sfc.N)), (u, v))
                checks["invariants"].update(max(
                    _rel(rec.k, kc), _rel(rec.kappa, xc), _rel(rec.K, gc)), (u, v))

                if checks["octet"].note is None:
                    try:
                        og = reference_octet_generic(jet_at, u, v)
                        checks["octet"].update(reference_octet_dev(oc, og), (u, v))
                    except TotallyGeodesicError:
                        checks["octet"].note = "totally geodesic point: frame undefined"

    worst_residual = max(0.0, *residuals)
    member = worst_residual <= args.tol_residual
    residual_note = (f"max scaled residual {worst_residual:.3e} "
                     f"(tol {args.tol_residual:.1e}): {'member' if member else 'not a member'}")
    if not member:
        checks["superconformal"].note = "surface does not satisfy the msc equation"
        checks["ellipse-circle"].note = "surface does not satisfy the msc equation"
    else:
        for u in us:
            with _at(u, vs[0]):
                jet = jet_at(u, vs[0])
                parts = reference_generic_parts(jet)
                rec = reference_frame_free_invariants(jet, *parts)
                minimal, conformal, scale = superconformal_residuals(rec.k, rec.kappa, rec.K)
                checks["superconformal"].update(max(minimal, conformal) / scale, (u, vs[0]))
                report = is_circle(reference_ellipse_samples(*parts, 16), args.tol_circle)
                center_dev = norm(report.center) / max(1.0, report.radius)
                checks["ellipse-circle"].update(
                    max(report.max_deviation / max(1.0, report.radius), center_dev),
                    (u, vs[0]))

    print(f"  {'msc-equation':<22} {residual_note}")
    failed = []
    for check in checks.values():
        if check.note is not None:
            print(f"  {check.name:<22} n/a: {check.note}")
            continue
        status = "PASS" if check.passed() else "FAIL"
        where = ""
        if check.worst is not None and status == "FAIL":
            where = f"  worst at (u, v) = ({check.worst[0]:.6g}, {check.worst[1]:.6g})"
        print(f"  {check.name:<22} max dev {check.dev:.3e}  tol {check.tol:.1e}  {status}{where}")
        if not check.passed():
            failed.append(check.name)
    if failed:
        print(f"overall: FAIL ({', '.join(failed)})")
        return EXIT_VERIFY
    print("overall: PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ``rotsurf4.octet.octet_generic`` in Vec4 arithmetic on the reference
# kernels, with the b direction built from both normal parts up front: the
# oracle for the octet's centre and stencil on the component kernel, which
# builds a stencil point's n22 only on the sigma(y,y) fallback.

def _reference_b_direction(jet, ff, n11, n22):
    for n, zij, e in ((n11, jet.z_uu, ff.E), (n22, jet.z_vv, ff.G)):
        size = norm(n)
        if size / e > 1e-12 and size > _FLOOR * norm(zij):
            return n / size
    return None


def reference_octet_generic(jet_at, u, v):
    u_minus, u_plus, v_minus, v_plus = (jet_at(u - _STEP, v), jet_at(u + _STEP, v),
                                        jet_at(u, v - _STEP), jet_at(u, v + _STEP))
    jet = jet_at(u, v)
    ff, n11, n12, n22 = reference_generic_parts(jet)
    sxx, syy = n11 / ff.E, n22 / ff.G
    sxy = n12 / (math.sqrt(ff.E) * math.sqrt(ff.G))
    sf = reference_second_form(jet, ff, n11, n12, n22)
    defect = _defect(ff.E, ff.F, ff.G, sf.L, sf.M, sf.N)
    if defect is not None:
        raise NonPrincipalParamsError(f"{defect}: parameters are not principal")

    b = _reference_b_direction(jet, ff, n11, n22)
    if b is None:
        raise TotallyGeodesicError(
            f"totally geodesic point at z={tuple(jet.z)!r}: b is undefined")
    x = jet.z_u / math.sqrt(ff.E)
    y = jet.z_v / math.sqrt(ff.G)
    l = reference_cross4(x, y, b)
    l = l / norm(l)

    def b_at(stencil_jet):
        sff = reference_tangent_form(stencil_jet)
        bb = _reference_b_direction(stencil_jet, sff,
                                    reference_normal_part(stencil_jet.z_uu, stencil_jet, sff),
                                    reference_normal_part(stencil_jet.z_vv, stencil_jet, sff))
        if bb is None:
            raise TotallyGeodesicError("totally geodesic stencil point")
        return bb if dot(bb, b) >= 0.0 else -bb

    beta1 = dot((b_at(u_plus) - b_at(u_minus)) / (2.0 * _STEP), l)
    beta2 = dot((b_at(v_plus) - b_at(v_minus)) / (2.0 * _STEP), l)
    return FrenetOctet(dot(jet.z_uu, y) / ff.E, dot(jet.z_vv, x) / ff.G, dot(sxx, b),
                       dot(syy, b), dot(sxy, b), dot(sxy, l), beta1, beta2)


# ---------------------------------------------------------------------------
# the canonical frame of the family and the v-line curve oracle: the closed
# Frenet curvatures of a v-line, its exact derivatives and the curvatures
# that Gram-Schmidt on a derivative flag reads (acceptance criterion 5)

def frames_at(s, u, v):
    """The canonical positively oriented frame (x, y, n1, n2): unit
    tangents along the u- and v-lines and the closed-form unit normals."""
    f, f1, _, g, g1, _, ee, gg = s.meridian_jet(u)
    a, b = s.alpha, s.beta
    sqrt_e, sqrt_g = math.sqrt(ee), math.sqrt(gg)
    ca, sa, cb, sb = math.cos(a * v), math.sin(a * v), math.cos(b * v), math.sin(b * v)
    x = Vec4(f1 * ca, f1 * sa, g1 * cb, g1 * sb) / sqrt_e
    y = Vec4(-a * f * sa, a * f * ca, -b * g * sb, b * g * cb) / sqrt_g
    n1 = Vec4(g1 * ca, g1 * sa, -f1 * cb, -f1 * sb) / sqrt_e
    n2 = Vec4(-b * g * sa, b * g * ca, a * f * sb, -a * f * cb) / sqrt_g
    return x, y, n1, n2


class CurveCurvatures(NamedTuple):
    """First, second and third Frenet curvatures of a curve in 4-space,
    taken with respect to the curve parameter."""

    kappa: float
    tau: float
    sigma3: float


def vline_curvatures(a, b, alpha, beta) -> CurveCurvatures:
    """Frenet curvatures of the v-line through (a, 0, b, 0):

        kappa  = sqrt((a^2 al^4 + b^2 be^4) / (a^2 al^2 + b^2 be^2))
        tau    = a b al be (al^2 - be^2) / (sqrt(a^2 al^4 + b^2 be^4) sqrt(a^2 al^2 + b^2 be^2))
        sigma3 = al be sqrt(a^2 al^2 + b^2 be^2) / sqrt(a^2 al^4 + b^2 be^4)

    All three are constant in v, so the v-lines are helices for al != be
    (and circles for al = be, where tau vanishes through the al^2 - be^2
    factor)."""
    q2 = a * a * alpha * alpha + b * b * beta * beta
    q4 = a * a * alpha ** 4 + b * b * beta ** 4
    if q2 <= 0.0 or q4 <= 0.0:
        raise RegularityError("degenerate v-line: both rotation radii vanish")
    return CurveCurvatures(
        math.sqrt(q4 / q2),
        a * b * alpha * beta * (alpha * alpha - beta * beta) / (math.sqrt(q4) * math.sqrt(q2)),
        alpha * beta * math.sqrt(q2) / math.sqrt(q4))


def vline_derivatives(a, b, alpha, beta, v):
    """First four exact derivatives of the v-line
    (a cos(al v), a sin(al v), b cos(be v), b sin(be v)): the k-th scales
    the radii by al^k, be^k and turns both angles k quarter turns on."""
    ca, sa, cb, sb = math.cos(alpha * v), math.sin(alpha * v), math.cos(beta * v), math.sin(beta * v)
    out = []
    for k in range(1, 5):
        ca, sa, cb, sb = -sa, ca, -sb, cb  # d/dv of (cos, sin) is (-sin, cos)
        ak, bk = a * alpha ** k, b * beta ** k
        out.append(Vec4(ak * ca, ak * sa, bk * cb, bk * sb))
    return tuple(out)


_RANK_TOL = 1e-10  # relative length below which a derivative of the flag counts as zero


def curve_frenet_oracle(d1, d2, d3, d4) -> CurveCurvatures:
    """Numeric Frenet curvatures from the first four derivative vectors of
    a curve, via Gram-Schmidt on the derivative flag.

    With n_k the length of the k-th orthogonalized derivative, the
    parameter-speed curvatures are n2/n1, n3/n2, n4/n3, as magnitudes.
    When the flag drops rank at level k (curve confined to a flat of
    dimension k-1), the curvatures from that level on are zero."""
    frame, lengths = [], []
    for vec in (d1, d2, d3, d4):
        r = vec
        for q, qlen in zip(frame, lengths):
            if qlen > 0.0:
                r = r - q * (dot(r, q) / (qlen * qlen))
        n = norm(r)
        frame.append(r)
        lengths.append(n if n > _RANK_TOL * max(norm(vec), 1e-300) else 0.0)
    n1, n2, n3, n4 = lengths
    return CurveCurvatures(n2 / n1, n3 / n2 if n2 > 0.0 else 0.0, n4 / n3 if n3 > 0.0 else 0.0)
