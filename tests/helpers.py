"""Shared test utilities, kept independent of the library internals where
they act as oracles (tolerance math, finite differences, random trees, the
tree-walking evaluator, the unfolded differentiator, the Vec4-based frame
kernel, the per-point OBJ vertex and closed-form row loops, the csv-module
CSV writer)."""

import csv
import math
import random
import sys

from rotsurf4.cli import _PointError
from rotsurf4.expr import (Binary, Constant, EvalDomainError, Unary, Variable, _finite, _power,
                           evaluate)
from rotsurf4.geometry import DegenerateMetricError, GeometryError, Vec4, dot, norm
from rotsurf4.octet import FrenetOctet


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


# ---------------------------------------------------------------------------
# The frame kernel written with Vec4 arithmetic throughout: the bit-for-bit
# oracle for the scalar ``rotsurf4.geometry`` det4, cross4 and
# gram_schmidt_normals.

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
    if ee <= 0.0 or ee * gg - ff * ff <= 0.0:
        raise DegenerateMetricError(
            f"tangent plane degenerate: EG-F^2 = {ee * gg - ff * ff!r}")
    t1 = zu / math.sqrt(ee)
    w = zv - t1 * dot(zv, t1)
    nw = norm(w)
    if nw == 0.0:
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
# The OBJ vertex lines written one grid point at a time through the surface
# map: the byte-for-byte and error-point oracle for ``rotsurf4.cli``'s
# grid-structured ``_vertex_lines``.

def reference_export_vertices(surface, us, vs, pick):
    surface_map = surface.as_map()
    lines = []
    for u in us:
        for v in vs:
            try:
                point = surface_map(u, v)
            except (GeometryError, EvalDomainError) as exc:
                raise _PointError(u, v, exc) from exc
            lines.append("v " + " ".join(num(c) for c in pick(point)))
    return lines


# ---------------------------------------------------------------------------
# The closed-form rows computed one u at a time from the scalar
# ``meridian_jet``, and the CSV written field by field through the csv
# module: the byte-for-byte and error-point oracle for ``rotsurf4.cli``'s
# grid-structured ``_closed_rows`` and one-format-per-row ``_write_csv``.

def reference_closed_rows(surface, us, v, closed):
    for u in us:
        try:
            row = closed(surface, u, surface.meridian_jet(u))
        except (GeometryError, EvalDomainError) as exc:
            raise _PointError(u, v, exc) from exc
        yield row


def reference_write_csv(path, header, row_format, rows):
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
