"""Command-line front end.

Subcommands:

    invariants   CSV grid of E,F,G,L,M,N,k,kappa,K and the point type
    octet        CSV grid of the eight frame invariants
    verify       cross-validate closed forms against the generic
                 finite-difference pipeline; exit 1 on any failure
    msc          generate a power-law member, check it pointwise
    export       OBJ mesh of a 3-coordinate projection
    plot         SVG of an invariant along u, or of the curvature ellipse

Exit codes: 0 ok, 1 verification failure, 2 usage/parse error, 3 domain or
regularity error, 141 stdout closed early (``run`` only).  Grid flags use
min:max:count; count=1 means the single point min, and a negative min
needs the ``--u=-1:1:3`` form (argparse reads ``-1:1:3`` as an option).
Output is deterministic: identical configuration gives byte identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from contextlib import AbstractContextManager
from functools import cache, partial
from itertools import chain, repeat

from . import msc as msc_mod
from ._record import Record
from .expr import EvalDomainError, ExprSyntaxError, Profile
from .forms import (NonFiniteInvariantError, _classify, ellipse_samples, generic_values,
                    is_circle, superconformal_residuals, superconformal_verdict)
from .geometry import (GeometryError, _fd_step, analytic_jet2, analytic_parts_from, dot,
                       fd_jet2, gram_schmidt_normals, norm, rotation_trig)
from .octet import (_GAUGE_FLIPPED, _STEP, FrenetOctet, TotallyGeodesicError, _octet_values,
                    invariants_from_octet, octet_generic)
from .rotational import (RotationalSurface, _closed_forms, _closed_gauss, _closed_invariants,
                         _closed_octet)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BROKEN_PIPE = 141

# CSV formats as csv.writer writes them ("," between fields, "\r\n" ends a line, no quotes);
# %.17g is lossless, and F, M, gamma1, lambda and beta1 are +0.0 here, which it writes as 0
_INVARIANT_HEADER = "u,v,E,F,G,L,M,N,k,kappa,K,type\r\n"
_INVARIANT_ROW = "%.17g,%.17g,%.17g,0,%.17g,%.17g,0," + "%.17g," * 4 + "%s\r\n"
_OCTET_HEADER = "u,gamma1,gamma2,nu1,nu2,lambda,mu,beta1,beta2\r\n"
_OCTET_ROW = "%.17g,0,%.17g,%.17g,%.17g,0,%.17g,0,%.17g\r\n"
_MSC_HEADER = "u,k,kappa,K,residual,minimal,superconformal\r\n"
_MSC_ROW = "%.17g," * 5 + "%s,%s\r\n"


class _PointError(Exception):
    """A domain/regularity error tagged with the first offending point."""

    def __init__(self, u: float, v: float, cause: Exception):
        super().__init__(f"at (u, v) = ({u!r}, {v!r}): {cause}")
        self.u, self.v, self.cause = u, v, cause


class _at(AbstractContextManager):
    """``with _at(u, v):`` tags a domain or regularity error raised in the
    block with the point (u, v).  A class: a generator costs 3x per row."""

    def __init__(self, u: float, v: float):
        self.u, self.v = u, v

    def __exit__(self, kind, exc, tb) -> None:
        if exc is not None and isinstance(exc, (GeometryError, EvalDomainError)):
            raise _PointError(self.u, self.v, exc) from exc


_Range = tuple[float, float, int]  # a grid flag's (min, max, count)


def _range_spec(text: str) -> _Range:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"bounds must be finite, got {text!r}")
    if count < 1:
        raise argparse.ArgumentTypeError("count must be at least 1")
    if count > 1 and hi <= lo:
        raise argparse.ArgumentTypeError("max must exceed min when count > 1")
    if count > 1 and not math.isfinite(hi - lo):
        raise argparse.ArgumentTypeError(f"max - min overflows, got {text!r}")
    return lo, hi, count


def _checked(convert, ok, rule: str):
    """An argparse type: ``convert(text)``, rejected with ``rule`` unless ``ok``."""
    def parse(text: str):
        try:
            x = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(x):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return x
    return parse


_tolerance = _checked(float, lambda tol: 0.0 <= tol < math.inf,
                      "tolerance must be finite and >= 0")
_finite = _checked(float, math.isfinite, "must be finite")
_sample_count = _checked(int, lambda count: count >= 3, "need at least 3 samples")


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


# ---------------------------------------------------------------------------
# argument plumbing

def _add_surface_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", help="meridian first component, expression in u")
    p.add_argument("--g", help="meridian second component, expression in u")
    p.add_argument("--alpha", type=float, required=True, help="rotation speed in the x1x2-plane")
    p.add_argument("--beta", type=float, required=True, help="rotation speed in the x3x4-plane")
    p.add_argument("--msc-c", dest="msc_c", type=float,
                   help="power-law constant c (alternative surface source)")
    p.add_argument("--eps", type=int, choices=(1, -1),
                   help="branch sign of the power-law source")
    p.add_argument("--u", type=_range_spec, help="u grid min:max:count")
    p.add_argument("--v", type=_range_spec, help="v grid min:max:count")


def _power_law(parser: argparse.ArgumentParser, c: float, alpha: float, beta: float,
               eps: int, u_range: _Range | None) -> tuple[msc_mod.MscParams,
                                                         RotationalSurface, _Range]:
    """The power-law member g = c u^p and its u grid, as ``(params, surface,
    (lo, hi, count))``, on the grid ``u_range``, or of 20 points over
    ``msc.DEFAULT_U_DOMAIN`` for None.  A rejected parameter or a grid
    outside u > 0 is a usage error of ``parser``; each warning is one
    ``warning:`` line on stderr."""
    lo, hi, count = u_range or (*msc_mod.DEFAULT_U_DOMAIN, 20)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            params = msc_mod.MscParams(c, alpha, beta, eps)
            if lo <= 0.0:
                raise ValueError("the domain of a power-law meridian must lie inside (0, inf)")
            surface = msc_mod.msc_surface(params)
        except ValueError as exc:
            parser.error(str(exc))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return params, surface, (lo, hi, count)


# the profile of each recent --f/--g text, oldest first: a profile is a pure function of
# its text, and its lazily built trees and closures are the same whenever they are made
_PROFILES: dict[str, Profile] = {}
_PROFILES_KEPT = 16  # the f and g of the last 8 surfaces


def _build_surface(args: argparse.Namespace, parser: argparse.ArgumentParser,
                   u_range: _Range | None = None) -> tuple[RotationalSurface, _Range | None]:
    """The surface of ``args`` and its u grid: ``u_range``, or for None a
    power-law member's default grid (and None for an expression surface)."""
    expr_source = args.f is not None or args.g is not None
    msc_source = args.msc_c is not None or args.eps is not None
    if expr_source and msc_source:
        parser.error("give either --f/--g or --msc-c/--eps, not both")
    if not expr_source and not msc_source:
        parser.error("a surface source is required: --f/--g or --msc-c/--eps")

    if msc_source:
        if args.msc_c is None or args.eps is None:
            parser.error("--msc-c and --eps go together")
        return _power_law(parser, args.msc_c, args.alpha, args.beta, args.eps, u_range)[1:]
    if args.f is None or args.g is None:
        parser.error("an expression surface needs both --f and --g")
    profiles = []
    for text in (args.f, args.g):  # inline: a frame here would count against the depth limit
        profile = _PROFILES.get(text)
        if profile is None:
            profile = Profile.from_text(text)  # a text that fails raises before the store
            if len(_PROFILES) >= _PROFILES_KEPT:
                del _PROFILES[next(iter(_PROFILES))]
            _PROFILES[text] = profile
        profiles.append(profile)
    return RotationalSurface(*profiles, args.alpha, args.beta), u_range


def _build_config(args: argparse.Namespace, parser: argparse.ArgumentParser,
                  default_v=(0.0, 0.0, 1)) -> tuple[RotationalSurface, list[float], list[float]]:
    """The surface of ``args`` and its u and v grid values."""
    surface, u_range = _build_surface(args, parser, args.u)
    if u_range is None:
        parser.error("--u is required for an expression surface")
    return surface, _linspace(*u_range), _linspace(*(args.v or default_v))


def _write_csv(path: str | None, header: str, row_format: str, rows) -> None:
    """``header`` and ``row_format % row`` for each row on ``path``, or on
    stdout for None or "-", one ``write`` per line as each is formatted (one
    large ``write`` to a pipe closed early can drop the text without raising
    BrokenPipeError)."""
    lines = chain((header,), (row_format % row for row in rows))
    if path is None or path == "-":
        sys.stdout.writelines(lines)
        return
    _write_out(path, lines)


def _write_out(path: str, chunks) -> None:
    """``chunks`` written to the ``--out`` file ``path``; a path that cannot
    be opened or written is a usage error that names it (ValueError)."""
    try:
        with open(path, "w", newline="") as stream:
            stream.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path!r}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# invariants / octet grids

def _grid_rows(surface: RotationalSurface, us: list[float], v: float, row) -> list:
    """[row(u, jet) for u in us] over ``meridian_jets(us)``; an error names (u, v) for its u."""
    rows, jets = [], surface.meridian_jets(us)
    try:
        for u in us:
            rows.append(row(u, next(jets)))
    except (GeometryError, EvalDomainError) as exc:
        raise _PointError(u, v, exc) from exc
    return rows


def _invariant_row(surface: RotationalSurface, tol: float, u: float, jet) -> tuple:
    """(E, G, L, N, k, kappa, K, type) at u, k and kappa by the float operations
    of ``forms.invariants`` less its F = M = 0.0 terms (x - 0.0 is x bit for bit)."""
    ee, gg, _, big_l, big_n = _closed_forms(surface, u, jet)
    k, kappa = big_l * big_n / (ee * gg), (ee * big_n + gg * big_l) / (2.0 * (ee * gg))
    return (ee, gg, big_l, big_n, k, kappa, _closed_gauss(surface, u, jet),
            _classify(k, kappa, big_l, 0.0, big_n, tol))


def cmd_invariants(args, parser) -> int:
    """The CSV rows of each (u, v), from one row tuple per u (``_invariant_row``)."""
    surface, us, vs = _build_config(args, parser)
    rows = _grid_rows(surface, us, vs[0], partial(_invariant_row, surface, args.tol_class))
    _write_csv(args.out, _INVARIANT_HEADER, _INVARIANT_ROW,
               ((u, v, *row) for u, row in zip(us, rows) for v in vs))
    return EXIT_OK


def cmd_octet(args, parser) -> int:
    surface, us, vs = _build_config(args, parser)
    rows = _grid_rows(surface, us, vs[0], partial(_closed_octet, surface))
    _write_csv(args.out, _OCTET_HEADER, _OCTET_ROW, ((u, *row) for u, row in zip(us, rows)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _worst_rels(xs, ys, flips, plain: float, flipped: float) -> tuple[float, float]:
    """``max(plain, *map(_rel, xs, ys))`` and ``max(flipped, ...)`` of the same
    with each y whose ``flips`` entry is true negated, in one loop: x - (-y)
    is x + y bit for bit, and -y has the scale of y."""
    for x, y, flip in zip(xs, ys, flips):
        scale, abs_x, abs_y = 1.0, abs(x), abs(y)
        if abs_x > scale:
            scale = abs_x
        if abs_y > scale:
            scale = abs_y
        dev = abs(x - y) / scale
        if dev > plain:
            plain = dev
        if flip:
            dev = abs(x + y) / scale
        if dev > flipped:
            flipped = dev
    return plain, flipped


def _jet_dev(j1, j2) -> float:
    """``max(0.0, *map(_rel, chain(*j1), chain(*j2)))`` over the 24 components of
    two jets (Jet2s or tuple jets), z first and each part in x1..x4 order."""
    return _worst_rels(chain(*j1), chain(*j2), repeat(False), 0.0, 0.0)[0]


def _octet_dev(a, b) -> float:
    """The deviation of b from a, up to the gauge flip of b:
    ``min(max(map(_rel, a, b)), max(map(_rel, a, gauge_flip(b))))``.  The
    first component starts both maxima, as in max."""
    xs, ys = _octet_values(a), _octet_values(b)
    x, y = xs[0], ys[0]
    return min(_worst_rels(xs[1:], ys[1:], _GAUGE_FLIPPED[1:],
                           _rel(x, y), _rel(x, -y if _GAUGE_FLIPPED[0] else y)))


class _Check(Record):
    __match_args__ = ("name", "tol", "dev", "worst", "note")

    def __init__(self, name: str, tol: float, dev: float = 0.0,
                 worst: tuple[float, float] | None = None, note: str | None = None):
        self.name, self.tol, self.dev, self.worst = name, tol, dev, worst
        self.note = note  # set => not applicable

    def update(self, dev: float, point: tuple[float, float]) -> None:
        if dev > self.dev:
            self.dev = dev
            self.worst = point

    def passed(self) -> bool:
        return self.note is not None or self.dev <= self.tol


def cmd_verify(args, parser) -> int:
    surface, us, vs = _build_config(args, parser)
    surface_map = surface.as_map()

    checks = {
        "jets": _Check("jets", args.tol_pipeline),
        "forms": _Check("forms", args.tol_pipeline),
        "invariants": _Check("invariants", args.tol_pipeline),
        "octet": _Check("octet", args.tol_octet),
        "octet-vs-invariants": _Check("octet-vs-invariants", args.tol_relations),
        "superconformal": _Check("superconformal", args.tol_superconformal),
        "ellipse-circle": _Check("ellipse-circle", args.tol_circle),
    }

    # the meridian jet and the closed side depend on u alone, the rotation on v
    # alone: each is read once per distinct value, where the per-point loop
    # would first read it, so a read that raises (and is not cached) names the
    # same point; 0.0 and -0.0 share a key but never meet (a grid holds -0.0
    # only as its one point, x -+ octet._STEP is never -0.0).  The fd map keeps
    # its meridian points and trig the same way (RotationalSurface.as_map), and
    # the octet reads the jets check's jet_a as its centre.  Every abscissa is
    # known first: each profile is read in a value column at fd_jet2's u, u -+ h
    # and u -+ h/2, which seeds the map's memo, and a jet column at u and
    # u -+ _STEP, which meridian() checks by _regular_jet at its first read of
    # u.  A column that misses seeds nothing, so the scalar reads meet the
    # first error as before.  Analytic jets are six 4-tuples (z, z_u, ..., z_vv)
    alpha, beta = surface.alpha, surface.beta
    fd_us = list(dict.fromkeys(x for u in us for v in vs for h in (_fd_step(u, v),)
                               for x in (u, u + h, u - h, u + h / 2.0, u - h / 2.0)))
    f = surface.f.values(fd_us)
    if f is not None and (g := surface.g.values(fd_us)) is not None:  # no zero, as in the map
        surface_map.points.update((u, (x, 0.0, y, 0.0)) for u, x, y in zip(fd_us, f, g) if u)
    jet_us = list(dict.fromkeys(x for u in us for x in (u, u - _STEP, u + _STEP)))
    f, reads = surface.f.grid(jet_us), {}
    if f is not None and (g := surface.g.grid(jet_us)) is not None:
        reads = dict(zip(jet_us, zip(*f, *g)))
    meridian = cache(lambda u: surface._regular_jet(u, *reads[u]) if u in reads
                     else surface.meridian_jet(u))
    trig = cache(partial(rotation_trig, alpha, beta))

    def jet_at(u, v):
        return analytic_parts_from(alpha, beta, meridian(u), trig(v))

    def octet_jet_at(uu, vv):
        return jet_a if uu == u and vv == v else jet_at(uu, vv)

    residuals = []
    for u in us:
        with _at(u, vs[0]):
            data = meridian(u)
            ec, gc_, _, lc, nc = _closed_forms(surface, u, data)
            kc, xc, gc = _closed_invariants(surface, u, data)
            gamma2, nu1, nu2, mu, beta2 = _closed_octet(surface, u, data)
            oc = FrenetOctet(0.0, gamma2, nu1, nu2, 0.0, mu, 0.0, beta2)
            ko, xo, go = invariants_from_octet(oc)
            checks["octet-vs-invariants"].update(
                max(_rel(ko, kc), _rel(xo, xc), _rel(go, gc)), (u, vs[0]))
            residuals.append(msc_mod.scaled_msc_residual(surface, u))
        for v in vs:
            with _at(u, v):
                jet_a = jet_at(u, v)
                jet_f = fd_jet2(surface_map, u, v)
                checks["jets"].update(_jet_dev(jet_a, jet_f), (u, v))

                ef, ff, gf, lf, mf, nf, kf, xf, gauss = generic_values(jet_f)
                checks["forms"].update(max(
                    _rel(ef, ec), _rel(ff, 0.0), _rel(gf, gc_),
                    _rel(lf, lc), _rel(mf, 0.0), _rel(nf, nc)), (u, v))
                checks["invariants"].update(max(
                    _rel(kf, kc), _rel(xf, xc), _rel(gauss, gc)), (u, v))

                if checks["octet"].note is None:
                    try:
                        checks["octet"].update(
                            _octet_dev(oc, octet_generic(octet_jet_at, u, v)), (u, v))
                    except TotallyGeodesicError:
                        checks["octet"].note = "totally geodesic point: frame undefined"

    # the msc equation (chart-free, so any meridian gets a verdict)
    # classifies the surface; it is informational, not a pass/fail check
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
                minimal, conformal, scale = superconformal_residuals(*generic_values(jet)[6:])
                checks["superconformal"].update(max(minimal, conformal) / scale, (u, vs[0]))
                report = is_circle(ellipse_samples(jet, 16), args.tol_circle)
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
# msc

def cmd_msc(args, parser) -> int:
    params, surface, u_range = _power_law(parser, args.c, args.alpha, args.beta, args.eps,
                                          args.u)
    print(f"profile: {msc_mod.msc_profile_text(params)}")
    rows = []
    npass = 0
    for u in _linspace(*u_range):
        k, kappa, gauss = msc_mod.msc_invariants(params, u)
        residual = msc_mod.msc_residual(surface, u, params.eps)
        minimal, superconformal = superconformal_verdict(k, kappa, gauss,
                                                         args.tol_superconformal)
        npass += superconformal
        rows.append((u, k, kappa, gauss, residual, str(minimal).lower(),
                     str(superconformal).lower()))

    _write_csv(args.out, _MSC_HEADER, _MSC_ROW, rows)
    print(f"minimal super-conformal at {npass}/{len(rows)} grid points")
    return EXIT_OK if npass == len(rows) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# export / plot

# dropN keeps the other three coordinates, x1..x4 as 0..3, in order
_PROJECTIONS = {f"drop{n}": tuple(i for i in range(4) if i != n - 1) for n in range(1, 5)}
_VERTEX = "v %.17g %.17g %.17g\n"  # one vertex line, at the CSV rows' lossless %.17g


def cmd_export(args, parser) -> int:
    """The OBJ text, one vertex and one face chunk per u-row, built before ``--out`` is
    opened.  Vertices take ``rotate``'s float operations, zero components included (zeros
    keep their signs); an error names the point that u-major order meets first."""
    surface, us, vs = _build_config(args, parser, default_v=(0.0, 2.0 * math.pi, 24))
    nu, nv = len(us), len(vs)
    if nu < 2 or nv < 2:
        parser.error("export needs at least a 2x2 grid")
    points, trig = [], []
    for u in us:  # the meridian once per u, the rotation once per v
        with _at(u, vs[0]):
            points.append(surface.meridian_at(u))
        for v in vs[len(trig):]:  # after the first u's profiles only, as u-major order has it
            with _at(u, v):
                trig.append(rotation_trig(surface.alpha, surface.beta, v))
    rotated = (lambda x1, x2, x3, x4: [x1 * ca - x2 * sa for ca, sa, _, _ in trig],  # per v
               lambda x1, x2, x3, x4: [x1 * sa + x2 * ca for ca, sa, _, _ in trig],
               lambda x1, x2, x3, x4: [x3 * cb - x4 * sb for _, _, cb, sb in trig],
               lambda x1, x2, x3, x4: [x3 * sb + x4 * cb for _, _, cb, sb in trig])
    picks, row = [rotated[i] for i in _PROJECTIONS[args.projection]], _VERTEX * nv
    chunks = [row % tuple(chain.from_iterable(zip(*[f(p.x1, p.x2, p.x3, p.x4) for f in picks])))
              for p in points]
    # row 0's quad j is (a, a + nv, d + nv, d), a = j at (0, j - 1), d at (0, j mod nv)
    wrap = nv if args.close_v else nv - 1
    quads = [x for j in range(1, wrap + 1) for x in (j, j + nv, j % nv + 1 + nv, j % nv + 1)]
    row = "f %d %d %d %d\n" * wrap
    chunks += [row % tuple([x + i * nv for x in quads]) for i in range(nu - 1)]  # row i: + i nv
    _write_out(args.out, chunks)
    return EXIT_OK


def _svg_document(body: list[str], width: int, height: int) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axis_range(values: list[float]) -> tuple[float, float]:
    """min and max of ``values``, pulled apart by 1 when they are equal."""
    lo, hi = min(values), max(values)
    if hi == lo:
        if abs(lo) < 2.0 ** 52:
            lo, hi = lo - 1.0, hi + 1.0
        else:  # lo +- 1 rounds back to lo; widen toward 0, which cannot overflow
            lo, hi = sorted((lo, lo - lo * 2.0 ** -40))
    return lo, hi


def _svg_line_plot(xs: list[float], ys: list[float], ylabel: str) -> str:
    width, height, margin = 640, 440, 60
    xmin, xmax = _axis_range(xs)
    ymin, ymax = _axis_range(ys)

    def sx(x):
        return margin + (x - xmin) / (xmax - xmin) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)

    body = [
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i in range(5):
        xv = xmin + i * (xmax - xmin) / 4
        yv = ymin + i * (ymax - ymin) / 4
        px, py = sx(xv), sy(yv)
        body.append(f'<line x1="{px:.2f}" y1="{height - margin}" x2="{px:.2f}" '
                    f'y2="{height - margin + 6}" stroke="black"/>')
        body.append(f'<text x="{px:.2f}" y="{height - margin + 20}" font-size="11" '
                    f'text-anchor="middle">{xv:.6g}</text>')
        body.append(f'<line x1="{margin - 6}" y1="{py:.2f}" x2="{margin}" '
                    f'y2="{py:.2f}" stroke="black"/>')
        body.append(f'<text x="{margin - 10}" y="{py + 4:.2f}" font-size="11" '
                    f'text-anchor="end">{yv:.6g}</text>')
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    body.append(f'<polyline points="{points}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    body.append(f'<text x="{width // 2}" y="{height - 16}" font-size="13" '
                f'text-anchor="middle">u</text>')
    body.append(f'<text x="{width // 2}" y="24" font-size="13" '
                f'text-anchor="middle">{ylabel} vs u</text>')
    return _svg_document(body, width, height)


def _svg_ellipse_plot(points: list[tuple[float, float]], center: tuple[float, float]) -> str:
    width = height = 480
    margin = 60
    span = max(max(abs(p[0]) for p in points), max(abs(p[1]) for p in points),
               abs(center[0]), abs(center[1]), 1e-12)

    def s(t):
        return width / 2 + t / span * (width / 2 - margin)

    body = [
        f'<line x1="{margin}" y1="{height / 2}" x2="{width - margin}" y2="{height / 2}" '
        f'stroke="lightgray"/>',
        f'<line x1="{width / 2}" y1="{margin}" x2="{width / 2}" y2="{height - margin}" '
        f'stroke="lightgray"/>',
        f'<text x="{width - margin + 4}" y="{height / 2 + 4}" font-size="11">e1</text>',
        f'<text x="{width / 2 + 6}" y="{margin - 6}" font-size="11">e2</text>',
    ]
    poly = " ".join(f"{s(p[0]):.2f},{height - s(p[1]):.2f}" for p in points)
    body.append(f'<polygon points="{poly}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    cx, cy = s(center[0]), height - s(center[1])
    body.append(f'<line x1="{cx - 5:.2f}" y1="{cy:.2f}" x2="{cx + 5:.2f}" y2="{cy:.2f}" '
                f'stroke="crimson" stroke-width="1.5"/>')
    body.append(f'<line x1="{cx:.2f}" y1="{cy - 5:.2f}" x2="{cx:.2f}" y2="{cy + 5:.2f}" '
                f'stroke="crimson" stroke-width="1.5"/>')
    body.append(f'<text x="{width / 2}" y="24" font-size="13" text-anchor="middle">'
                f'curvature ellipse, scale {span:.6g}</text>')
    return _svg_document(body, width, height)


def cmd_plot(args, parser) -> int:
    if args.quantity == "ellipse":  # one point: no grid
        surface, _ = _build_surface(args, parser)
        if args.point is None:
            parser.error("--point U V is required for the ellipse plot")
        u0, v0 = args.point
        with _at(u0, v0):
            jet = analytic_jet2(surface, u0, v0)
            e1, e2 = gram_schmidt_normals(jet)  # the drawing plane
            samples = ellipse_samples(jet, args.samples)
            report = is_circle(samples, 1e-6)
            if not all(math.isfinite(x) for p in (report.center, *samples) for x in p):
                raise NonFiniteInvariantError("curvature ellipse is not finite")
        points = [(dot(s, e1), dot(s, e2)) for s in samples]
        text = _svg_ellipse_plot(points, (dot(report.center, e1), dot(report.center, e2)))
    else:
        surface, us, vs = _build_config(args, parser)
        if args.quantity in ("k", "kappa", "K"):
            closed, i = _closed_invariants, ("k", "kappa", "K").index(args.quantity)
        else:
            closed, i = _closed_octet, ("gamma2", "nu1", "nu2", "mu", "beta2").index(args.quantity)
        rows = _grid_rows(surface, us, vs[0], partial(closed, surface))
        text = _svg_line_plot(us, [row[i] for row in rows], args.quantity)
    _write_out(args.out, (text,))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotsurf4",
        description="Curvature invariants of two-plane rotational surfaces in 4-space.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # each subcommand's parser, by name

    inv = sub.add_parser("invariants", help="CSV grid of forms, invariants and point type")
    inv.set_defaults(run=cmd_invariants, parser=inv)
    _add_surface_args(inv)
    inv.add_argument("--out", help="output CSV path (default: stdout)")
    inv.add_argument("--tol-class", dest="tol_class", type=_tolerance, default=1e-8,
                     help="point classification tolerance")

    oct_p = sub.add_parser("octet", help="CSV grid of the eight frame invariants")
    oct_p.set_defaults(run=cmd_octet, parser=oct_p)
    _add_surface_args(oct_p)
    oct_p.add_argument("--out", help="output CSV path (default: stdout)")

    ver = sub.add_parser("verify", help="cross-validate closed forms against the generic pipeline")
    ver.set_defaults(run=cmd_verify, parser=ver)
    _add_surface_args(ver)
    ver.add_argument("--tol-pipeline", dest="tol_pipeline", type=_tolerance, default=1e-6)
    ver.add_argument("--tol-octet", dest="tol_octet", type=_tolerance, default=1e-5)
    ver.add_argument("--tol-relations", dest="tol_relations", type=_tolerance, default=1e-10)
    ver.add_argument("--tol-residual", dest="tol_residual", type=_tolerance, default=1e-8)
    ver.add_argument("--tol-superconformal", dest="tol_superconformal", type=_tolerance,
                     default=1e-8)
    ver.add_argument("--tol-circle", dest="tol_circle", type=_tolerance, default=1e-6)

    mscp = sub.add_parser("msc", help="generate and check a minimal super-conformal member")
    mscp.set_defaults(run=cmd_msc, parser=mscp)
    mscp.add_argument("--c", type=float, default=1.0, help="power-law constant")
    mscp.add_argument("--alpha", type=float, required=True)
    mscp.add_argument("--beta", type=float, required=True)
    mscp.add_argument("--eps", type=int, choices=(1, -1), default=1)
    mscp.add_argument("--u", type=_range_spec, help="u grid min:max:count (default 0.25:4:20)")
    mscp.add_argument("--out", help="output CSV path (default: stdout)")
    mscp.add_argument("--tol-superconformal", dest="tol_superconformal", type=_tolerance,
                      default=1e-8)

    exp = sub.add_parser("export", help="OBJ mesh of a 3-coordinate projection")
    exp.set_defaults(run=cmd_export, parser=exp)
    _add_surface_args(exp)
    exp.add_argument("--projection", choices=sorted(_PROJECTIONS), default="drop4",
                     help="which coordinate to drop")
    exp.add_argument("--close-v", dest="close_v", action="store_true",
                     help="stitch the last v column to the first (periodic v)")
    exp.add_argument("--out", required=True, help="output OBJ path")

    plot = sub.add_parser("plot", help="SVG plot of a quantity along u, or the curvature ellipse")
    plot.set_defaults(run=cmd_plot, parser=plot)
    _add_surface_args(plot)
    plot.add_argument("--quantity", required=True,
                      choices=("k", "kappa", "K", "nu1", "nu2", "mu", "gamma2", "beta2", "ellipse"))
    plot.add_argument("--point", type=_finite, nargs=2, metavar=("U", "V"),
                      help="evaluation point for the ellipse plot")
    plot.add_argument("--samples", type=_sample_count, default=16,
                      help="ellipse sample count, at least 3")
    plot.add_argument("--out", required=True, help="output SVG path")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process.  Parsing does not mutate it and the
    commands only call ``error`` on their subparser, so repeated ``main``
    calls share it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line; an ``argv`` that starts with a subcommand's name
    is parsed once, by that subcommand's parser, and any other by the top level."""
    parser, argv = _parser(), sys.argv[1:] if argv is None else argv
    if argv and argv[0] in parser.commands:
        parser, argv = parser.commands[argv[0]], argv[1:]
    try:
        args = parser.parse_args(argv)
        return args.run(args, args.parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (ExprSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # parsing, differentiating and evaluating recurse once per tree level
        print("error: expression nests too deeply", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # --out opens after the grid and its rows: a grid too large writes none
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except (_PointError, EvalDomainError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> None:
    """Console entry point; a stdout closed early exits 141 (128 + SIGPIPE)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)
