"""Any in-process CLI run answers with finite numbers or exits 2/3.

Every subcommand is run through ``cli.main`` on small grammar meridians
(at least one of f and g contains u), or one draw in four on a power-law
member (``--msc-c``/``--eps``), with speeds, grid bounds, power-law
constants, ellipse points and tolerances drawn from the edges of the
double range (NaN, +-inf, 0, negative values, +-1e308).  Each run must exit 0 (or 1, the verdict of
``verify`` and ``msc``) with every number it wrote finite, or exit 2 or 3,
and no exception may escape ``main``.  The named subcommand's parser alone,
which ``main`` runs, must read each draw as the top-level parser does.

On the same draws, ``export`` (one vertex and one face chunk per u-row)
must answer exactly as the per-point command over the surface map does,
with faces that form a consistently oriented quad mesh,
``invariants``, ``octet``, ``plot`` of k or nu1 and ``msc`` (profiles
read over the whole u-grid, each CSV row written by one format from a
plain tuple) exactly as the public per-point closed forms and the csv
module do, and ``verify`` (closed side read once per u, rotation once per
v) exactly as the loop that reads them again at every grid point does.
The ``invariants`` and ``octet`` rows of one grid must also obey Wintgen's
inequality and its equality case.
"""

import contextlib
import csv
import io
import math
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (reference_export, reference_invariants, reference_octet,
                     reference_plot, reference_verify, reference_write_csv)
from rotsurf4 import cli
from rotsurf4.cli import main

EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -2.5, 1e308, -1e308,
               1e-300, 0.5, 1.0, 2.0, 3.0)

_meridian_leaf = st.sampled_from(("u", "u", "u", "0", "1", "2", "0.5", "1e-120", "1e200",
                                  "1e308"))


def _meridian_compound(children):
    return st.one_of(
        st.builds("{}({})".format, st.sampled_from(("sin", "cos", "exp", "log", "sqrt")),
                  children),
        st.builds("-({})".format, children),
        st.builds("({}{}{})".format, children, st.sampled_from("+-*/^"), children),
    )


meridians = st.recursive(_meridian_leaf, _meridian_compound, max_leaves=4)
edge_floats = st.sampled_from(EDGE_FLOATS)


def _mostly(ordinary, edge_one_in=4):
    """``ordinary``, or an edge value one draw in ``edge_one_in``, so that
    many runs get past the argument checks and evaluate points."""
    return st.integers(min_value=0, max_value=edge_one_in - 1).flatmap(
        lambda i: edge_floats if i == 0 else ordinary)


ORDINARY_SPEEDS = st.floats(min_value=0.1, max_value=5.0)
speeds = _mostly(ORDINARY_SPEEDS)
counts = st.integers(min_value=1, max_value=4)


@st.composite
def grid_specs(draw, edge_one_in=4):
    lo = draw(_mostly(st.floats(min_value=0.1, max_value=3.0), edge_one_in))
    hi = draw(_mostly(st.floats(min_value=0.1, max_value=3.0).map(lambda span: lo + span),
                      edge_one_in))
    return f"{lo!r}:{hi!r}:{draw(counts)}"


QUANTITIES = ("k", "kappa", "K", "nu1", "nu2", "mu", "gamma2", "beta2", "ellipse")
VERIFY_TOLERANCES = ("pipeline", "octet", "relations", "residual", "superconformal", "circle")
# a non-finite float as _num, repr and the report formats write it
NON_FINITE = re.compile(r"\b(?:nan|inf)\b")


COMMANDS = ("invariants", "octet", "export", "verify", "msc", "plot")


@st.composite
def command_lines(draw, commands=COMMANDS, quantities=QUANTITIES):
    command = draw(st.sampled_from(commands))
    # verify checks all seven of its numbers before it evaluates a point; at
    # one edge value in four, most of its draws would stop at that check
    edge_one_in = 16 if command == "verify" else 4
    speed = _mostly(ORDINARY_SPEEDS, edge_one_in)
    argv = [command, f"--alpha={draw(speed)!r}", f"--beta={draw(speed)!r}",
            f"--u={draw(grid_specs(edge_one_in))}"]
    tol = draw(_mostly(st.floats(min_value=0.0, max_value=1e-3), edge_one_in))
    if command == "msc":
        return argv + [f"--c={draw(_mostly(st.floats(min_value=-3.0, max_value=3.0)))!r}",
                       f"--eps={draw(st.sampled_from((1, -1)))}",
                       f"--tol-superconformal={tol!r}"]
    if draw(st.integers(min_value=0, max_value=3)) == 0:  # a power-law member
        c = _mostly(st.floats(min_value=-3.0, max_value=3.0), edge_one_in)
        argv += [f"--msc-c={draw(c)!r}", f"--eps={draw(st.sampled_from((1, -1)))}"]
    else:
        f, g = draw(meridians), draw(meridians)
        if "u" not in f + g:
            # two constants stop every run at "meridian speed vanishes"
            f = draw(meridians.filter(lambda text: "u" in text))
        argv += [f"--f={f}", f"--g={g}"]
    argv.append(f"--v={draw(grid_specs(edge_one_in))}")
    if command == "invariants":
        argv.append(f"--tol-class={tol!r}")
    elif command == "verify":
        argv.append(f"--tol-{draw(st.sampled_from(VERIFY_TOLERANCES))}={tol!r}")
    elif command == "plot":
        quantity = draw(st.sampled_from(quantities))
        argv.append(f"--quantity={quantity}")
        if quantity == "ellipse":
            point = _mostly(st.floats(min_value=0.1, max_value=3.0))
            argv += ["--point", repr(draw(point)), repr(draw(point))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_cli_answers_finitely_or_exits_2_or_3(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if argv[0] != "verify":
            argv = [*argv, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        verdicts = (0, 1) if argv[0] in ("verify", "msc") else (0,)
        assert code in (*verdicts, 2, 3), (code, err.getvalue())
        if code in verdicts:
            text = stdout.getvalue() + (out.read_text() if out.exists() else "")
            assert not NON_FINITE.search(text), text


def _parsed(parser, argv):
    """(the namespace as a dict of value reprs, so that NaN equals NaN and
    -0.0 differs from 0.0, or the exit code, and stderr) of
    ``parser.parse_args(argv)``."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            parsed = {name: repr(x) for name, x in vars(parser.parse_args(argv)).items()}
        except SystemExit as exc:
            parsed = exc.code
    return parsed, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines())
def test_subcommand_parser_reads_what_the_top_level_parser_reads(argv):
    # main parses a line that names its subcommand with that subcommand's
    # parser alone; the top level would hand it the same strings
    if argv[0] != "verify":
        argv = [*argv, "--out", "out"]
    parser = cli.build_parser()
    top, top_err = _parsed(parser, argv)
    if isinstance(top, dict):
        assert top.pop("command") == repr(argv[0])
    assert _parsed(parser.commands[argv[0]], argv[1:]) == (top, top_err)


@st.composite
def export_lines(draw):
    mesh = grid_specs().filter(lambda spec: not spec.endswith(":1"))  # export needs 2x2
    argv = ["export", f"--f={draw(meridians)}", f"--g={draw(meridians)}",
            f"--alpha={draw(speeds)!r}", f"--beta={draw(speeds)!r}",
            f"--u={draw(mesh)}", f"--v={draw(mesh)}",
            f"--projection=drop{draw(st.integers(min_value=1, max_value=4))}"]
    return argv + (["--close-v"] if draw(st.booleans()) else [])


def _run(argv, out: Path | None):
    """(exit code, stdout, stderr, bytes of ``out`` or None) of one in-process
    run, writing to ``out``, or to stdout for None."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([*argv, "--out", str(out)] if out else argv)
    data = out.read_bytes() if out and out.exists() else None
    return code, stdout.getvalue(), err.getvalue(), data


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=export_lines())
@example(argv=["export", "--f=u", "--g=log(u)", "--alpha=1", "--beta=2", "--u=0:1:2",
               "--v=1:1e308:2"])
@example(argv=["export", "--f=u", "--g=sqrt(0.5-u)", "--alpha=1", "--beta=2", "--u=0:1:3",
               "--v=-1:1e308:3", "--projection=drop1"])
@example(argv=["export", "--f=-u", "--g=-(u^2)", "--alpha=1", "--beta=3", "--u=-1:1:3",
               "--v=-2:2:5", "--projection=drop3", "--close-v"])
def test_export_matches_per_point_reference(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "mesh.obj"
        grid = _run(argv, out)
        if out.exists():
            out.unlink()
        with mock.patch.object(cli, "cmd_export", reference_export):
            parser = cli.build_parser()
        with mock.patch.object(cli, "_parser", lambda: parser):
            reference = _run(argv, out)
    assert grid == reference


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=export_lines())
@example(argv=["export", "--f=u", "--g=u^2+1", "--alpha=1", "--beta=2", "--u=0:1:3",
               "--v=0:1:2", "--close-v"])
@example(argv=["export", "--f=u", "--g=u^2+1", "--alpha=1", "--beta=2", "--u=0:1:2",
               "--v=0:1:3", "--close-v"])
def test_export_faces_form_an_oriented_quad_mesh(argv):
    """Every face of an exported mesh is a quad on vertices 1..nu nv; each
    undirected edge borders at most two faces, which run it in opposite
    directions; and V - E + F is 0 for a closed v (an annulus, nv >= 3) and 1
    for an open one (a disc).  With ``--close-v`` and nv = 2 the two quads of
    each row share all four vertices, so an inner row's v-edge borders four
    faces; that degenerate mesh is pinned as it is (``nv2-close-v`` in
    ``test_export_pins.py``), and here only its shared vertex sets are checked."""
    with tempfile.TemporaryDirectory() as tmp:
        code, _, _, data = _run(argv, Path(tmp) / "mesh.obj")
    if code != 0:
        return
    nu, nv = (int(spec.rsplit(":", 1)[1]) for spec in argv[5:7])
    close_v = "--close-v" in argv
    lines = data.decode().splitlines()
    faces = [tuple(map(int, line.split()[1:])) for line in lines if line.startswith("f ")]
    assert len(lines) - len(faces) == nu * nv
    assert len(faces) == (nu - 1) * (nv if close_v else nv - 1)
    assert all(len(face) == 4 and all(1 <= x <= nu * nv for x in face) for face in faces)
    if close_v and nv == 2:
        assert all(set(faces[i]) == set(faces[i + 1]) for i in range(0, len(faces), 2))
        return
    directed = Counter((a, b) for face in faces for a, b in zip(face, face[1:] + face[:1]))
    assert max(directed.values()) == 1  # so a shared edge runs in opposite directions
    edges = Counter(frozenset(edge) for edge in directed)
    assert max(edges.values()) <= 2
    assert nu * nv - len(edges) + len(faces) == (0 if close_v else 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines(("invariants", "octet", "plot", "msc"), ("k", "nu1")),
       to_file=st.booleans())
# a regularity failure (u = 0) before a profile error (u = 1), and after one
@example(argv=["invariants", "--alpha=1", "--beta=2", "--u=0:1:3", "--f=u", "--g=u/(u-1)",
               "--v=0:1:2"], to_file=False)
@example(argv=["octet", "--alpha=1", "--beta=2", "--u=0:1:3", "--f=u-1", "--g=(u-1)*log(u)",
               "--v=0:1:1"], to_file=True)
@example(argv=["plot", "--alpha=1", "--beta=2", "--u=-1:1:3", "--f=u", "--g=u^2",
               "--v=0:0:1", "--quantity=nu1"], to_file=True)
# the closed k's (G E)^3 underflows at u = 1, where an invariants row refuses
# K, a term of whose numerator underflows; then (G E)^2 overflows at u = 1,
# which K refuses
@example(argv=["invariants", "--alpha=1", "--beta=2", "--u=1e-10:1:2", "--f=1e-30*u^-2",
               "--g=1e-120", "--v=0:1:2"], to_file=True)
@example(argv=["invariants", "--alpha=1", "--beta=2", "--u=1:2:2", "--f=1e40", "--g=1e40*u",
               "--v=0:1:1"], to_file=False)
def test_closed_rows_match_per_point_reference(argv, to_file):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out" if to_file or argv[0] == "plot" else None
        grid = _run(argv, out)
        if out is not None and out.exists():
            out.unlink()
        with mock.patch.object(cli, "cmd_invariants", reference_invariants), \
                mock.patch.object(cli, "cmd_octet", reference_octet), \
                mock.patch.object(cli, "cmd_plot", reference_plot):
            parser = cli.build_parser()
        with mock.patch.object(cli, "_parser", lambda: parser), \
                mock.patch.object(cli, "_write_csv", reference_write_csv):
            reference = _run(argv, out)
    assert grid == reference


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines(("verify",)))
# a profile that raises first at a finite-difference or b-field stencil point,
# before the next grid line's own profile read raises
@example(argv=["verify", "--f=u", "--g=sqrt(1-u)", "--alpha=1", "--beta=2",
               "--u=0.5:0.99995:3", "--v=0:1:2"])
@example(argv=["verify", "--f=u", "--g=sqrt(1-u)", "--alpha=1", "--beta=2",
               "--u=0.9999:1.5:2", "--v=0:1:2"])
# the radii vanish at the stencil point u + _STEP = 0 only
@example(argv=["verify", "--f=u", "--g=u^2", "--alpha=1", "--beta=2", "--u=-0.0001:1:2",
               "--v=0:1:2"])
# a rotation angle that overflows on the grid
@example(argv=["verify", "--f=u", "--g=u^2", "--alpha=1", "--beta=2", "--u=0.5:2:3",
               "--v=0:1e308:2"])
# grid lines one stencil step apart share their reads; -0.0 as a one-point grid
@example(argv=["verify", "--f=u", "--g=u^3", "--alpha=1", "--beta=2", "--u=1:1.0003:4",
               "--v=0:0.0002:3"])
@example(argv=["verify", "--f=u+1", "--g=u", "--alpha=1", "--beta=2", "--u=-0.0:0:1",
               "--v=-0.0:0:1"])
# a member, so the superconformal and circle checks run on the cached jets
@example(argv=["verify", "--msc-c=1", "--eps=1", "--alpha=1", "--beta=2", "--u=0.5:2:3",
               "--v=0:1:2"])
def test_verify_matches_per_point_reference(argv):
    grid = _run(argv, None)
    with mock.patch.object(cli, "cmd_verify", reference_verify):
        parser = cli.build_parser()
    with mock.patch.object(cli, "_parser", lambda: parser):
        reference = _run(argv, None)
    assert grid == reference


# Wintgen's inequality K + |kappa| <= |H|^2, with |H|^2 = (nu1 + nu2)^2 / 4 on
# the family (lambda = 0), and its gap (|nu1 - nu2| / 2 - |mu|)^2, which
# vanishes exactly at the super-conformal points.  K and kappa come from the
# ``invariants`` rows, the nus and mu from the ``octet`` rows of the same
# grid, so the law ties the two row kernels together with no second oracle.
# Each of K, kappa, nu1, nu2 and mu is a closed form of at most 16
# roundings after the differences g f' - f g', g' f'' - f' g'' and
# b^2 g f' - a^2 f g', which both commands round alike; each term of the
# gap is therefore within 16 eps of the largest square below, and the gap
# sums four terms.
WINTGEN_ROUNDING = 64 * sys.float_info.epsilon


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=command_lines(("invariants",)))
@example(argv=["invariants", "--alpha=1.0", "--beta=2.0", "--u=0.5:3.0:4", "--f=u",
               "--g=sin(u)", "--v=0.0:1.0:1", "--tol-class=0.0"])
@example(argv=["invariants", "--alpha=0.5", "--beta=3.0", "--u=0.25:4.0:4", "--msc-c=1.5",
               "--eps=-1", "--v=0.0:1.0:1", "--tol-class=0.0"])
def test_wintgen_gap_on_the_cli_rows(argv):
    _check_wintgen_gap(argv)


# G = a*a*f*f + b*b*g*g would drop a^2 f^2 where a*a underflows and a*f
# does not (a f = 1e8 in the second command, so G is 1e16, not 0.25), which
# the law saw; such a speed is now a usage error that names it
@pytest.mark.parametrize("argv", [
    ["invariants", "--f=-(1e308)", "--g=sin(u)", "--alpha=1e-300", "--beta=2", "--u=1:1:1"],
    ["invariants", "--f=1e308", "--g=u", "--alpha=1e-300", "--beta=0.5", "--u=-1.0:0.0:1"],
])
def test_a_speed_whose_square_underflows_is_a_usage_error(argv):
    code, out, err, _ = _run(argv, None)
    assert (code, out) == (2, "")
    assert "rotation speed alpha squared underflows" in err


def _check_wintgen_gap(argv):
    """The law on the ``invariants`` and ``octet`` rows of ``argv``'s surface
    and u grid, where both commands answer."""
    source = [arg for arg in argv[1:] if not arg.startswith(("--v=", "--tol-class="))]
    inv_code, inv_out, _, _ = _run(["invariants", *source], None)
    oct_code, oct_out, _, _ = _run(["octet", *source], None)
    if (inv_code, oct_code) != (0, 0):
        return
    power_law = any(arg.startswith("--msc-c=") for arg in source)
    for inv, octet in zip(_rows(inv_out), _rows(oct_out), strict=True):
        assert inv["u"] == octet["u"]
        gauss, kappa = float(inv["K"]), float(inv["kappa"])
        nu1, nu2, mu = float(octet["nu1"]), float(octet["nu2"]), float(octet["mu"])
        scale = max(1.0, nu1 * nu1, nu2 * nu2, mu * mu, abs(gauss), abs(kappa))
        mean2 = (nu1 + nu2) * (nu1 + nu2) / 4.0
        half_gap = abs(nu1 - nu2) / 2.0 - abs(mu)
        circle = half_gap * half_gap
        if not (math.isfinite(scale) and math.isfinite(mean2) and math.isfinite(circle)):
            continue  # a square overflows: no rounding bound applies
        gap = mean2 - gauss - abs(kappa)
        bound = WINTGEN_ROUNDING * scale
        assert gap >= -bound, (inv, octet)
        assert abs(gap - circle) <= bound, (inv, octet)
        if power_law:
            assert abs(gap) <= bound, (inv, octet)
