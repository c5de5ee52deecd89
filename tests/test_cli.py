import csv
import io
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotsurf4 import cli
from helpers import field_values, num, reference_jet_dev, reference_octet_dev
from rotsurf4.cli import main
from rotsurf4.expr import Profile
from rotsurf4.forms import SecondForm, classify, invariants
from rotsurf4.geometry import Jet2, Vec4
from rotsurf4.msc import MscParams, msc_surface
from rotsurf4.octet import FrenetOctet
from rotsurf4.rotational import RotationalSurface, closed_forms_at, closed_invariants_at

RUN = ["--f", "u", "--g", "u^2", "--alpha", "1", "--beta", "2"]
FLAT_WARNING = "c = 0 gives the degenerate flat branch (g identically zero)"
DOMAIN_MESSAGE = "the domain of a power-law meridian must lie inside (0, inf)"
# each subcommand that takes a power-law source and a grid, with its other arguments
GRID_COMMANDS = {"invariants": [], "octet": [], "verify": [], "export": ["--out", "m.obj"],
                 "plot": ["--quantity", "k", "--out", "k.svg"]}


def _read_csv(path):
    with open(path, newline="") as stream:
        return list(csv.DictReader(stream))


# ---------------------------------------------------------------------------
# invariants

def test_invariants_single_point(tmp_path):
    out = tmp_path / "inv.csv"
    code = main(["invariants", *RUN, "--u", "1:1:1", "--v", "0:0:1", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert list(row.keys()) == ["u", "v", "E", "F", "G", "L", "M", "N", "k", "kappa", "K", "type"]
    assert float(row["k"]) == pytest.approx(64 / 15625, rel=1e-15)
    assert float(row["kappa"]) == pytest.approx(0.064, rel=1e-15)
    assert float(row["K"]) == pytest.approx(-0.064, rel=1e-15)
    assert row["type"] == "elliptic"


def test_invariants_flat_family(tmp_path):
    out = tmp_path / "flat.csv"
    code = main(["invariants", "--f", "u", "--g", "2*u", "--alpha", "1", "--beta", "2",
                 "--u", "0.5:2:5", "--v", "0:1:3", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert len(rows) == 15
    assert all(row["type"] == "flat" for row in rows)


def test_invariants_missing_g_usage_error(capsys):
    assert main(["invariants", "--f", "u", "--alpha", "1", "--beta", "2",
                 "--u", "1:1:1"]) == 2


def test_invariants_parse_error_reports_offset(tmp_path, capsys):
    code = main(["invariants", "--f", "u", "--g", "u^2 + spam(u)",
                 "--alpha", "1", "--beta", "2", "--u", "1:1:1"])
    assert code == 2
    assert "offset" in capsys.readouterr().err


def test_invariants_domain_error_names_first_point(tmp_path, capsys):
    code = main(["invariants", "--f", "u", "--g", "sqrt(u-2)",
                 "--alpha", "1", "--beta", "2", "--u", "0.5:1:2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "(u, v)" in err and "0.5" in err


@pytest.mark.parametrize("f, g, reason", [
    ("1e-120*u", "1e-120*u^2", "zero divisor"),   # E*G underflows to 0
    ("1e200*u", "u^2", "non-finite result"),       # E and G overflow
])
def test_invariants_out_of_range_point_names_it(tmp_path, capsys, f, g, reason):
    out = tmp_path / "inv.csv"
    code = main(["invariants", "--f", f, "--g", g, "--alpha", "1", "--beta", "2",
                 "--u", "1:1:1", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "(u, v) = (1.0, 0.0)" in err and reason in err
    assert not out.exists()


def test_invariants_type_column_recomputable(tmp_path):
    out = tmp_path / "inv.csv"
    main(["invariants", *RUN, "--u", "0.5:2:8", "--v", "0:0:1", "--out", str(out)])
    for row in _read_csv(out):
        sf = SecondForm(float(row["L"]), float(row["M"]), float(row["N"]))
        recomputed = classify(float(row["k"]), float(row["kappa"]), sf, 1e-8)
        assert recomputed.value == row["type"]


def test_invariants_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["invariants", *RUN, "--u", "0.5:2:6", "--v", "0:6.283185307179586:5"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# octet

def test_octet_grid(tmp_path):
    out = tmp_path / "octet.csv"
    code = main(["octet", *RUN, "--u", "1:1:1", "--out", str(out)])
    assert code == 0
    rows = _read_csv(out)
    assert list(rows[0].keys()) == ["u", "gamma1", "gamma2", "nu1", "nu2",
                                    "lambda", "mu", "beta1", "beta2"]
    assert float(rows[0]["beta2"]) == pytest.approx(1.2, rel=1e-14)
    assert float(rows[0]["lambda"]) == 0.0


# ---------------------------------------------------------------------------
# verify

def _max_devs(out):
    """Check name -> max dev, read from verify's report lines."""
    return {line.split()[0]: float(line.split()[3])
            for line in out.splitlines() if " max dev " in line}


# the family sweep (c = 1, each speed pair from {1, 2, 3} with both branch
# signs, default domain) and the running example on a crosscheck grid are
# all members, so every check applies to each
@pytest.mark.parametrize("argv", [
    pytest.param(["--msc-c", "1", "--eps", "1", "--alpha", "1", "--beta", "2",
                  "--u", "0.5:2:5"], id="msc"),
    *(pytest.param(["--msc-c", "1", f"--eps={eps}", "--alpha", str(a), "--beta", str(b)],
                   id=f"sweep-a{a}-b{b}-eps{eps}")
      for a in (1, 2, 3) for b in (1, 2, 3) if a != b for eps in (1, -1)),
    pytest.param([*RUN, "--u", "0.5:2:10", "--v", "0:0:1"], id="crosscheck-grid"),
])
def test_verify_passes_on_msc_surface(capsys, argv):
    code = main(["verify", *argv])
    out = capsys.readouterr().out
    assert code == 0 and "overall: PASS" in out
    assert ": member" in out
    devs = _max_devs(out)
    assert devs["superconformal"] <= 1e-8
    assert devs["forms"] <= 1e-6 and devs["invariants"] <= 1e-6


def test_verify_cubic_superconformal_not_applicable(capsys):
    code = main(["verify", "--f", "u", "--g", "u^3", "--alpha", "1", "--beta", "2",
                 "--u", "0.5:2:4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "superconformal         n/a" in out
    assert "overall: PASS" in out


def test_verify_flat_branch_marks_octet_not_applicable(capsys):
    # c = 0: totally geodesic everywhere, the frame invariants are undefined
    code = main(["verify", "--msc-c", "0", "--eps", "1", "--alpha", "1",
                 "--beta", "2", "--u", "0.5:2:3"])
    assert code == 0
    out, err = capsys.readouterr()
    assert err == f"warning: {FLAT_WARNING}\n"
    assert "octet                  n/a" in out
    assert "overall: PASS" in out


@pytest.mark.parametrize("f, g", [("exp(u)", "exp(2*u)"), ("u^3", "u^6"),
                                  ("(2*u+1)", "3*(2*u+1)^2"), ("2*u", "u^2")])
def test_verify_reparametrized_member(capsys, f, g):
    # each meridian is the member (t, c t^2) in another chart t = f(u)
    code = main(["verify", "--f", f, "--g", g, "--alpha", "1", "--beta", "2",
                 "--u", "0.5:1.5:5", "--v", "0:1:2"])
    assert code == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
    assert lines["msc-equation"].endswith(": member")
    assert lines["superconformal"].endswith("PASS")
    assert lines["ellipse-circle"].endswith("PASS")


def test_verify_cubic_in_a_slow_chart_is_not_a_member(capsys):
    # near u = 0 both sides of the msc equation are ~1e-15; the verdict
    # must not depend on how small they are
    code = main(["verify", "--f", "u", "--g", "u^3", "--alpha", "1", "--beta", "2",
                 "--u", "0.5e-5:2e-5:4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max scaled residual 7.500e-01 (tol 1.0e-08): not a member" in out
    assert "ellipse-circle         n/a" in out


@pytest.mark.parametrize("grid, point", [
    (["--u=1e300:1e301:2"], "(1e+300, 0.0)"),              # profile overflow, once per u
    (["--u", "1:2:2", "--v=1:1e308:2"], "(1.0, 1e+308)"),  # angle overflow, per point
])
def test_verify_domain_error_names_point(capsys, grid, point):
    code = main(["verify", *RUN, *grid])
    assert code == 3
    err = capsys.readouterr().err
    assert f"at (u, v) = {point}" in err and "Traceback" not in err


def test_verify_octet_stencil_error_beats_flat_centre(capsys):
    # g = 0 makes (1, 0) totally geodesic, and f vanishes at the stencil
    # point u + 1e-4: the octet reads its stencil first, so the point fails
    # rather than the octet check reading n/a
    code = main(["verify", "--f", "u-(1+0.0001)", "--g", "0", "--alpha", "1", "--beta", "2",
                 "--u", "1:1:1"])
    assert code == 3
    assert capsys.readouterr() == (
        "", "error: at (u, v) = (1.0, 0.0): rotation radii vanish at u=1.0001\n")


def test_verify_zero_tolerance_fails(capsys):
    code = main(["verify", *RUN, "--u", "1:1.5:3",
                 "--tol-pipeline", "0", "--tol-octet", "0", "--tol-relations", "0"])
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_reads_each_jet_and_meridian_point_once(monkeypatch, capsys):
    # parabola on a 5x4 grid, an msc member, so the superconformal loop runs
    jets, abscissae = [], []
    jet_builder, meridian_at = cli.analytic_jet2_from, RotationalSurface.meridian_at

    def counted_jet(*args):
        jets.append(args)
        return jet_builder(*args)

    def counted_point(surface, u):
        abscissae.append(u)
        return meridian_at(surface, u)

    monkeypatch.setattr(cli, "analytic_jet2_from", counted_jet)
    monkeypatch.setattr(RotationalSurface, "meridian_at", counted_point)
    assert main(["verify", *RUN, "--u", "1:2:5", "--v", "0:1:4"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    # 4 octet stencil jets and the jets check's centre jet at each of the 20
    # points, which the octet reuses, then one centre jet per u
    assert len(jets) == 20 * 5 + 5
    # fd_jet2 meets u, u -+ h and u -+ h/2 at each u: 25 distinct abscissae,
    # each read once by the surface map although the stencils read 340 points
    assert len(abscissae) == len(set(abscissae)) == 25


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324)


@st.composite
def _component_pairs(draw, size):
    """``size`` pairs (x, y) with y drawn equal to x, to -x, or on its own,
    so ties, gauge-flipped pairs, NaN and +-inf all occur."""
    value = st.one_of(st.sampled_from(_SPECIALS), st.floats())
    pairs = []
    for _ in range(size):
        x = draw(value)
        y = draw(st.one_of(st.just(x), st.just(-x), value))
        pairs.append((x, y))
    return pairs


def _jet(values):
    return Jet2(*(Vec4(*values[i:i + 4]) for i in range(0, 24, 4)))


@example([(math.nan, 0.0)] + [(1.0, 2.0)] * 23)
@example([(0.0, math.nan)] + [(math.inf, 1.0)] * 23)
@example([(math.inf, -math.inf)] * 24)
@example([(math.nan, math.nan)] * 24)
@settings(max_examples=500)
@given(_component_pairs(24))
def test_one_pass_jet_dev_is_the_max_expression(pairs):
    j1, j2 = _jet([x for x, _ in pairs]), _jet([y for _, y in pairs])
    assert _bits(cli._jet_dev(j1, j2)) == _bits(reference_jet_dev(j1, j2))


@example([(math.nan, 0.0)] + [(1.0, 2.0)] * 7)
@example([(1.0, 1.0), (2.0, 2.0), (math.nan, 1.0), (1.0, -1.0), (3.0, 4.0), (1.0, math.nan),
          (0.0, 0.0), (0.0, 0.0)])
@example([(1.0, 1.0)] * 2 + [(2.0, -2.0)] * 4 + [(1.0, 1.0)] * 2)
@example([(math.inf, math.inf)] * 2 + [(math.inf, -math.inf)] * 4 + [(1e308, -1e308)] * 2)
@settings(max_examples=500)
@given(_component_pairs(8))
def test_one_pass_octet_dev_is_the_two_maxima(pairs):
    a, b = FrenetOctet(*(x for x, _ in pairs)), FrenetOctet(*(y for _, y in pairs))
    assert _bits(cli._octet_dev(a, b)) == _bits(reference_octet_dev(a, b))


# ---------------------------------------------------------------------------
# msc

def test_msc_square_profile(tmp_path, capsys):
    out = tmp_path / "msc.csv"
    code = main(["msc", "--c", "1", "--alpha", "1", "--beta", "2", "--eps", "1",
                 "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "profile: 1*u^2" in stdout
    assert "20/20" in stdout
    rows = _read_csv(out)
    assert len(rows) == 20
    assert all(row["superconformal"] == "true" for row in rows)
    assert all(abs(float(row["residual"])) <= 1e-10 for row in rows)


def test_msc_csv_on_stdout_is_written_as_the_csv_module_writes_it(capfd):
    # capfd: the bytes, so "\r\n" is seen as written
    assert main(["msc", "--alpha", "1", "--beta", "2", "--u", "0.5:2:4",
                 "--tol-superconformal", "0"]) == 0
    assert capfd.readouterr().out == (
        "profile: 1*u^2\n"
        "u,k,kappa,K,residual,minimal,superconformal\r\n"
        "0.5,1,1,-1,0,true,true\r\n"
        "1,0.0040959999999999998,0.064000000000000001,-0.064000000000000001,0,true,true\r\n"
        "1.5,6.3999999999999997e-05,0.0080000000000000002,-0.0080000000000000002,0,true,true\r\n"
        "2,2.6514683396658547e-06,0.0016283329940972929,-0.0016283329940972929,0,true,true\r\n"
        "minimal super-conformal at 4/4 grid points\n")
    # a zero tolerance fails this member's rounded points: the verdicts read "false"
    assert main(["msc", "--alpha", "1", "--beta", "3", "--c", "0.7", "--u", "0.3:2.7:4",
                 "--tol-superconformal", "0"]) == 1
    rows = capfd.readouterr().out.split("\r\n")[1:-1]
    assert len(rows) == 4 and all(row.endswith(",false,false") for row in rows)


def test_csv_lines_are_written_as_they_are_formatted(monkeypatch):
    # the rows are not held as a whole: each line is written before the next row is read
    written, seen = [], []

    class Recorder(io.StringIO):
        def write(self, text):
            written.append(text)
            return super().write(text)

    def rows():
        for u in (0.5, 1.0, 2.0):
            seen.append(len(written))
            yield (u,)

    monkeypatch.setattr(sys, "stdout", Recorder())
    cli._write_csv(None, "u\r\n", "%.17g\r\n", rows())
    assert seen == [1, 2, 3]
    assert written == ["u\r\n", "0.5\r\n", "1\r\n", "2\r\n"]


def test_msc_overflow_names_point(tmp_path, capsys):
    out = tmp_path / "msc.csv"
    code = main(["msc", "--c", "1e60", "--alpha", "1", "--beta", "2", "--u", "1:2:2",
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "u=1.0" in err and "Traceback" not in err
    assert not out.exists()


def test_msc_residual_overflow_names_point(tmp_path, capsys):
    out = tmp_path / "msc.csv"
    code = main(["msc", "--c", "1", "--alpha", "1e200", "--beta", "2e200", "--u", "0.5:1.5:2",
                 "--out", str(out)])
    assert code == 3
    assert "u=0.5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha, beta", [("1e308", "1e-300"), ("1e-300", "1e308")])
def test_msc_exponent_out_of_range_usage_error(capsys, alpha, beta):
    # beta/alpha underflows to 0 or overflows to inf
    assert main(["msc", "--c", "0", "--alpha", alpha, "--beta", beta]) == 2
    err = capsys.readouterr().err
    assert f"alpha={float(alpha)!r}, beta={float(beta)!r}" in err


def test_msc_equal_speeds_usage_error():
    assert main(["msc", "--c", "1", "--alpha", "1", "--beta", "1", "--eps", "1"]) == 2


def test_msc_one_point_grid(capfd):
    # count = 1 is the single point min, inside the power law's domain
    assert main(["msc", "--alpha", "1", "--beta", "2", "--u", "1:1:1"]) == 0
    assert capfd.readouterr().out == (
        "profile: 1*u^2\n"
        "u,k,kappa,K,residual,minimal,superconformal\r\n"
        "1,0.0040959999999999998,0.064000000000000001,-0.064000000000000001,0,true,true\r\n"
        "minimal super-conformal at 1/1 grid points\n")


@pytest.mark.parametrize("grid", [["--u", "0:1:2"], ["--u=-1:1:3"], ["--u", "0:1:1"]])
def test_msc_grid_outside_the_domain_usage_error(capsys, grid):
    assert main(["msc", "--alpha", "1", "--beta", "2", *grid]) == 2
    assert DOMAIN_MESSAGE in capsys.readouterr().err


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_power_law_warning_is_one_stderr_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    assert main([command, "--msc-c", "0", "--eps", "1", "--alpha", "1", "--beta", "2",
                 "--u", "0.5:2:3", *GRID_COMMANDS[command]]) == 0
    assert capsys.readouterr().err == f"warning: {FLAT_WARNING}\n"


@pytest.mark.parametrize("grid", [["--u", "0:1:2"], ["--u=-1:1:3"]])
@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_power_law_grid_outside_the_domain_usage_error(tmp_path, monkeypatch, capsys,
                                                       command, grid):
    # as msc: the member is built on the grid's bounds, before any point is read
    monkeypatch.chdir(tmp_path)
    assert main([command, "--msc-c", "1", "--eps", "1", "--alpha", "1", "--beta", "2",
                 *grid, *GRID_COMMANDS[command]]) == 2
    err = capsys.readouterr().err
    assert f"rotsurf4 {command}: error: {DOMAIN_MESSAGE}" in err
    assert not list(tmp_path.iterdir())


def test_msc_degenerate_constant_warns_but_runs(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code = main(["msc", "--c", "0", "--alpha", "1", "--beta", "2", "--eps", "1",
                 "--u", "1:2:3", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == f"warning: {FLAT_WARNING}\n"


# ---------------------------------------------------------------------------
# export

def test_export_mesh_counts(tmp_path):
    out = tmp_path / "m.obj"
    code = main(["export", *RUN, "--u", "0.5:2:10", "--v", "0:6.283185307179586:10",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 100
    assert sum(1 for l in lines if l.startswith("f ")) == 81


def test_export_closed_v_loop_stitches(tmp_path):
    out = tmp_path / "m.obj"
    code = main(["export", *RUN, "--u", "0.5:2:10", "--v", "0:6.283185307179586:10",
                 "--close-v", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("f ")) == 90


def test_export_msc_surface_is_finite(tmp_path):
    out = tmp_path / "m.obj"
    code = main(["export", "--msc-c", "1", "--eps", "1", "--alpha", "1", "--beta", "2",
                 "--projection", "drop4", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "nan" not in text.lower() and "inf" not in text.lower()


def test_export_deterministic(tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    args = ["export", *RUN, "--u", "0.5:2:6", "--v", "0:6.283185307179586:6"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_needs_grid(tmp_path):
    assert main(["export", *RUN, "--u", "1:1:1", "--v", "0:1:4",
                 "--out", str(tmp_path / "m.obj")]) == 2


# ---------------------------------------------------------------------------
# plot

def test_plot_invariant_curve(tmp_path):
    out = tmp_path / "k.svg"
    code = main(["plot", "--msc-c", "1", "--eps", "1", "--alpha", "1", "--beta", "2",
                 "--u", "0.5:2:30", "--quantity", "k", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text


def test_plot_flat_surface_zero_line(tmp_path):
    out = tmp_path / "z.svg"
    code = main(["plot", "--f", "u", "--g", "2*u", "--alpha", "1", "--beta", "2",
                 "--u", "0.5:2:10", "--quantity", "k", "--out", str(out)])
    assert code == 0
    assert "<polyline" in out.read_text()


def test_plot_ellipse(tmp_path):
    out = tmp_path / "e.svg"
    code = main(["plot", *RUN, "--u", "1:1:1", "--quantity", "ellipse",
                 "--point", "1", "0", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "<polygon" in text


def test_plot_ellipse_needs_no_u_grid(tmp_path):
    # the ellipse reads only --point; the bytes equal those of a run with a grid
    out, with_grid = tmp_path / "e.svg", tmp_path / "g.svg"
    assert main(["plot", *RUN, "--quantity", "ellipse", "--point", "1", "0",
                 "--out", str(out)]) == 0
    assert main(["plot", *RUN, "--u", "1:1:1", "--quantity", "ellipse", "--point", "1", "0",
                 "--out", str(with_grid)]) == 0
    assert out.read_bytes() == with_grid.read_bytes()
    # nor does it check a --u that lies outside a power-law member's domain
    assert main(["plot", "--msc-c", "1", "--eps", "1", "--alpha", "1", "--beta", "2",
                 "--u=-1:1:3", "--quantity", "ellipse", "--point", "1", "0",
                 "--out", str(out)]) == 0


def test_plot_line_still_needs_u_grid(tmp_path, capsys):
    assert main(["plot", *RUN, "--quantity", "k", "--out", str(tmp_path / "k.svg")]) == 2
    assert "--u is required for an expression surface" in capsys.readouterr().err


@pytest.mark.parametrize("point", [("1", "nan"), ("inf", "0"), ("1", "1e309"), ("1", "x")])
def test_plot_ellipse_point_must_be_finite(tmp_path, capsys, point):
    out = tmp_path / "e.svg"
    code = main(["plot", *RUN, "--quantity", "ellipse", "--point", *point, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage: rotsurf4 plot" in err and "argument --point" in err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["2", "-1", "x", "3.5"])
def test_plot_ellipse_samples_checked_at_parse_time(tmp_path, capsys, samples):
    out = tmp_path / "e.svg"
    code = main(["plot", *RUN, "--quantity", "ellipse", "--point", "1", "0",
                 "--samples", samples, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "usage: rotsurf4 plot" in err and "argument --samples" in err
    assert not out.exists()


def test_plot_ellipse_three_samples(tmp_path):
    out = tmp_path / "e.svg"
    assert main(["plot", *RUN, "--quantity", "ellipse", "--point", "1", "0",
                 "--samples", "3", "--out", str(out)]) == 0
    assert "<polygon" in out.read_text()


def test_plot_ellipse_non_finite_names_point(tmp_path, capsys):
    out = tmp_path / "e.svg"
    code = main(["plot", "--f", "1e200*u", "--g", "u^2", "--alpha", "1", "--beta", "2",
                 "--u", "1:1:1", "--quantity", "ellipse", "--point", "1", "0",
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "(u, v) = (1.0, 0.0)" in err and "not finite" in err
    assert not out.exists()


def test_plot_ellipse_underflowing_metric_names_point(tmp_path, capsys):
    # E W = 1e-240 * 1e-120 underflows to 0 at u = 1
    out = tmp_path / "e.svg"
    code = main(["plot", "--f", "0", "--g", "(u^1e-120)", "--alpha", "1e308", "--beta", "1",
                 "--u", "0:0:1", "--quantity", "ellipse", "--point", "1", "0",
                 "--out", str(out)])
    assert code == 3
    assert "(u, v) = (1.0, 0.0)" in capsys.readouterr().err
    assert not out.exists()


def test_plot_single_point_at_large_u(tmp_path):
    # 1e20 +- 1 rounds back to 1e20; the u axis must still get a span
    out = tmp_path / "b.svg"
    assert main(["plot", *RUN, "--u", "1e20:1e20:1", "--quantity", "beta2",
                 "--out", str(out)]) == 0
    assert 'points="580.00,220.00"' in out.read_text()


def test_plot_invariant_power_overflow_names_point(tmp_path, capsys):
    out = tmp_path / "k.svg"
    code = main(["plot", "--f", "1e110*u", "--g", "u^2", "--alpha", "1", "--beta", "2",
                 "--u", "1:1:1", "--quantity", "k", "--out", str(out)])
    assert code == 3
    assert "(u, v) = (1.0, 0.0)" in capsys.readouterr().err
    assert not out.exists()


def test_plot_unknown_quantity_usage_error(tmp_path):
    assert main(["plot", *RUN, "--u", "1:1:1", "--quantity", "bogus",
                 "--out", str(tmp_path / "x.svg")]) == 2


def test_plot_ellipse_needs_point(tmp_path):
    assert main(["plot", *RUN, "--u", "1:1:1", "--quantity", "ellipse",
                 "--out", str(tmp_path / "x.svg")]) == 2


# ---------------------------------------------------------------------------
# shared source handling

def test_both_surface_sources_rejected():
    assert main(["invariants", *RUN, "--msc-c", "1", "--eps", "1", "--u", "1:1:1"]) == 2


def test_bad_grid_spec_rejected():
    assert main(["invariants", *RUN, "--u", "1:2"]) == 2
    assert main(["invariants", *RUN, "--u", "2:1:5"]) == 2
    assert main(["invariants", *RUN, "--u", "1:2:0"]) == 2
    assert main(["invariants", *RUN, "--u", "1:1:1", "--v", "nan:nan:1"]) == 2
    assert main(["invariants", *RUN, "--u", "inf:inf:1"]) == 2
    assert main(["invariants", *RUN, "--u", "1:2:2", "--v=-1e308:1e308:3"]) == 2
    assert main(["invariants", *RUN, "--u=-1e308:1e308:2"]) == 2


def test_grid_span_overflow_names_flag(capsys):
    assert main(["invariants", *RUN, "--u", "1:2:2", "--v=-1e308:1e308:3"]) == 2
    assert "argument --v: max - min overflows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument ranges

@pytest.mark.parametrize("argv, flag", [
    (["invariants", *RUN, "--u", "1:2:2"], "--tol-class"),
    (["verify", *RUN, "--u", "1:2:2"], "--tol-pipeline"),
    (["verify", *RUN, "--u", "1:2:2"], "--tol-octet"),
    (["verify", *RUN, "--u", "1:2:2"], "--tol-relations"),
    (["verify", *RUN, "--u", "1:2:2"], "--tol-residual"),
    (["verify", *RUN, "--u", "1:2:2"], "--tol-superconformal"),
    (["verify", *RUN, "--u", "1:2:2"], "--tol-circle"),
    (["msc", "--alpha", "1", "--beta", "2", "--u", "1:2:2"], "--tol-superconformal"),
])
@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-inf", "-1e-300", "x"])
def test_tolerance_must_be_finite_and_non_negative(capsys, argv, flag, value):
    assert main([*argv, f"{flag}={value}"]) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["invariants", *RUN, "--u", "1:2:2", "--tol-class", "0"],
    ["verify", *RUN, "--u", "1:2:2", "--tol-residual", "0", "--tol-circle", "0"],
])
def test_zero_tolerance_accepted(argv):
    assert main(argv) in (0, 1)


@pytest.mark.parametrize("argv, name", [
    (["export", "--f", "u", "--g", "u^2", "--alpha", "nan", "--beta", "2",
      "--u", "1:2:2", "--v", "0:1:2"], "alpha"),
    (["export", "--f", "u", "--g", "u^2", "--alpha", "inf", "--beta", "2",
      "--u", "1:2:2", "--v", "0:1:2"], "alpha"),
    (["invariants", "--f", "u", "--g", "u^2", "--alpha", "1", "--beta", "nan",
      "--u", "1:2:2"], "beta"),
    (["octet", "--msc-c", "1", "--eps", "1", "--alpha", "1", "--beta", "inf"], "beta"),
    (["msc", "--alpha", "nan", "--beta", "2"], "alpha"),
    (["msc", "--alpha", "1", "--beta", "inf"], "beta"),
    (["msc", "--c", "inf", "--alpha", "1", "--beta", "2"], "constant c"),
    (["msc", "--c", "nan", "--alpha", "1", "--beta", "2"], "constant c"),
])
def test_non_finite_speed_or_constant_names_it(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert name in err and "must be finite" in err and "Traceback" not in err
    assert not out.exists()


def test_export_angle_overflow_names_point(tmp_path, capsys):
    out = tmp_path / "m.obj"
    code = main(["export", *RUN, "--u", "1:2:2", "--v=1:1e308:2", "--out", str(out)])
    assert code == 3
    assert "(u, v) = (1.0, 1e+308)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("g_text, v_spec, message", [
    # a profile error at the first u precedes an angle overflow at a later v
    ("log(u)", "1:1e308:2", "(u, v) = (0.0, 1.0): domain error in `log(u)`"),
    # an angle overflow at the first u precedes a profile error at a later u
    ("sqrt(0.5-u)", "1:1e308:2", "(u, v) = (0.0, 1e+308): rotation angle overflows"),
    ("sqrt(0.5-u)", "1:2:2", "(u, v) = (1.0, 1.0): domain error in `sqrt(0.5-u)`"),
])
def test_export_names_the_first_point_in_u_major_order(tmp_path, capsys, g_text, v_spec,
                                                      message):
    out = tmp_path / "m.obj"
    code = main(["export", "--f", "u", "--g", g_text, "--alpha", "1", "--beta", "2",
                 "--u", "0:1:2", f"--v={v_spec}", "--out", str(out)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


@given(x=st.floats())
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)
@example(x=-2.2250738585072009e-308)
@example(x=1e308)
@example(x=-1e308)
def test_vertex_format_writes_what_num_writes(x):
    assert "%.17g" % x == num(x)
    assert cli._VERTEX % (x, -x, 0.5) == "v " + " ".join(map(num, (x, -x, 0.5)))


@pytest.mark.parametrize("argv", [
    ["msc", "--alpha", "nan", "--beta", "2"],
    ["invariants", "--f", "u", "--alpha", "1", "--beta", "2", "--u", "1:1:1"],
    ["export", "--msc-c", "inf", "--eps", "1", "--alpha", "1", "--beta", "2", "--out", "m.obj"],
    ["plot", *RUN, "--u", "1:1:1", "--quantity", "ellipse", "--out", "x.svg"],
])
def test_usage_error_prints_subcommand_usage(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: rotsurf4 {argv[0]} ")
    assert f"rotsurf4 {argv[0]}: error: " in err


@pytest.mark.parametrize("argv", [
    ["invariants", *RUN, "--u", "1:2:2"],
    ["export", *RUN, "--u", "1:2:2", "--v", "0:1:2"],
    ["plot", *RUN, "--u", "1:2:3", "--quantity", "k"],
])
@pytest.mark.parametrize("where, reason", [("missing/out", "No such file or directory"),
                                           ("", "Is a directory")])
def test_unwritable_out_is_a_usage_error_naming_it(tmp_path, capsys, argv, where, reason):
    path = os.path.join(tmp_path, where)
    assert main([*argv, "--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {path!r}: {reason}\n"


DEEP_SUM = "+".join(["u"] * 990)  # differentiate recurses once per term
DEEP_PARENS = "(" * 250 + "u" + ")" * 250  # the parser recurses several frames per pair


@pytest.mark.parametrize("command", [["invariants"], ["verify", "--v", "0:1:2"]])
@pytest.mark.parametrize("g_text", [DEEP_SUM, DEEP_PARENS], ids=["sum", "parens"])
def test_too_deep_expression_is_a_usage_error(capsys, command, g_text):
    argv = [command[0], "--f", "u", "--g", g_text, "--alpha", "1", "--beta", "2",
            "--u", "1:2:3", *command[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expression nests too deeply\n"


def test_domain_error_in_a_node_too_deep_to_print_names_its_operator(capsys):
    # printing the 600-term sum under the failing `/` recurses past the limit
    g_text = "(" + "+".join(["u"] * 600) + ")/(u-1)"
    argv = ["invariants", "--f", "u", "--g", g_text, "--alpha", "1", "--beta", "2",
            "--u", "1:2:3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: at (u, v) = (1.0, 0.0): "
                            "domain error in a `/` node: division by zero\n")


def test_deep_sum_below_the_limit_runs_in_a_fresh_interpreter(tmp_path):
    # the derivative memo must add no frame per tree level
    argv = ["invariants", "--f", "u", "--g", "+".join(["u"] * 900), "--alpha", "1",
            "--beta", "2", "--u", "1:2:3", "--out", str(tmp_path / "out.csv")]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from rotsurf4.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert len(_read_csv(tmp_path / "out.csv")) == 3


# ---------------------------------------------------------------------------
# a reader that closes stdout early

def _rotsurf4(argv, **kwargs):
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.Popen([sys.executable, "-m", "rotsurf4", *argv], stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src}, **kwargs)


def test_reader_closing_after_one_line_exits_141():
    # 2000 rows do not fit in the pipe, so the writer meets the closed end
    proc = _rotsurf4(["invariants", *RUN, "--u", "1:2:2000"], stdout=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"u,v,E,")
    proc.stdout.close()
    assert proc.wait() == 141
    assert proc.stderr.read() == b""


def test_reader_closed_before_reading_exits_141():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _rotsurf4(["verify", *RUN, "--u", "1:2:3"], stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.wait() == 141
    assert proc.stderr.read() == b""


# ---------------------------------------------------------------------------
# one parser per process, one profile evaluation per invariants row

SHARED_RUNS = [
    ["invariants", "--f", "u", "--alpha", "1", "--beta", "2", "--u", "1:1:1"],   # usage error
    ["invariants", *RUN, "--u", "1:1:1", "--tol-class", "nan"],                 # bad option
    ["invariants", "--f", "u", "--g", "u^2 + spam(u)", "--alpha", "1", "--beta", "2",
     "--u", "1:1:1"],                                                           # parse error
    ["invariants", "--f", "u", "--g", "sqrt(u-2)", "--alpha", "1", "--beta", "2",
     "--u", "0.5:1:2"],                                                         # exit 3
    ["invariants", "--help"],
    ["invariants", *RUN, "--u", "0.5:2:4", "--v", "0:1:2"],
    ["invariants", *RUN, "--u", "0.5:2:4", "--v", "0:1:2"],
]


def test_shared_parser_runs_match_runs_alone(tmp_path, capfd, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width --help wraps to
    out = tmp_path / "out.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}

    def result(code, stdout, stderr):
        data = out.read_bytes() if out.exists() else None
        if out.exists():
            out.unlink()
        return code, stdout, stderr, data

    alone = []
    for argv in SHARED_RUNS:
        proc = subprocess.run([sys.executable, "-m", "rotsurf4", *argv, "--out", str(out)],
                              capture_output=True, env=env, check=False)
        alone.append(result(proc.returncode, proc.stdout.decode(), proc.stderr.decode()))
    shared = []
    for argv in SHARED_RUNS:
        code = main([*argv, "--out", str(out)])
        captured = capfd.readouterr()
        shared.append(result(code, captured.out, captured.err))
    assert [r[0] for r in alone] == [2, 2, 2, 3, 0, 0, 0]
    assert shared == alone


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in SHARED_RUNS:
            main([*argv, "--out", str(tmp_path / "out.csv")])
    finally:
        cli._parser.cache_clear()
    assert built == [1]


SURFACES = [
    RotationalSurface(Profile.from_text("u"), Profile.from_text("u^2"), 1.0, 2.0),
    RotationalSurface(Profile.from_text("u"), Profile.from_text("u^3"), 1.0, 2.0),
    msc_surface(MscParams(1.0, 1.0, 2.0, 1)),
    RotationalSurface(Profile.from_text("u"), Profile.from_text("sin(u)*exp(-u^2)+sqrt(u)"),
                      1.0, 2.0),
]


def _invariant_row(surface, u, v_first, class_tol):
    """One ``invariants`` record through the CLI's row path, on a one-point grid."""
    (parts,) = cli._closed_rows(surface, [u], v_first, cli._invariant_parts)
    return invariants(*parts, class_tol=class_tol)


def _two_call_row(surface, u):
    ff, sf = closed_forms_at(surface, u)
    return invariants(ff, sf, closed_invariants_at(surface, u)[2], class_tol=1e-8)


def _hex(record):
    return [x.hex() if isinstance(x, float) else x for x in field_values(record)]


@pytest.mark.parametrize("surface", SURFACES)
def test_invariant_row_equals_two_call_composition(surface):
    for u in (0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0, 4.0):
        assert _hex(_invariant_row(surface, u, 0.0, 1e-8)) == _hex(_two_call_row(surface, u))


@pytest.mark.parametrize("argv", [
    ["invariants", "--u", "0.5:2:5", "--v", "0:1:2"],
    ["octet", "--u", "0.5:2:5"],
    ["plot", "--u", "0.5:2:5", "--quantity", "k", "--out", "k.svg"],
])
def test_grid_commands_build_no_scalar_closures(tmp_path, monkeypatch, capsys, argv):
    import rotsurf4.expr

    def refuse(nodes):
        raise AssertionError("a grid command built scalar closures")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(rotsurf4.expr, "_closures", refuse)
    g = ["--f", "u", "--g", "sin(u)*exp(-u^2)+sqrt(u)", "--alpha", "1", "--beta", "2"]
    assert main([argv[0], *g, *argv[1:]]) == 0


def test_invariant_row_exact_values():
    # repr round-trips, so any change to the closed-form arithmetic shows here
    surface = SURFACES[3]
    record = _invariant_row(surface, 0.7, 0.0, 1e-8)
    assert [repr(x) for x in field_values(record)] == [
        "1.2638323711699837", "0.0", "6.554642907934198", "0.90473295077101", "0.0",
        "-1.9219251077668564", "-0.20990286026066005", "0.21132441934892673",
        "0.8813162406277878", "<PointType.HYPERBOLIC: 'hyperbolic'>"]
    assert [repr(x) for x in closed_invariants_at(surface, 0.7)] == [
        "-0.20990286026066005", "0.21132441934892682", "0.8813162406277878"]


@pytest.mark.parametrize("f, g", [("1e-120*u", "1e-120*u^2"), ("1e200*u", "u^2"),
                                  ("1e110*u", "u^2"), ("u^2", "u^3"), ("u", "sqrt(u-2)")])
def test_invariant_row_raises_like_two_call_composition(f, g):
    surface = RotationalSurface(Profile.from_text(f), Profile.from_text(g), 1.0, 2.0)
    u = 1.0 if f != "u^2" else 0.0
    with pytest.raises(Exception) as two_call:
        _two_call_row(surface, u)
    with pytest.raises(cli._PointError) as row:
        _invariant_row(surface, u, 0.0, 1e-8)
    assert type(row.value.cause) is type(two_call.value)
    assert str(row.value.cause) == str(two_call.value)


@pytest.mark.parametrize("nu", [1, 3, 8])
def test_invariants_evaluates_each_profile_term_once_per_u(tmp_path, monkeypatch, nu):
    # a scalar read evaluates one term at one u; a grid read three terms at each u
    calls = []
    for name in ("value", "deriv1", "deriv2"):
        original = getattr(Profile, name)

        def counted(self, u, original=original):
            calls.append(u)
            return original(self, u)

        monkeypatch.setattr(Profile, name, counted)
    grid = Profile.grid

    def counted_grid(self, us):
        calls.extend(list(us) * 3)
        return grid(self, us)

    monkeypatch.setattr(Profile, "grid", counted_grid)
    code = main(["invariants", *RUN, "--u", f"0.5:2:{nu}", "--v", "0:1:3",
                 "--out", str(tmp_path / "inv.csv")])
    assert code == 0
    assert len(calls) == 6 * nu
