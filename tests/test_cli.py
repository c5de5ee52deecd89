import csv

import pytest

from rotsurf4.cli import main
from rotsurf4.forms import SecondForm, classify

RUN = ["--f", "u", "--g", "u^2", "--alpha", "1", "--beta", "2"]


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

def test_verify_passes_on_msc_surface(capsys):
    code = main(["verify", "--msc-c", "1", "--eps", "1", "--alpha", "1", "--beta", "2",
                 "--u", "0.5:2:5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "member" in out


def test_verify_cubic_superconformal_not_applicable(capsys):
    code = main(["verify", "--f", "u", "--g", "u^3", "--alpha", "1", "--beta", "2",
                 "--u", "0.5:2:4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "superconformal         n/a" in out
    assert "overall: PASS" in out


def test_verify_flat_branch_marks_octet_not_applicable(capsys):
    # c = 0: totally geodesic everywhere, the frame invariants are undefined
    with pytest.warns(UserWarning):
        code = main(["verify", "--msc-c", "0", "--eps", "1", "--alpha", "1",
                     "--beta", "2", "--u", "0.5:2:3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "octet                  n/a" in out
    assert "overall: PASS" in out


def test_verify_zero_tolerance_fails(capsys):
    code = main(["verify", *RUN, "--u", "1:1.5:3",
                 "--tol-pipeline", "0", "--tol-octet", "0", "--tol-relations", "0"])
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out


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


def test_msc_overflow_names_point(tmp_path, capsys):
    out = tmp_path / "msc.csv"
    code = main(["msc", "--c", "1e60", "--alpha", "1", "--beta", "2", "--u", "1:2:2",
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "u=1.0" in err and "Traceback" not in err
    assert not out.exists()


def test_msc_equal_speeds_usage_error():
    assert main(["msc", "--c", "1", "--alpha", "1", "--beta", "1", "--eps", "1"]) == 2


def test_msc_degenerate_constant_warns_but_runs(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code = main(["msc", "--c", "0", "--alpha", "1", "--beta", "2", "--eps", "1",
                 "--u", "1:2:3", "--out", str(out)])
    assert code == 0
    assert "warning" in capsys.readouterr().err.lower()


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


def test_plot_ellipse_non_finite_names_point(tmp_path, capsys):
    out = tmp_path / "e.svg"
    code = main(["plot", "--f", "1e200*u", "--g", "u^2", "--alpha", "1", "--beta", "2",
                 "--u", "1:1:1", "--quantity", "ellipse", "--point", "1", "0",
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "(u, v) = (1.0, 0.0)" in err and "not finite" in err
    assert not out.exists()


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
