"""Any in-process CLI run answers with finite numbers or exits 2/3.

``invariants``, ``octet`` and ``export`` are run through ``cli.main`` on
small grammar meridians with speeds, grid bounds and tolerances drawn from
the edges of the double range (NaN, +-inf, 0, negative values, +-1e308).
Each run must exit 0 with every number it wrote finite, or exit 2 or 3,
and no exception may escape ``main``.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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


def _mostly(ordinary):
    """``ordinary`` three draws in four, an edge value otherwise, so that
    many runs get past the argument checks and evaluate points."""
    return st.integers(min_value=0, max_value=3).flatmap(
        lambda i: edge_floats if i == 0 else ordinary)


speeds = _mostly(st.floats(min_value=0.1, max_value=5.0))
tolerances = _mostly(st.floats(min_value=0.0, max_value=1e-3))
counts = st.integers(min_value=1, max_value=4)


@st.composite
def grid_specs(draw):
    lo = draw(_mostly(st.floats(min_value=0.1, max_value=3.0)))
    hi = draw(_mostly(st.floats(min_value=0.1, max_value=3.0).map(lambda span: lo + span)))
    return f"{lo!r}:{hi!r}:{draw(counts)}"


def _finite_csv(text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    return all(math.isfinite(float(cell)) for row in rows[1:] for cell in row
               if cell not in ("flat", "elliptic", "parabolic", "hyperbolic"))


def _finite_obj(text: str) -> bool:
    return all(math.isfinite(float(x)) for line in text.splitlines()
               if line.startswith("v ") for x in line.split()[1:])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(("invariants", "octet", "export")),
       f=meridians, g=meridians, alpha=speeds, beta=speeds,
       u=grid_specs(), v=grid_specs(), tol=tolerances)
def test_cli_answers_finitely_or_exits_2_or_3(command, f, g, alpha, beta, u, v, tol):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, f"--f={f}", f"--g={g}", f"--alpha={alpha!r}", f"--beta={beta!r}",
                f"--u={u}", f"--v={v}", "--out", str(out)]
        if command == "invariants":
            argv.append(f"--tol-class={tol!r}")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        if code == 0:
            text = out.read_text()
            assert (_finite_obj(text) if command == "export" else _finite_csv(text)), text
