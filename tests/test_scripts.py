"""The runnable experiments under scripts/ still run against the package,
and what they print still says the two pipelines agree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                            capture_output=True, text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    return result.stdout


def _crosscheck_agrees(out):
    last = out.strip().splitlines()[-1]
    assert last.startswith("worst deviation:")
    assert float(last.split(":")[1]) <= 1e-6


def _sweep_identities_hold(out):
    header, *rows = out.strip().splitlines()
    assert header.endswith("max|id dev|")
    assert len(rows) == 12  # six speed pairs, two branch signs
    assert all(float(row.split()[-1]) <= 1e-8 for row in rows)


CHECKS = {"msc_family_sweep.py": _sweep_identities_hold,
          "pipeline_crosscheck.py": _crosscheck_agrees}


@pytest.mark.parametrize("script", sorted(CHECKS))
def test_script_runs(script):
    CHECKS[script](_run(script))
