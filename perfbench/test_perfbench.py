"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from quantiles import beta_cdf, hd_quantile  # noqa: E402
from rotsurf4.cli import main as cli_main  # noqa: E402
from rotsurf4.expr import Profile  # noqa: E402
from spans import Tracer, _package_namespaces, cpu_self_times, self_times  # noqa: E402


def _pins():
    return json.loads(run.BASELINE.read_text())


def test_generator_is_deterministic_for_a_seed():
    first = workloads.sweep_meridians(7, count=6)
    assert first == workloads.sweep_meridians(7, count=6)
    assert first != workloads.sweep_meridians(8, count=6)
    for g_text, _, _ in first:
        Profile.from_text(g_text)
    commands = workloads.sweep_many(7).commands
    assert commands == workloads.sweep_many(7).commands
    assert len(commands) == 2 * workloads.SWEEP_MERIDIANS


def _bindings():
    from rotsurf4.expr import Profile
    from rotsurf4.rotational import RotationalSurface

    out = {}
    for module in _package_namespaces():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    for cls in (Profile, RotationalSurface):
        for attr, value in vars(cls).items():
            out[(cls.__qualname__, attr)] = value
    return out


def test_tracing_restores_every_binding(tmp_path, monkeypatch):
    import rotsurf4
    import rotsurf4.cli
    import rotsurf4.geometry

    monkeypatch.setattr(run, "OUT", tmp_path)
    before = _bindings()
    original_fd = rotsurf4.geometry.fd_jet2
    tracer = Tracer()
    tracer.install()
    try:
        assert rotsurf4.cli.fd_jet2 is not original_fd
        assert rotsurf4.fd_jet2 is rotsurf4.cli.fd_jet2
        cmd = workloads.crosscheck().commands[0]
        small = dataclasses.replace(cmd, argv=cmd.argv[:-4] + ("--u", "0.5:1:2", "--v", "0:1:2"))
        outcome = run.run_command(cli_main, small, tracer, 0)
    finally:
        tracer.uninstall()
    assert outcome.exit_code == 0
    names = {span[1] for span in tracer.spans()}
    assert {"cli.main", "geometry.fd_jet2", "geometry.surface_map", "expr.value",
            "octet.octet_generic"} <= names
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


# (id, name, start, end, cpu, parent, thread, trace, ok): the root on
# thread 1, children a and b on pool threads 2 and 3, c nested in b
SPANS = [(1, "root", 0.0, 10.0, 4.0, 0, 1, 0, True),
         (2, "a", 1.0, 4.0, 1.5, 1, 2, 0, True),
         (3, "b", 2.0, 5.0, 2.0, 1, 3, 0, True),
         (4, "c", 2.5, 3.0, 0.25, 3, 3, 0, True)]


def test_self_time_merges_overlapping_children():
    own = self_times(SPANS)
    assert own[1] == 6.0  # 10 - |[1, 5]|
    assert own[3] == 2.5
    assert own[4] == 0.5


def test_cpu_self_time_subtracts_same_thread_children_only():
    own = cpu_self_times(SPANS)
    assert own[1] == 4.0  # a and b ran on other threads
    assert own[2] == 1.5
    assert own[3] == 1.75  # 2.0 - c
    assert own[4] == 0.25


def _one_digit_changed(data: bytes) -> bytes:
    text = data.decode()
    match = list(re.finditer(r"\d", text))[-5]
    i = match.start()
    return (text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]).encode()


def test_changed_digit_makes_fail_ratio_positive(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = workloads.closed_grid()
    cmd = next(c for c in workload.commands if c.key == "closed-grid/msc")
    outcome = run.run_command(cli_main, cmd)
    tally = run.Tally(Checker(_pins(), seed=1), workload.seeded)
    tally.add(outcome)
    assert tally.fail_ratio == 0.0
    tally.add(dataclasses.replace(outcome, output=_one_digit_changed(outcome.output)))
    assert tally.failed == 1 and tally.fail_ratio > 0.0


def test_seeded_outputs_are_checked_against_the_fd_pipeline(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    workload = workloads.sweep_many(3)
    checker = Checker(_pins(), seed=3)
    cmd = workload.commands[0]
    outcome = run.run_command(cli_main, cmd)
    assert checker.problems(outcome, seeded=True) == []
    lines = outcome.output.decode().splitlines()
    header, rows = lines[0], lines[1:]
    # scale every value column of every row, so the sampled rows differ
    scaled = [",".join(cell if i < 2 or i == 11 else repr(float(cell) * 1.001)
                       for i, cell in enumerate(row.split(","))) for row in rows]
    broken = dataclasses.replace(outcome, output="\n".join([header, *scaled]).encode())
    assert checker.problems(broken, seeded=True)


def test_harrell_davis_quantiles():
    assert abs(beta_cdf(2.0, 3.0, 0.4) - 0.5248) < 1e-12
    assert abs(beta_cdf(300.5, 1700.5, 0.16) - (1.0 - beta_cdf(1700.5, 300.5, 0.84))) < 1e-12
    values = [float(i) for i in range(1, 102)]
    assert abs(hd_quantile(values, 0.5) - 51.0) < 1e-9
    assert 90.0 < hd_quantile(values, 0.9) < 92.0
