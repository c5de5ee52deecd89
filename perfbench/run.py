"""rotsurf4 benchmark: a single-process closed loop over the CLI.

One caller calls ``rotsurf4.cli.main(argv)`` in-process, one command at a
time, and checks every output outside the timed region (see checks.py).

    python3 perfbench/run.py --workload closed-grid --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``
and outputs go to ``.perfbench_out/``.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced, with
every time scaled to a reference CPU speed (speed.py explains why and how;
the unscaled wall-clock figures are printed on a line of their own):

    points_per_s  grid points completed / timed command wall time
    cmd_ms_p50    median wall time of one CLI command
    cmd_ms_p90    90th percentile of the same samples (both Harrell-Davis
                  estimates, see quantiles.py)
    setup_s       median wall time of 30 fresh interpreters, each running a
                  first 1-point command (start-up, import, parse,
                  differentiate), spread over the timed loop
    peak_rss_mb   peak RSS of this process, which runs only this workload

The run pins itself to one CPU first (``pin_to_one_cpu``), so the CLI's
pool threads and the speed probes share that CPU.

With ``--trace 1`` the run times untraced whole passes, then one traced
pass (spans.py), writes the spans to ``.perfbench_out/spans-<workload>.csv``
and reports the per-layer metrics.  Lines before the last one give the
seed, ``fail_ratio`` (failed / attempted commands), sample counts and the
per-layer metrics that do not apply to the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from quantiles import hd_quantile
from speed import Clock
from workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
SETUP_REPEATS = 30

sys.path.insert(0, str(SRC))


def run_command(cli_main, cmd, tracer=None, index=0):
    """Run one CLI command in-process; only the ``main`` call is timed."""
    out_path = OUT / f"{cmd.key.replace('/', '_')}.{cmd.suffix}" if cmd.suffix else None
    argv = list(cmd.argv) + (["--out", str(out_path)] if out_path else [])
    if out_path is not None and out_path.exists():
        out_path.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = perf_counter()
        try:
            if tracer is None:
                code = cli_main(argv)
            else:
                code = tracer.command(index, lambda: cli_main(argv))
        except Exception:  # a crash fails this command, not the benchmark
            code = -1
            traceback.print_exc()
        wall = perf_counter() - t0
    output = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    return Outcome(cmd, code, stdout.getvalue(), stderr.getvalue(), output, wall)


def timed(cli_main, cmd, clock, tracer=None, index=0):
    """``run_command`` with its wall time recorded between speed probes."""
    clock.maybe_probe()
    outcome = run_command(cli_main, cmd, tracer, index)
    clock.record(outcome.wall)
    return outcome


class Tally:
    """Attempted and failed commands; the first few problems go to stderr."""

    def __init__(self, checker, seeded: bool):
        self.checker, self.seeded = checker, seeded
        self.attempted = self.failed = 0

    def add(self, outcome) -> None:
        self.attempted += 1
        problems = self.checker.problems(outcome, self.seeded)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {outcome.command.key}: {'; '.join(problems)}", file=sys.stderr)

    @property
    def fail_ratio(self) -> float:
        return self.failed / max(1, self.attempted)


def warm_up(cli_main, workload) -> None:
    """One untimed command of each kind, so imports and lazy set-up are done."""
    seen = set()
    for cmd in workload.commands:
        if cmd.kind not in seen:
            seen.add(cmd.kind)
            run_command(cli_main, cmd)


class SetupTimer:
    """Fresh interpreters that import the package and run the workload's
    first surface through a 1-point ``invariants`` command.

    The starts are spread evenly over the timed loop, between commands and
    outside their timing, so that they sample the host's speed phases as
    the commands do, and each is timed between two speed probes of this
    process and scaled like a command.  ``setup_s`` is the median of the
    scaled starts."""

    def __init__(self, workload, tally):
        first = workload.commands[0].argv
        u = first.index("--u")
        u0 = first[u + 1].split(":")[0]
        argv = ["invariants", *first[1:u], "--u", f"{u0}:{u0}:1",
                "--out", str(OUT / "setup.csv")]
        self.code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                     f"from rotsurf4.cli import main; raise SystemExit(main({argv!r}))")
        self.tally = tally
        self.clock = Clock()

    def __len__(self) -> int:
        return len(self.clock.walls)

    def sample(self) -> None:
        self.clock.probe()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        self.clock.record(perf_counter() - t0)
        self.clock.probe()
        self.tally.attempted += 1
        if proc.returncode != 0:
            self.tally.failed += 1
            print(f"FAILED set-up command: exit {proc.returncode}: {proc.stderr.strip()}",
                  file=sys.stderr)


def batches(workload):
    """Endless batches of ``workload.batch`` commands, cycling the pass."""
    cmds = workload.commands
    i = 0
    while True:
        yield [cmds[(i + j) % len(cmds)] for j in range(workload.batch)]
        i += workload.batch


def measure(cli_main, workload, seconds: float, tally, clock, setup) -> tuple[list[float], list[int]]:
    """Timed closed loop until ``seconds`` of commands have elapsed,
    stopping only at a batch boundary, with ``SETUP_REPEATS`` set-up
    samples spread evenly over it.  Returns the scaled wall time and the
    points of every command."""
    points = []
    start, paused = perf_counter(), 0.0
    for batch in batches(workload):
        for cmd in batch:
            tally.add(timed(cli_main, cmd, clock))
            points.append(cmd.points)
            elapsed = perf_counter() - start - paused
            while len(setup) < SETUP_REPEATS * min(1.0, elapsed / seconds):
                t0 = perf_counter()
                setup.sample()
                paused += perf_counter() - t0
        if perf_counter() - start - paused >= seconds:
            while len(setup) < SETUP_REPEATS:
                setup.sample()
            return clock.scaled(), points


def _metrics(walls: list[float], points: list[int]) -> dict:
    return {
        "points_per_s": (sum(points) / sum(walls), "points/s"),
        "cmd_ms_p50": (hd_quantile(walls, 0.5) * 1e3, "ms"),
        "cmd_ms_p90": (hd_quantile(walls, 0.9) * 1e3, "ms"),
    }


def end_to_end(cli_main, workload, seconds, tally):
    """The timed loop after a warm-up, with the set-up samples inside it."""
    warm_up(cli_main, workload)
    setup_timer = SetupTimer(workload, tally)
    clock = Clock()
    walls, points = measure(cli_main, workload, seconds, tally, clock, setup_timer)
    metrics = _metrics(walls, points)
    raw = _metrics(clock.walls, points)
    p90 = metrics["cmd_ms_p90"][0] / 1e3
    print(f"# commands timed: {len(walls)}, beyond p90: {sum(w > p90 for w in walls)}, "
          f"speed probes: {len(clock.probes)}")
    print("# unscaled wall clock: " + ", ".join(
        f"{name} = {value:.6g} {unit}" for name, (value, unit) in raw.items())
        + f", setup_s = {statistics.median(setup_timer.clock.walls):.6g} s")
    metrics["setup_s"] = (statistics.median(setup_timer.clock.scaled()), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def traced_layers(cli_main, workload, seconds, tally):
    """Untraced whole passes for half the time, then one traced pass.
    Per-layer times are scaled to the reference speed like the end-to-end
    ones, with the traced pass's mean factor."""
    from layers import layer_metrics
    from spans import Tracer, write_spans

    warm_up(cli_main, workload)
    clock = Clock()
    start = perf_counter()
    passes = 0
    while not passes or perf_counter() - start < seconds / 2:
        for cmd in workload.commands:
            tally.add(timed(cli_main, cmd, clock))
        passes += 1
    untraced = sum(clock.scaled()) / passes

    tracer, clock = Tracer(), Clock()
    tracer.install()
    try:
        outcomes = [timed(cli_main, cmd, clock, tracer, i)
                    for i, cmd in enumerate(workload.commands)]
    finally:
        tracer.uninstall()
    for outcome in outcomes:
        tally.add(outcome)
    traced = sum(clock.scaled())
    spans = tracer.spans()
    write_spans(OUT / f"spans-{workload.name}.csv", spans)

    metrics, missing = layer_metrics(spans, tracer.d2_trees, workload.commands)
    factor = traced / sum(clock.walls)
    for name, (value, unit) in metrics.items():
        if unit in ("us", "s"):
            metrics[name] = (value * factor, unit)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    print(f"# untraced passes: {passes}, traced spans: {len(spans)}")
    for name in missing:
        print(f"# {name}: n/a on {workload.name} (no calls; reported as 0)")
    return metrics


def pin_to_one_cpu() -> int | None:
    """Pin this process to the highest-numbered CPU it may use; threads
    and interpreters it starts later inherit the pin.

    The CLI's pool threads are bound by the interpreter lock, so they use
    one CPU at a time anyway, but unpinned they move between the vCPUs of
    a shared host whose speeds differ, and the speed probe, taken on
    whichever vCPU the main thread is on, does not track them.  On five
    closed-grid runs of 25 s on a 2-vCPU VM, pinning cut the spread
    (interquartile range / median) of the scaled cmd_ms_p90 from 0.154 to
    0.021 and of points_per_s from 0.115 to 0.033; wall time over CPU
    time of the commands fell from 1.00-1.13 to 1.00."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_to_one_cpu()
    if not (SRC / "rotsurf4" / "__init__.py").is_file():
        print(f"error: no rotsurf4 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    from checks import Checker
    from rotsurf4.cli import main as cli_main

    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    workload = workloads.build(args.workload, args.seed)
    tally = Tally(Checker(json.loads(BASELINE.read_text()), args.seed), workload.seeded)
    if args.trace:
        metrics = traced_layers(cli_main, workload, args.seconds, tally)
    else:
        metrics = end_to_end(cli_main, workload, args.seconds, tally)
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed} fail_ratio={tally.fail_ratio:g} "
          f"cpu={cpu}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
