"""Scaling of wall times to a reference CPU speed.

The shared hosts this benchmark runs on switch between CPU-speed phases
that last seconds: the same ``verify`` command takes 195 ms in one phase
and 350 ms in the next, and a pure-Python probe slows down with it
(correlation 0.73-0.82 over 60 back-to-back commands on a 2-core x86-64
VM).  So the benchmark probes the speed between commands and reports
every end-to-end time scaled to the speed at which the probe takes
``REFERENCE_PROBE_S``:

    scaled = wall * REFERENCE_PROBE_S / probe

with ``probe`` the mean of the probes taken just before and just after the
command.  On those 60 commands this cut the spread (interquartile range /
median) of single-command times from 0.48 to 0.13.  Over 10 runs of 25 s
per workload (baseline.json), the unscaled points_per_s, cmd_ms_p50 and
cmd_ms_p90 spread 0.12-0.24, above their 0.2 bound in four of twelve
cases, and the scaled ones 0.02-0.08; ``setup_s`` spread 0.08-0.29
unscaled and 0.05-0.09 scaled.  run.py pins the process to one CPU, so
the probe runs on the CPU that the commands, pool threads included, run on.
The probe is benchmark code that no change to the package touches;
run.py also prints the unscaled wall-clock figures.
"""

from __future__ import annotations

import math
from time import perf_counter

REFERENCE_PROBE_S = 0.0008  # the probe's time in the fast mode of that VM
PROBE_EVERY_S = 0.2


def _tree(depth: int):
    if depth == 0:
        return 0.5
    return ("+" if depth % 2 else "*", _tree(depth - 1),
            (math.sin, _tree(depth - 2) if depth > 1 else 1.25))


_TREE = _tree(12)


def _walk(node, x: float) -> float:
    """Recursive tree evaluation: the kind of work the package's profile
    evaluation does (calls, tuple access, float arithmetic, math calls)."""
    if type(node) is float:
        return node * x
    if type(node[0]) is str:
        a = _walk(node[1], x)
        b = _walk(node[2], x)
        return a + b if node[0] == "+" else a * b * 0.5
    return node[0](_walk(node[1], x))


def probe_seconds() -> float:
    """Mean of five runs of a fixed ~0.8 ms kernel.

    Single runs fall into a fast (~0.8 ms) and a slow (1.1-1.3 ms) mode
    that alternate within a second; the mean measures the share of each,
    as a command spanning them sees it, where the best of three picked the
    fast one.  Recomputed on the same eight mesh-export runs, the mean of
    five cut the spread of the mean scaled command time from 0.069 to
    0.025 and of cmd_ms_p90 from 0.084 to 0.078 (closed-grid cmd_ms_p90:
    0.073 to 0.057)."""
    total = 0.0
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(8):
            _walk(_TREE, 0.7)
        total += perf_counter() - t0
    return total / 5


class Clock:
    """Wall times of a sequence of commands and the speed probes between
    them; every recorded time lies between two probes."""

    def __init__(self):
        self.walls: list[float] = []
        self.probes: list[float] = []
        self._before: list[int] = []  # index of the probe before each wall
        self._stamp = -math.inf

    def probe(self) -> None:
        self.probes.append(probe_seconds())
        self._stamp = perf_counter()

    def maybe_probe(self) -> None:
        """Probe when the last probe is older than ``PROBE_EVERY_S``."""
        if perf_counter() - self._stamp >= PROBE_EVERY_S:
            self.probe()

    def record(self, wall: float) -> None:
        self.walls.append(wall)
        self._before.append(len(self.probes) - 1)

    def scaled(self) -> list[float]:
        self.probe()
        return [wall * REFERENCE_PROBE_S / ((self.probes[k] + self.probes[k + 1]) / 2.0)
                for wall, k in zip(self.walls, self._before)]
