"""The benchmark's four workloads, as lists of CLI commands.

Each workload is a list of commands making one pass.  The timed loop runs
passes back to back and stops only after a whole batch of ``batch``
commands: a pass for the fixed workloads, so every command keeps its share
of the samples, and one meridian for sweep-many.  A traced run covers one
whole pass.

Why these four (each stresses a different layer; see BENCHMARK.json):

- closed-grid: long u-grids through ``invariants``/``octet`` for four fixed
  surfaces, plus one ``msc`` and one ``plot --quantity k``.  Closed forms
  and ``Profile.deriv2`` on unsimplified trees dominate; rows go through the
  CLI's thread pool; no finite differencing.
- crosscheck: ``verify`` on the same four surfaces, 20x10 grids.  The
  generic pipeline (fd jets, normal frames, octet) dominates.
- mesh-export: OBJ export of 150x150 grids.  Only value trees are
  evaluated, so a derivative-only change should read "no change" here.
- sweep-many: seeded generated meridians, 8 u-points each, so per-command
  costs (argparse, pool start-up, parse and differentiate) dominate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ROTATION = ("--alpha", "1", "--beta", "2")
TWO_PI = "6.283185307179586"


@dataclass(frozen=True)
class Surface:
    """What the output checks need to rebuild a surface independently of
    the CLI's argument parsing."""

    f: str
    g: str
    alpha: float
    beta: float
    msc: tuple[float, int] | None = None  # (c, eps) of a power-law member


@dataclass(frozen=True)
class Command:
    key: str                 # unique per distinct output; digest lookup key
    kind: str                # CLI subcommand
    argv: tuple[str, ...]    # without --out
    points: int              # CSV rows, cross-checked (u, v) or OBJ vertices
    suffix: str | None       # file type of --out, None when stdout is the output
    surface: Surface | None


@dataclass
class Outcome:
    """One executed command: exit code, captured streams, output file."""

    command: Command
    exit_code: int
    stdout: str
    stderr: str
    output: bytes | None
    wall: float


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]  # one pass
    batch: int                     # commands between stop checks
    seeded: bool                   # outputs depend on the seed (no pinned digests)


FIXED = {
    "parabola": (("--f", "u", "--g", "u^2"), Surface("u", "u^2", 1.0, 2.0), (0.25, 3.0)),
    "cubic": (("--f", "u", "--g", "u^3"), Surface("u", "u^3", 1.0, 2.0), (0.25, 3.0)),
    "msc": (("--msc-c", "1", "--eps", "1"), Surface("u", "1*u^2", 1.0, 2.0, (1.0, 1)),
            (0.25, 4.0)),
    "transcendental": (("--f", "u", "--g", "sin(u)*exp(-u^2)+sqrt(u)"),
                       Surface("u", "sin(u)*exp(-u^2)+sqrt(u)", 1.0, 2.0), (0.25, 3.0)),
}


def _grid(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def closed_grid() -> Workload:
    cmds = []
    for name, (source, surface, (lo, hi)) in FIXED.items():
        for kind in ("invariants", "octet"):
            cmds.append(Command(f"closed-grid/{kind}/{name}", kind,
                                (kind, *source, *ROTATION, "--u", _grid(lo, hi, 1000)),
                                1000, "csv", surface))
    cmds.append(Command("closed-grid/msc", "msc",
                        ("msc", "--c", "1", "--eps", "1", *ROTATION), 20, "csv",
                        FIXED["msc"][1]))
    cmds.append(Command("closed-grid/plot-k", "plot",
                        ("plot", *FIXED["msc"][0], *ROTATION, "--u", _grid(0.25, 4.0, 1000),
                         "--quantity", "k"), 1000, "svg", None))
    return Workload("closed-grid", tuple(cmds), batch=len(cmds), seeded=False)


def crosscheck() -> Workload:
    cmds = tuple(
        Command(f"crosscheck/verify/{name}", "verify",
                ("verify", *source, *ROTATION, "--u", _grid(lo, hi, 20), "--v", f"0:{TWO_PI}:10"),
                200, None, surface)
        for name, (source, surface, (lo, hi)) in FIXED.items())
    return Workload("crosscheck", cmds, batch=len(cmds), seeded=False)


def mesh_export() -> Workload:
    cmds = []
    for name in ("msc", "transcendental"):
        source, surface, (lo, hi) = FIXED[name]
        cmds.append(Command(f"mesh-export/{name}", "export",
                            ("export", *source, *ROTATION, "--u", _grid(lo, hi, 150),
                             "--v", f"0:{TWO_PI}:150", "--close-v", "--projection", "drop4"),
                            150 * 150, "obj", surface))
    return Workload("mesh-export", tuple(cmds), batch=len(cmds), seeded=False)


# ---------------------------------------------------------------------------
# seeded meridians for sweep-many

SWEEP_MERIDIANS = 150
SWEEP_U = (0.5, 2.0, 8)
FD_CONSISTENCY = 1e-7


def _literal(rng: random.Random, lo: float = 0.25, hi: float = 3.0) -> str:
    """A positive literal in decimal or scientific notation."""
    x = round(rng.uniform(lo, hi), 3)
    if rng.random() < 0.3:
        mantissa, exponent = f"{x:e}".split("e")
        return f"{float(mantissa):g}e{int(exponent)}"
    return repr(x)


def _positive(rng: random.Random, depth: int) -> str:
    """An expression that is positive wherever u > 0."""
    if depth <= 0:
        return rng.choice(["u", _literal(rng), f"(u+{_literal(rng)})"])
    pick = rng.randrange(6)
    if pick == 0:
        return f"exp({_any(rng, depth - 1)})"
    if pick == 1:
        return f"sqrt({_positive(rng, depth - 1)})"
    if pick == 2:
        return f"({_positive(rng, depth - 1)}+{_positive(rng, depth - 1)})"
    if pick == 3:
        return f"{_positive(rng, depth - 1)}*{_positive(rng, depth - 1)}"
    if pick == 4:
        return f"({_positive(rng, depth - 1)})/({_positive(rng, depth - 1)})"
    return f"({_positive(rng, depth - 1)})^{_literal(rng, 0.5, 2.5)}"


def _any(rng: random.Random, depth: int) -> str:
    """An expression of either sign, bounded on a bounded u-interval."""
    if depth <= 0:
        return rng.choice(["u", _literal(rng), f"-{_literal(rng)}"])
    pick = rng.randrange(7)
    if pick == 0:
        return f"{rng.choice(['sin', 'cos'])}({_any(rng, depth - 1)})"
    if pick == 1:
        return f"log({_positive(rng, depth - 1)})"
    if pick == 2:
        return f"({_any(rng, depth - 1)}{rng.choice('+-')}{_any(rng, depth - 1)})"
    if pick == 3:
        return f"{_any(rng, depth - 1)}*{_any(rng, depth - 1)}"
    if pick == 4:
        return f"({_any(rng, depth - 1)})/({_positive(rng, depth - 1)})"
    if pick == 5:
        return f"-({_any(rng, depth - 1)})"
    return f"({_any(rng, depth - 1)})^{rng.randrange(2, 4)}"


def generate_meridian(rng: random.Random) -> str:
    """g(u) drawn from the full profile grammar (+ - * / ^, sin cos exp log
    sqrt, decimal and scientific literals) as a sum of three random terms
    of depths 1, 2 and 3, so that meridians differ but their mean cost over
    a pass varies little from seed to seed.
    log and sqrt only ever see positive arguments for u > 0."""
    terms = [_any(rng, depth) for depth in (1, 2, 3)]
    return "+".join(f"({t})" for t in terms)


def _regular(g_text: str, alpha: float, beta: float) -> bool:
    """The surface (u, g) is regular on the sweep grid, with finite and
    moderate g, g', g'' and invariants there, and the finite-difference
    oracle of the output checks resolves it: its invariants at steps h and
    2h agree to ``FD_CONSISTENCY``.  Where they do not, rounding in the
    oracle alone can exceed the checks' 1e-6 and the check would test the
    oracle, not the program.  The screen never looks at the closed forms'
    agreement with the oracle."""
    from rotsurf4.expr import EvalDomainError, Profile
    from rotsurf4.geometry import GeometryError
    from rotsurf4.rotational import RotationalSurface, closed_invariants_at

    from checks import fd_record

    lo, hi, n = SWEEP_U
    try:
        surface = RotationalSurface(Profile.from_text("u"), Profile.from_text(g_text),
                                    alpha, beta)
        step = (hi - lo) / (n - 1)  # the CLI's own grid formula
        for i in range(n):
            u = lo + i * step
            values = (surface.g.value(u), surface.g.deriv1(u), surface.g.deriv2(u),
                      *closed_invariants_at(surface, u))
            if not all(math.isfinite(y) and abs(y) < 1e3 for y in values):
                return False
            h = 1e-4 * max(1.0, u)
            fine, coarse = fd_record(surface, u, 0.0, h), fd_record(surface, u, 0.0, 2.0 * h)
            if any(abs(a - b) > FD_CONSISTENCY * max(1.0, abs(a), abs(b)) for a, b in
                   ((fine.k, coarse.k), (fine.kappa, coarse.kappa), (fine.K, coarse.K))):
                return False
    except (EvalDomainError, GeometryError, ZeroDivisionError, OverflowError):
        return False
    return True


def sweep_meridians(seed: int, count: int = SWEEP_MERIDIANS) -> list[tuple[str, float, float]]:
    """``count`` regular (g, alpha, beta) triples, a pure function of ``seed``.
    Draws that fail the regularity screen are replaced by the next draw."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g_text = generate_meridian(rng)
        alpha = rng.choice((0.5, 1.0, 1.5))
        beta = rng.choice((2.0, 2.5, 3.0))
        if _regular(g_text, alpha, beta):
            out.append((g_text, alpha, beta))
    return out


def sweep_many(seed: int) -> Workload:
    lo, hi, n = SWEEP_U
    cmds = []
    for i, (g_text, alpha, beta) in enumerate(sweep_meridians(seed)):
        surface = Surface("u", g_text, alpha, beta)
        rot = ("--alpha", repr(alpha), "--beta", repr(beta))
        for kind in ("invariants", "octet"):
            cmds.append(Command(f"sweep-many/{kind}/{i}", kind,
                                (kind, "--f", "u", "--g", g_text, *rot, "--u", _grid(lo, hi, n)),
                                n, "csv", surface))
    return Workload("sweep-many", tuple(cmds), batch=2, seeded=True)


def build(name: str, seed: int) -> Workload:
    if name == "sweep-many":
        return sweep_many(seed)
    return {"closed-grid": closed_grid, "crosscheck": crosscheck,
            "mesh-export": mesh_export}[name]()


NAMES = ("closed-grid", "crosscheck", "mesh-export", "sweep-many")
