#!/usr/bin/env python3
"""Compare the closed forms with the generic finite-difference pipeline on
a chosen surface and print per-point deviations.

Usage:
    python scripts/pipeline_crosscheck.py --f "u" --g "u^2" --alpha 1 --beta 2 \
        --u-min 0.5 --u-max 2 --points 10
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rotsurf4.expr import Profile
from rotsurf4.forms import generic_at, generic_invariants
from rotsurf4.geometry import fd_jet2
from rotsurf4.rotational import (RotationalSurface, closed_forms_at,
                                 closed_invariants_at)


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--f", default="u")
    parser.add_argument("--g", default="u^2")
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=2.0)
    parser.add_argument("--u-min", type=float, default=0.5)
    parser.add_argument("--u-max", type=float, default=2.0)
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--v", type=float, default=0.0)
    args = parser.parse_args()

    surface = RotationalSurface(Profile.from_text(args.f), Profile.from_text(args.g),
                                args.alpha, args.beta)
    amap = surface.as_map()
    print(f"{'u':>8}{'k closed':>14}{'k generic':>14}{'dev(forms)':>12}{'dev(inv)':>12}")
    worst = 0.0
    for i in range(args.points):
        u = args.u_min + (args.u_max - args.u_min) * i / max(1, args.points - 1)
        ffc, _, sfc = closed_forms_at(surface, u)
        kc, xc, gc = closed_invariants_at(surface, u)
        jet = fd_jet2(amap, u, args.v)
        rec = generic_invariants(jet, *generic_at(jet))
        dev_forms = max(rel(rec.E, ffc.E), rel(rec.F, ffc.F), rel(rec.G, ffc.G),
                        rel(rec.L, sfc.L), rel(rec.M, sfc.M), rel(rec.N, sfc.N))
        dev_inv = max(rel(rec.k, kc), rel(rec.kappa, xc), rel(rec.K, gc))
        worst = max(worst, dev_forms, dev_inv)
        print(f"{u:>8.4f}{kc:>14.6e}{rec.k:>14.6e}{dev_forms:>12.2e}{dev_inv:>12.2e}")
    print(f"worst deviation: {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
