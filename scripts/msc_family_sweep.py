#!/usr/bin/env python3
"""Sweep the minimal super-conformal family over speed pairs and branch
signs; tabulate the invariants at u = 1 and the worst identity residuals
over the default domain.

Usage: python scripts/msc_family_sweep.py [--c 1.0] [--points 20]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rotsurf4.forms import generic_at, generic_invariants, superconformal_residuals
from rotsurf4.geometry import analytic_jet2
from rotsurf4.msc import MscParams, msc_invariants, msc_profile_text, msc_residual, msc_surface


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--points", type=int, default=20)
    args = parser.parse_args()

    print(f"{'profile':<14}{'p':>6}{'k(1)':>13}{'kappa(1)':>13}"
          f"{'max|resid|':>13}{'max|id dev|':>13}")
    speeds = [(a, b) for a in (1.0, 2.0, 3.0) for b in (1.0, 2.0, 3.0) if a != b]
    for alpha, beta in speeds:
        for eps in (1, -1):
            params = MscParams(args.c, alpha, beta, eps)
            surface = msc_surface(params)
            us = [0.25 + 3.75 * i / (args.points - 1) for i in range(args.points)]
            residual = max(abs(msc_residual(surface, u, eps)) for u in us)
            identity = 0.0
            for u in us:
                jet = analytic_jet2(surface, u, 0.0)
                rec = generic_invariants(jet, *generic_at(jet))
                minimal, conformal, scale = superconformal_residuals(rec.k, rec.kappa, rec.K)
                identity = max(identity, minimal / scale, conformal / scale)
            k1, x1, _ = msc_invariants(params, 1.0)
            print(f"{msc_profile_text(params):<14}{params.p:>6.2f}{k1:>13.4e}"
                  f"{x1:>13.4e}{residual:>13.2e}{identity:>13.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
