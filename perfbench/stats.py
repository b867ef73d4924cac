"""Quantiles of simulated latency samples."""

from __future__ import annotations

import math
from typing import Sequence


def tail_percentile(n: int) -> int:
    """99, or the highest whole percentile that leaves >= 10 of ``n``
    samples above it when ``n`` is below 1000."""
    return max(50, min(99, math.floor(100 - 1000 / n)))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz's method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            step = c * d
            h *= step
        if abs(step - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def _beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(samples: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A Beta-weighted mean of all order statistics.  Simulated latencies
    take few distinct values, so a single order statistic jumps between
    them from one input to the next; this estimate moves smoothly instead.
    Weights beyond 12 standard deviations of the quantile's rank are below
    double precision and are skipped.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    reach = 12 * math.sqrt(n * p * (1 - p)) + 2
    lo = max(0, int(p * n - reach))
    hi = min(n, int(p * n + reach) + 1)
    total, prev = 0.0, _beta_cdf(a, b, lo / n)
    for i in range(lo, hi):
        cur = _beta_cdf(a, b, (i + 1) / n)
        total += (cur - prev) * xs[i]
        prev = cur
    return total


def sim_percentiles(samples: Sequence[float]):
    """(p50, tail percentile, tail quantile) of ``samples``."""
    pct = tail_percentile(len(samples))
    return quantile(samples, 0.5), pct, quantile(samples, pct / 100)

