"""Statistics used by the paper's evaluation.

Covers exactly what §III-B/§III-C report: means with 95 % confidence
intervals over replicates, Pearson correlations between metrics across
implementations, and the hypothesis test "wakeups have a significant
effect on power" accepted at 99 % confidence (via the regression slope
t-test).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np


@functools.cache
def _scipy_stats():
    """``scipy.stats`` on first use, or None when scipy is not installed.

    Imported lazily because scipy is most of the package's import cost
    (66 of 103 MB RSS and 1.2 of 1.6 s for ``repro.harness.runner`` on a
    2-vCPU Linux box), while only the replicate CI and significance
    summaries need it.
    """
    try:  # scipy gives exact small-sample t quantiles; fall back gracefully.
        from scipy import stats
    except ImportError:
        return None
    return stats


@dataclass(frozen=True)
class Estimate:
    """A mean with its confidence half-width."""

    mean: float
    half_width: float
    n: int
    level: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def _t_quantile(level: float, df: int) -> float:
    stats = _scipy_stats()
    if stats is not None:
        return float(stats.t.ppf(0.5 + level / 2, df))
    # Normal approximation fallback (adequate for df >= 30).
    return NormalDist().inv_cdf(0.5 + level / 2)


def confidence_interval(values: Sequence[float], level: float = 0.95) -> Estimate:
    """Mean ± t-based CI half-width of ``values`` (the paper uses 95 %)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    if not 0 < level < 1:
        raise ValueError("confidence level must be in (0, 1)")
    mean = float(arr.mean())
    if arr.size == 1:
        return Estimate(mean, 0.0, 1, level)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return Estimate(mean, _t_quantile(level, arr.size - 1) * sem, int(arr.size), level)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (the paper quotes −79.6 %, +74 %,
    +12 % between wakeups/usage and power across implementations)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equally sized samples of length >= 2")
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 0.0
    # Round-off in the two std/covariance passes can push |r| a hair
    # past 1 (e.g. near-degenerate samples with subnormal spread).
    r = ((x - x.mean()) * (y - y.mean())).mean() / (sx * sy)
    return float(min(1.0, max(-1.0, r)))


@dataclass(frozen=True)
class SlopeTest:
    """Result of the wakeups→power significance test."""

    slope: float
    p_value: float
    r: float
    n: int

    def significant(self, confidence: float = 0.99) -> bool:
        """True if the effect is significant at ``confidence`` (paper: 99 %)."""
        return self.p_value < 1 - confidence


def wakeup_power_significance(
    wakeups: Sequence[float], power: Sequence[float]
) -> SlopeTest:
    """The paper's H0 test: regress power on wakeups/s, test slope ≠ 0.

    Returns the two-sided p-value of the regression slope; the paper
    "accepts the hypothesis [that wakeups have a significant effect on
    power] with 99 % confidence", i.e. p < 0.01.
    """
    x = np.asarray(wakeups, dtype=float)
    y = np.asarray(power, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 paired observations")
    r = pearson(x, y)
    n = x.size
    slope = r * y.std() / x.std() if x.std() > 0 else 0.0
    if abs(r) >= 1.0:
        return SlopeTest(slope, 0.0, r, n)
    t = r * math.sqrt((n - 2) / (1 - r * r))
    stats = _scipy_stats()
    if stats is not None:
        p = float(2 * stats.t.sf(abs(t), n - 2))
    else:
        p = float(2 * 0.5 * math.erfc(abs(t) / math.sqrt(2)))
    return SlopeTest(slope, p, r, n)


def percent_change(baseline: float, value: float) -> float:
    """Signed percent change from ``baseline`` to ``value`` (negative =
    reduction — how the paper phrases "lowers X by N %")."""
    if baseline == 0:
        raise ValueError("baseline is zero")
    return (value - baseline) / baseline * 100.0
