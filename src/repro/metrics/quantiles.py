"""Exact, mergeable latency statistics.

One record per producer-consumer pair holds every response latency
plus the running sum and maximum. Quantiles are exact order statistics
taken at read time (``numpy.quantile``'s linear interpolation), so a
record pooled from several pairs with :meth:`StreamingLatency.merged`
reports the same percentiles as one record fed every sample.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np


class StreamingLatency:
    """Raw latency samples with their running sum and maximum."""

    __slots__ = ("samples", "total", "maximum")

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.total = 0.0
        self.maximum = 0.0

    def observe(self, latency_s: float) -> None:
        self.samples.append(latency_s)
        self.total += latency_s
        if latency_s > self.maximum:
            self.maximum = latency_s

    @property
    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Exact quantile ``q`` in [0, 1] of the samples (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return float(np.quantile(self.samples, q))

    @classmethod
    def merged(cls, parts: Iterable["StreamingLatency"]) -> "StreamingLatency":
        """Pool several records: samples concatenated in part order, sums
        added in part order, maxima maxed."""
        pooled = cls()
        for part in parts:
            pooled.samples.extend(part.samples)
            pooled.total += part.total
            if part.maximum > pooled.maximum:
                pooled.maximum = part.maximum
        return pooled
