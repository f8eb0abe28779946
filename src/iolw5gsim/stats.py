"""Streaming latency statistics and the safety calculus.

LatencyStats accumulates arrays of integer-microsecond samples into histogram
bins of BIN_WIDTH_US (100 us, mirroring a 10 kS/s capture). The mean is kept
as an exact integer sum plus count so that merging partial results is exact,
associative and commutative. Percentiles are conservative: they round up to
a bin upper edge, because the downstream use is safety margins.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np


BIN_WIDTH_US = 100


class EmptyStatsError(ValueError):
    """Percentile/CDF queried on zero samples."""


@dataclass
class LatencyStats:
    count: int = 0
    total_us: int = 0
    min_us: int | None = None
    max_us: int | None = None
    bins: dict[int, int] = field(default_factory=dict)
    losses: int = 0

    def add(self, values_us: np.ndarray) -> None:
        """Record a batch of samples; every field stays a Python int."""
        values_us = np.asarray(values_us).ravel()
        if values_us.dtype.kind != "i":
            values_us = values_us.astype(np.int64)
        if not values_us.size:
            return
        lo, hi = int(values_us.min()), int(values_us.max())
        if lo < 0:
            raise ValueError("latency samples must be >= 0")
        if hi * values_us.size < 1 << 63:
            total = int(values_us.sum(dtype=np.int64))
        else:  # the int64 sum could wrap
            total = sum(values_us.tolist())
        first = lo // BIN_WIDTH_US
        q = values_us // BIN_WIDTH_US
        if hi // BIN_WIDTH_US - first < values_us.size:
            # the occupied bins span no more than the batch: count densely
            q -= first
            counts = np.bincount(q)
            idx = np.flatnonzero(counts)
            counts = counts[idx]
            idx += first
        else:  # sparse: memory stays O(batch)
            idx, counts = np.unique(q, return_counts=True)
        self._fold(values_us.size, total, lo, hi, zip(idx.tolist(), counts.tolist()))

    def add_loss(self, n: int = 1) -> None:
        self.losses += n

    @property
    def mean_us(self) -> float:
        if self.count == 0:
            raise EmptyStatsError("no samples")
        return self.total_us / self.count

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        merged = replace(self, bins=dict(self.bins), losses=self.losses + other.losses)
        if other.count:
            merged._fold(other.count, other.total_us, other.min_us, other.max_us,
                         other.bins.items())
        return merged

    def _fold(self, count: int, total_us: int, lo: int, hi: int, bins: Iterable) -> None:
        """The one combine rule of add and merge; bins yields (bin, frequency) pairs."""
        self.count += count
        self.total_us += total_us
        self.min_us = lo if self.min_us is None else min(self.min_us, lo)
        self.max_us = hi if self.max_us is None else max(self.max_us, hi)
        if not self.bins:
            self.bins.update(bins)
        else:
            for i, n in bins:
                self.bins[i] = self.bins.get(i, 0) + n

    def percentile(self, p: float) -> int:
        """Smallest bin upper edge whose cumulative frequency reaches p percent."""
        cumulative = self._cumulative()
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        threshold = p * self.count  # compare at 100x scale to stay exact for int p
        # the running sum ends at count, so some bin always reaches p <= 100
        return next(edge for edge, c in cumulative if c * 100 >= threshold)

    def cdf(self) -> list[tuple[int, float]]:
        """(bin upper edge, cumulative fraction) pairs; ends at 1.0."""
        return [(edge, c / self.count) for edge, c in self._cumulative()]

    def histogram(self) -> list[tuple[int, int]]:
        """(bin upper edge, frequency) pairs in ascending order."""
        return [
            ((idx + 1) * BIN_WIDTH_US, self.bins[idx])
            for idx in sorted(self.bins)
        ]

    def _cumulative(self) -> Iterator[tuple[int, int]]:
        """(bin upper edge, cumulative frequency) pairs in ascending order."""
        if self.count == 0:
            raise EmptyStatsError("no samples")
        edges, counts = zip(*self.histogram())
        return zip(edges, accumulate(counts))


@dataclass(frozen=True)
class SafetyParams:
    approach_speed_mps: float = 2.0
    segment_maxima: tuple[tuple[str, int], ...] = ()

    def validate(self) -> list[str]:
        v = []
        if not 0 < self.approach_speed_mps < math.inf:  # False for nan too
            v.append("approach_speed must be finite and > 0")
        if any(m < 0 for _, m in self.segment_maxima):
            v.append("segment maxima must be >= 0")
        return v


def worst_case_sfrt(params: SafetyParams) -> int:
    """Sum of per-segment maximum latencies: upper bound on any response."""
    if not params.segment_maxima:
        raise ValueError("need at least one segment maximum")
    return sum(m for _, m in params.segment_maxima)


@dataclass(frozen=True)
class SafetyDistance:
    exact_m: float  # speed * response time, unrounded
    presented_m: float  # rounded up to 0.1 m, never down


def safety_distance(sfrt_us: int, speed_mps: float) -> SafetyDistance:
    """Minimum separation from moving machinery at the given approach speed."""
    if not 0 < speed_mps < math.inf:
        raise ValueError("approach speed must be finite and > 0")
    if sfrt_us < 0:
        raise ValueError("response time must be >= 0")
    exact = speed_mps * sfrt_us / 1_000_000.0
    presented = math.ceil(exact * 10 - 1e-9) / 10 if exact > 0 else 0.0
    return SafetyDistance(exact_m=exact, presented_m=presented)
