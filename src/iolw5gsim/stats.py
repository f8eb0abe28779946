"""Streaming latency statistics and the safety calculus.

LatencyStats accumulates arrays of integer-microsecond samples into fixed-width
histogram bins (default 100 us, mirroring a 10 kS/s capture). The mean is
kept as an exact integer sum plus count so that merging partial results is
exact, associative and commutative. Percentiles are conservative: they
round up to a bin upper edge, because the downstream use is safety margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernel import Duration

DEFAULT_BIN_WIDTH_US = 100


class EmptyStatsError(ValueError):
    """Percentile/CDF queried on zero samples."""


@dataclass
class LatencyStats:
    bin_width_us: int = DEFAULT_BIN_WIDTH_US
    count: int = 0
    total_us: int = 0
    min_us: Duration | None = None
    max_us: Duration | None = None
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
        self.count += values_us.size
        self.total_us += int(values_us.sum(dtype=np.int64))
        self.min_us = lo if self.min_us is None else min(self.min_us, lo)
        self.max_us = hi if self.max_us is None else max(self.max_us, hi)
        w = self.bin_width_us
        first = lo // w
        q = values_us // w
        if hi // w - first < values_us.size:
            # the occupied bins span no more than the batch: count densely
            q -= first
            counts = np.bincount(q)
            idx = np.flatnonzero(counts)
            counts = counts[idx]
            idx += first
        else:  # sparse: memory stays O(batch)
            idx, counts = np.unique(q, return_counts=True)
        pairs = zip(idx.tolist(), counts.tolist())
        if not self.bins:
            self.bins.update(pairs)
        else:
            for i, n in pairs:
                self.bins[i] = self.bins.get(i, 0) + n

    def add_loss(self, n: int = 1) -> None:
        self.losses += n

    @property
    def mean_us(self) -> float:
        if self.count == 0:
            raise EmptyStatsError("no samples")
        return self.total_us / self.count

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        if self.bin_width_us != other.bin_width_us:
            raise ValueError("cannot merge stats with different bin widths")
        merged_bins = dict(self.bins)
        for idx, n in other.bins.items():
            merged_bins[idx] = merged_bins.get(idx, 0) + n
        mins = [m for m in (self.min_us, other.min_us) if m is not None]
        maxs = [m for m in (self.max_us, other.max_us) if m is not None]
        return LatencyStats(
            bin_width_us=self.bin_width_us,
            count=self.count + other.count,
            total_us=self.total_us + other.total_us,
            min_us=min(mins) if mins else None,
            max_us=max(maxs) if maxs else None,
            bins=merged_bins,
            losses=self.losses + other.losses,
        )

    def percentile(self, p: float) -> Duration:
        """Smallest bin upper edge whose cumulative frequency reaches p percent."""
        if self.count == 0:
            raise EmptyStatsError("no samples")
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        threshold = p * self.count  # compare at 100x scale to stay exact for int p
        cum = 0
        for idx in sorted(self.bins):
            cum += self.bins[idx]
            if cum * 100 >= threshold:
                return (idx + 1) * self.bin_width_us
        return (max(self.bins) + 1) * self.bin_width_us

    def cdf(self) -> list[tuple[Duration, float]]:
        """(bin upper edge, cumulative fraction) pairs; ends at 1.0."""
        if self.count == 0:
            raise EmptyStatsError("no samples")
        out = []
        cum = 0
        for idx in sorted(self.bins):
            cum += self.bins[idx]
            out.append(((idx + 1) * self.bin_width_us, cum / self.count))
        return out

    def histogram(self) -> list[tuple[Duration, int]]:
        """(bin upper edge, frequency) pairs in ascending order."""
        return [
            ((idx + 1) * self.bin_width_us, self.bins[idx])
            for idx in sorted(self.bins)
        ]


@dataclass(frozen=True)
class SafetyParams:
    approach_speed_mps: float = 2.0
    segment_maxima: tuple[tuple[str, Duration], ...] = ()

    def validate(self) -> list[str]:
        v = []
        if not 0 < self.approach_speed_mps < math.inf:  # False for nan too
            v.append("approach_speed must be finite and > 0")
        if any(m < 0 for _, m in self.segment_maxima):
            v.append("segment maxima must be >= 0")
        return v


def worst_case_sfrt(params: SafetyParams) -> Duration:
    """Sum of per-segment maximum latencies: upper bound on any response."""
    if not params.segment_maxima:
        raise ValueError("need at least one segment maximum")
    return sum(m for _, m in params.segment_maxima)


@dataclass(frozen=True)
class SafetyDistance:
    exact_m: float  # speed * response time, unrounded
    presented_m: float  # rounded up to 0.1 m, never down


def safety_distance(sfrt_us: Duration, speed_mps: float) -> SafetyDistance:
    """Minimum separation from moving machinery at the given approach speed."""
    if not 0 < speed_mps < math.inf:
        raise ValueError("approach speed must be finite and > 0")
    if sfrt_us < 0:
        raise ValueError("response time must be >= 0")
    exact = speed_mps * sfrt_us / 1_000_000.0
    presented = math.ceil(exact * 10 - 1e-9) / 10 if exact > 0 else 0.0
    return SafetyDistance(exact_m=exact, presented_m=presented)
