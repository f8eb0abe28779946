"""Streaming latency statistics and the safety calculus.

LatencyStats accumulates arrays of integer-microsecond samples into histogram
bins of BIN_WIDTH_US (100 us, mirroring a 10 kS/s capture). The mean is kept
as an exact integer sum plus count so that merging partial results is exact,
associative and commutative. Percentiles are conservative: they round up to
a bin upper edge, because the downstream use is safety margins.

One int64 array counts every bin from the lowest occupied one to the
highest, so a batch is one np.bincount, and folding it in is two slice adds
into a new array. The bins must span fewer than DENSE_BIN_CAP (6.5536 s, an
array of at most 512 KiB): a batch or merge past that raises before it
allocates, and the loader rejects a scenario whose derived worst case
reaches it. Counts are never written after they are made, so a merge may
share them with either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


BIN_WIDTH_US = 100
DENSE_BIN_CAP = 1 << 16  # bins a dense count array may span (512 KiB)


class EmptyStatsError(ValueError):
    """Percentile/CDF queried on zero samples."""


@dataclass(eq=False)
class LatencyStats:
    count: int = 0
    total_us: int = 0
    min_us: int | None = None
    max_us: int | None = None
    # the frequency of bin min_us // BIN_WIDTH_US + i at i
    counts: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    losses: int = 0

    def add(self, values_us: np.ndarray) -> None:
        """Record a batch of samples; every scalar field stays a Python int."""
        values_us = np.asarray(values_us).ravel()
        if not values_us.size:  # np.asarray([]) is float64
            return
        if values_us.dtype.kind not in "iu":
            raise ValueError(f"latency samples must be integers, got {values_us.dtype}")
        values_us = values_us.astype(np.int64, copy=False)  # past 2**63, uint64 turns < 0
        lo, hi = int(values_us.min()), int(values_us.max())
        if lo < 0:
            raise ValueError("latency samples must be >= 0")
        self._check_span(lo, hi)
        if hi * values_us.size < 1 << 63:
            total = int(values_us.sum(dtype=np.int64))
        else:  # the int64 sum could wrap
            total = sum(values_us.tolist())
        q = values_us // BIN_WIDTH_US
        q -= lo // BIN_WIDTH_US
        self._fold(values_us.size, total, lo, hi, np.bincount(q))

    def add_loss(self, n: int = 1) -> None:
        self.losses += n

    @property
    def mean_us(self) -> float:
        if self.count == 0:
            raise EmptyStatsError("no samples")
        return self.total_us / self.count

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        merged = replace(self, losses=self.losses + other.losses)
        if other.count:
            merged._check_span(other.min_us, other.max_us)
            merged._fold(other.count, other.total_us, other.min_us, other.max_us, other.counts)
        return merged

    def _check_span(self, lo: int, hi: int) -> None:
        """Raise unless self and samples from lo to hi span fewer than DENSE_BIN_CAP bins."""
        if self.min_us is not None:
            lo, hi = min(self.min_us, lo), max(self.max_us, hi)
        if hi // BIN_WIDTH_US - lo // BIN_WIDTH_US >= DENSE_BIN_CAP:
            raise ValueError(f"samples from {lo} to {hi} us span {DENSE_BIN_CAP} bins or more")

    def _fold(self, count: int, total_us: int, lo: int, hi: int, counts: np.ndarray) -> None:
        """The one combine rule of add and merge. counts holds the bins of
        samples from lo to hi; an empty self takes it as its own."""
        self.count += count
        self.total_us += total_us
        if self.min_us is None:
            self.min_us, self.max_us, self.counts = lo, hi, counts
            return
        sides = [(self.counts, self.min_us // BIN_WIDTH_US), (counts, lo // BIN_WIDTH_US)]
        self.min_us, self.max_us = min(self.min_us, lo), max(self.max_us, hi)
        first = self.min_us // BIN_WIDTH_US
        combined = np.zeros(self.max_us // BIN_WIDTH_US - first + 1, np.int64)
        for part, start in sides:
            combined[start - first:start - first + part.size] += part
        self.counts = combined

    def __eq__(self, other: object) -> bool:
        """Equal samples and losses."""
        if not isinstance(other, LatencyStats):
            return NotImplemented
        fields = ("count", "total_us", "min_us", "max_us", "losses")
        same = all(getattr(self, f) == getattr(other, f) for f in fields)
        return same and np.array_equal(self.counts, other.counts)

    def percentile(self, p: float) -> int:
        """Smallest bin upper edge whose cumulative frequency reaches p percent."""
        cumulative = self._cumulative()
        if not 0 <= p <= 100:
            raise ValueError("percentile must be within [0, 100]")
        # at 100x scale, exact in int64 for an int p and in float64 for a float p
        # while count * 100 < 2**53 (9e13 samples); the first bin reached is occupied
        return self._upper_edges(np.searchsorted(cumulative * 100, [p * self.count]))[0]

    def cdf(self) -> list[tuple[int, float]]:
        """(bin upper edge, cumulative fraction) pairs of the nonzero bins; ends at 1.0."""
        cumulative = self._cumulative()
        idx = np.flatnonzero(self.counts)
        return list(zip(self._upper_edges(idx), (cumulative[idx] / self.count).tolist()))

    def histogram(self) -> list[tuple[int, int]]:
        """(bin upper edge, frequency) pairs of the nonzero bins in ascending order."""
        if not self.count:
            return []
        idx = np.flatnonzero(self.counts)
        return list(zip(self._upper_edges(idx), self.counts[idx].tolist()))

    def _upper_edges(self, idx: np.ndarray) -> list[int]:
        """The upper edges of the bins counts[idx], in Python ints: the top one may pass int64."""
        first = self.min_us // BIN_WIDTH_US + 1
        return [(first + i) * BIN_WIDTH_US for i in idx.tolist()]

    def _cumulative(self) -> np.ndarray:
        """The running sum of counts; ends at count."""
        if self.count == 0:
            raise EmptyStatsError("no samples")
        return np.cumsum(self.counts)


@dataclass(frozen=True)
class SafetyDistance:
    exact_m: float  # speed * response time, unrounded
    presented_m: float  # up to a 0.1 m step; within 1e-10 m above one is float noise


def safety_distance(sfrt_us: int, speed_mps: float) -> SafetyDistance:
    """Minimum separation from moving machinery at the given approach speed,
    presented rounded up to 0.1 m: a distance at most 1e-10 m above a 0.1 m
    step is read as float noise and presented at that step."""
    if not 0 < speed_mps < math.inf:
        raise ValueError("approach speed must be finite and > 0")
    if sfrt_us < 0:
        raise ValueError("response time must be >= 0")
    exact = speed_mps * sfrt_us / 1_000_000.0
    presented = math.ceil(exact * 10 - 1e-9) / 10 if exact > 0 else 0.0
    return SafetyDistance(exact_m=exact, presented_m=presented)
