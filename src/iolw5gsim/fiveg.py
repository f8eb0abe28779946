"""Latency models for wired/cellular link segments plus 5G numerology arithmetic.

Every link segment (Ethernet, 5G, wired IO-Link stub) samples its delays from
a LatencyModel, one batch per path step. All durations are integer
microseconds. Numerology helpers
cover the subcarrier-spacing to OFDM-symbol relations; absolute 3GPP slot
tables are out of scope.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .kernel import Duration

ALLOWED_SCS_KHZ = (15, 30, 60, 120, 240)
SUBCARRIERS_PER_SYMBOL = 12

# Rejection sampling for the truncated normal gives up after this many
# redraws and clamps instead, so pathological configs still terminate.
TRUNCNORM_MAX_REJECTS = 1000
_CLAMP_LOCK = threading.Lock()


class NumerologyError(ValueError):
    """Subcarrier spacing outside the allowed 5G set."""


@dataclass(frozen=True)
class NumerologyConfig:
    scs_khz: int

    def __post_init__(self) -> None:
        if self.scs_khz not in ALLOWED_SCS_KHZ:
            raise NumerologyError(
                f"SCS {self.scs_khz} kHz not in allowed set {ALLOWED_SCS_KHZ}"
            )


def symbol_bandwidth_khz(n: NumerologyConfig) -> int:
    """Bandwidth occupied by one OFDM symbol: 12 subcarriers times the SCS."""
    return n.scs_khz * SUBCARRIERS_PER_SYMBOL


def symbol_duration_scaling(n1: NumerologyConfig, n2: NumerologyConfig) -> float:
    """Factor by which n2's symbol duration exceeds n1's (duration ~ 1/SCS)."""
    return n1.scs_khz / n2.scs_khz


@dataclass
class Constant:
    value_us: Duration

    def validate(self) -> list[str]:
        return ["constant value must be >= 0"] if self.value_us < 0 else []

    def mean_us(self) -> float:
        return float(self.value_us)

    def upper_bound_us(self) -> Duration:
        return self.value_us

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value_us, dtype=np.int64)


@dataclass
class Uniform:
    low_us: Duration
    high_us: Duration

    def validate(self) -> list[str]:
        v = []
        if self.low_us < 0:
            v.append("uniform low must be >= 0")
        if self.low_us > self.high_us:
            v.append("uniform low must be <= high")
        return v

    def mean_us(self) -> float:
        return (self.low_us + self.high_us) / 2.0

    def upper_bound_us(self) -> Duration:
        return self.high_us

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.low_us, self.high_us, size=n, endpoint=True, dtype=np.int64)


@dataclass
class TruncNormal:
    """Normal distribution truncated to [low, high] by redraw.

    Each element is redrawn until it lands in [low, high], at most
    TRUNCNORM_MAX_REJECTS times; an element rejected that often gets one
    fresh draw clamped to the nearest bound and counts in clamp_events.
    """

    mean_target_us: float
    stddev_us: float
    low_us: Duration
    high_us: Duration
    clamp_events: int = field(default=0, compare=False)

    def validate(self) -> list[str]:
        v = []
        if self.stddev_us < 0:
            v.append("truncnorm stddev must be >= 0")
        if self.low_us < 0:
            v.append("truncnorm low must be >= 0")
        if self.low_us > self.high_us:
            v.append("truncnorm low must be <= high")
        return v

    def mean_us(self) -> float:
        """Analytic mean of the truncated distribution."""
        if self.stddev_us == 0:
            return min(max(self.mean_target_us, self.low_us), self.high_us)
        sqrt2 = math.sqrt(2.0)
        a = (self.low_us - self.mean_target_us) / self.stddev_us
        b = (self.high_us - self.mean_target_us) / self.stddev_us
        phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        cdf = lambda x: 0.5 * (1.0 + math.erf(x / sqrt2))
        z = cdf(b) - cdf(a)
        return self.mean_target_us + self.stddev_us * (phi(a) - phi(b)) / z

    def upper_bound_us(self) -> Duration:
        return self.high_us

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.normal(self.mean_target_us, self.stddev_us, size=n)
        pending = np.flatnonzero((x < self.low_us) | (x > self.high_us))
        for _ in range(TRUNCNORM_MAX_REJECTS - 1):
            if not pending.size:
                break
            x[pending] = rng.normal(self.mean_target_us, self.stddev_us, size=pending.size)
            pending = pending[(x[pending] < self.low_us) | (x[pending] > self.high_us)]
        if pending.size:
            fresh = rng.normal(self.mean_target_us, self.stddev_us, size=pending.size)
            x[pending] = np.clip(fresh, self.low_us, self.high_us)
            # the seeds of a parallel sweep sample the same model at once
            with _CLAMP_LOCK:
                self.clamp_events += int(pending.size)
        return np.rint(x).astype(np.int64)


@dataclass
class Empirical:
    """Histogram distribution: (duration_us, weight) bins."""

    bins: tuple[tuple[Duration, float], ...]

    def __post_init__(self) -> None:
        self._values = np.array([b[0] for b in self.bins], dtype=np.int64)
        weights = np.array([b[1] for b in self.bins], dtype=np.float64)
        total = weights.sum()
        self._cum = np.cumsum(weights / total) if total > 0 else weights

    def validate(self) -> list[str]:
        v = []
        if not self.bins:
            v.append("empirical model needs at least one bin")
        if any(w < 0 for _, w in self.bins):
            v.append("empirical weights must be >= 0")
        elif self.bins and sum(w for _, w in self.bins) <= 0:
            v.append("empirical weights must have a positive sum")
        if any(d < 0 for d, _ in self.bins):
            v.append("empirical durations must be >= 0")
        return v

    def mean_us(self) -> float:
        total = sum(w for _, w in self.bins)
        return sum(d * w for d, w in self.bins) / total

    def upper_bound_us(self) -> Duration:
        return max(d for d, w in self.bins if w > 0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        i = np.searchsorted(self._cum, rng.random(n), side="right")
        return self._values[np.minimum(i, len(self._values) - 1)]


# Every model's sample(rng, n) returns n int64 delays within its support.
LatencyModel = Constant | Uniform | TruncNormal | Empirical
