"""Latency models for wired/cellular link segments plus 5G numerology arithmetic.

Every link segment (Ethernet, 5G, wired IO-Link stub) samples its delays from
a LatencyModel, one batch per path step. All durations are integer
microseconds. Numerology helpers
cover the subcarrier-spacing to OFDM-symbol relations; absolute 3GPP slot
tables are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernel import Duration

ALLOWED_SCS_KHZ = (15, 30, 60, 120, 240)
SUBCARRIERS_PER_SYMBOL = 12

# A truncnorm's support reaches this many stddevs past its mean (clipped to
# [low, high]); the normal mass cut off is below 1e-18, under the 2**-53
# resolution of a uniform draw. Wider supports than TRUNCNORM_MAX_POINTS
# integers fail validation rather than build a table of 16 bytes a point.
_TRUNCNORM_SPAN_SD = 9
TRUNCNORM_MAX_POINTS = 1 << 20

# Empirical guide tables get about this many cells per bin, as a power of
# two between 2**10 and 2**16 cells (at most 256 KB of int32).
_GUIDE_CELLS_PER_BIN = 128


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

    def upper_bound_us(self) -> Duration:
        return self.high_us

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.low_us, self.high_us, size=n, endpoint=True, dtype=np.int64)


def _truncnorm_support(mean: float, sd: float, low: int, high: int) -> tuple[int, int]:
    """First and last integer of a valid truncnorm's table."""
    c = min(max(mean, low), high)
    span = _TRUNCNORM_SPAN_SD * sd
    return max(low, math.floor(c - span)), min(high, math.ceil(c + span))


def _truncnorm_pmf(mean: float, sd: float, low: int, high: int) -> tuple[int, np.ndarray]:
    """(a, p): p[i] is the probability that rint of a normal(mean, sd)
    conditioned on [low, high] equals a + i.

    That is the normal mass of [k - 1/2, k + 1/2] cut to [low, high], so
    the end points get half cells, normalised. Each mass is a difference
    of tails taken on the side of the mean that keeps precision. With
    sd = 0, or no mass the doubles can hold (a support far out in the
    tail), the pmf is the single point rint(clip(mean, low, high)).
    """
    a, b = _truncnorm_support(mean, sd, low, high)
    if sd > 0:
        edges = np.arange(a - 0.5, b + 1.0)
        edges[0], edges[-1] = max(edges[0], low), min(edges[-1], high)
        z = (edges - mean) / (sd * math.sqrt(2))
        tail = 0.5 * np.fromiter(map(math.erfc, np.abs(z).tolist()), float, len(z))
        below = np.where(z <= 0, tail, 1 - tail)  # mass below each edge
        above = np.where(z >= 0, tail, 1 - tail)  # mass above each edge
        mass = np.where(z[1:] <= 0, below[1:] - below[:-1], above[:-1] - above[1:])
        total = mass.sum()
        if total > 0:
            return a, mass / total
    return round(min(max(mean, low), high)), np.ones(1)


def _alias_table(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table (prob, alias) of the pmf p, built without a loop.

    Slot i of K keeps itself with probability prob[i] and is alias[i]
    otherwise. With q = K*p, the deficits 1 - q of the small slots (q < 1)
    lie end to end on one line, in index order, and the surpluses q - 1 of
    the large slots on another. A small slot aliases the large slot whose
    surplus interval holds the start of its deficit interval. Large slot j
    gives away its surplus, plus whatever the small slot straddling the
    end of j's interval takes beyond it; j aliases j + 1 for that part.
    The last large slot keeps all of its own slot.
    """
    k = len(p)
    q = p * k
    large = q >= 1
    large[np.argmax(q)] = True  # if rounding left every q just below 1
    small_idx, large_idx = np.flatnonzero(~large), np.flatnonzero(large)
    a_line = np.concatenate(([0.0], np.cumsum(1 - q[small_idx])))
    b_line = np.concatenate(([0.0], np.cumsum(q[large_idx] - 1)))
    prob = q.copy()
    alias = np.arange(k)
    owner = np.searchsorted(b_line, a_line[:-1], side="right") - 1
    alias[small_idx] = large_idx[np.minimum(owner, len(large_idx) - 1)]
    # "left": a small interval starting exactly at a surplus end belongs to
    # the next large slot, so it takes nothing from this one
    ends = b_line[1:-1]
    straddle = a_line[np.minimum(np.searchsorted(a_line, ends, side="left"), len(small_idx))]
    prob[large_idx[:-1]] = 1 - (straddle - ends)
    alias[large_idx[:-1]] = large_idx[1:]
    prob[large_idx[-1]] = 1
    return np.clip(prob, 0, 1), alias


def _threshold_table(prob: np.ndarray, alias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(thr, jump) of an alias table (prob, alias), for one compare a draw.

    thr[k] is the smallest double >= k + prob[k] and jump[k] = alias[k] - k,
    so a double x in slot k's [k, k+1) draws k + jump[k] * (x >= thr[k]).
    That is exactly the alias draw x - k < prob[k] ? k : alias[k]: for
    k >= 1, x - k and the rounded sum's thr - k are exact (Sterbenz), so
    x < thr[k] holds just when x - k < prob[k]; for k = 0 both are x and
    prob[0]. prob = 1 gives thr = k + 1 (the slot keeps itself), prob = 0
    gives thr = k (it always takes its alias).
    """
    k = np.arange(len(prob))
    thr = k + prob
    low = thr - k < prob  # the sum rounded down
    thr[low] = np.nextafter(thr[low], math.inf)
    return thr, alias - k


@lru_cache(maxsize=8)
def _truncnorm_table(
    mean: float, sd: float, low: int, high: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """(a, thr, jump) of a valid truncnorm; equal parameters share one."""
    a, p = _truncnorm_pmf(mean, sd, low, high)
    thr, jump = _threshold_table(*_alias_table(p))
    thr.flags.writeable = jump.flags.writeable = False
    return a, thr, jump


@dataclass(frozen=True)
class TruncNormal:
    """rint of a normal distribution conditioned on [low, high].

    Sampled from the exact integer pmf (_truncnorm_pmf) by Walker's alias
    method (Walker, ACM TOMS 1977; Vose, IEEE TSE 1991): a uniform u picks
    slot i = floor(u*K) of the K-point table, and x = u*K against the
    slot's threshold picks its own point or its alias (_threshold_table):
    one uniform, one compare, one gather a draw, with no branch. The table
    is built once, when the model is made; a model that fails validation
    gets none. The model is frozen, so its table cannot go stale;
    dataclasses.replace makes a new model with a new table.
    """

    mean_target_us: float
    stddev_us: float
    low_us: Duration
    high_us: Duration

    def __post_init__(self) -> None:
        if not self.validate():
            table = _truncnorm_table(
                self.mean_target_us, self.stddev_us, self.low_us, self.high_us
            )
            for name, value in zip(("_a", "_thr", "_jump"), table):
                object.__setattr__(self, name, value)

    def validate(self) -> list[str]:
        v = []
        if not math.isfinite(self.mean_target_us):
            v.append("truncnorm mean must be finite")
        if not 0 <= self.stddev_us < math.inf:  # False for nan too
            v.append("truncnorm stddev must be finite and >= 0")
        if self.low_us < 0:
            v.append("truncnorm low must be >= 0")
        if self.low_us > self.high_us:
            v.append("truncnorm low must be <= high")
        if not v:
            a, b = _truncnorm_support(
                self.mean_target_us, self.stddev_us, self.low_us, self.high_us
            )
            if b - a + 1 > TRUNCNORM_MAX_POINTS:
                v.append(
                    f"truncnorm support of {b - a + 1} integers exceeds "
                    f"{TRUNCNORM_MAX_POINTS}; narrow low..high or the stddev"
                )
        return v

    def upper_bound_us(self) -> Duration:
        return self.high_us

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # u <= 1 - 2**-53, so u*K rounds below K for every K < 2**53
        x = rng.random(n)
        x *= len(self._thr)
        i = x.astype(np.int64)
        j = self._jump.take(i)
        j *= x >= self._thr.take(i)
        j += i
        j += self._a
        return j


@dataclass(frozen=True)
class Empirical:
    """Histogram distribution: (duration_us, weight) bins.

    A draw maps a uniform u in [0, 1) to bin searchsorted(cum, u, "right"),
    capped at the last bin, where cum holds the normalised cumulative
    weights. The bin is found by indexed search (Chen & Asau, 1974): the
    guide table splits [0, 1) into G = 2**m equal cells, and cell j holds
    the one bin that every u in [j/G, (j+1)/G) maps to, or -1 if a cum
    value lies inside the cell. A draw reads guide[floor(u*G)] and falls
    back to the binary search only on -1, about K/G of the draws for K
    bins. This is exact, not an approximation: u*G is exact for a power of
    two G, the search is monotone in u, and a cell whose two edges give
    the same bin (searchsorted(cum, j/G, "right") ==
    searchsorted(cum, (j+1)/G, "left")) gives it for every u inside.
    """

    bins: tuple[tuple[Duration, float], ...]

    def __post_init__(self) -> None:
        values = np.array([b[0] for b in self.bins], dtype=np.int64)
        weights = np.array([b[1] for b in self.bins], dtype=np.float64)
        # a table validate() rejects (non-finite, overflowing or zero sum)
        # gets an all-zero cum, built without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            total = weights.sum()
        ok = 0 < total < math.inf  # False for nan too
        cum = np.cumsum(weights / total) if ok else np.zeros_like(weights)
        k = len(values)
        g = 1 << min(max((_GUIDE_CELLS_PER_BIN * k - 1).bit_length(), 10), 16)
        edges = np.arange(g + 1) / g
        lo = np.searchsorted(cum, edges[:-1], side="right")
        hi = np.searchsorted(cum, edges[1:], side="left")
        guide = np.where(lo == hi, np.minimum(lo, k - 1), -1).astype(np.int32)
        tables = {"_values": values, "_total": total, "_cum": cum, "_guide": guide}
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    def validate(self) -> list[str]:
        v = []
        if not self.bins:
            v.append("empirical model needs at least one bin")
        if not all(math.isfinite(w) for _, w in self.bins):
            v.append("empirical weights must be finite")
        elif any(w < 0 for _, w in self.bins):
            v.append("empirical weights must be >= 0")
        elif self.bins and not self._total > 0:
            v.append("empirical weights must have a positive sum")
        elif self._total == math.inf:
            v.append("empirical weights must have a finite sum")
        if any(d < 0 for d, _ in self.bins):
            v.append("empirical durations must be >= 0")
        return v

    def upper_bound_us(self) -> Duration:
        return max(d for d, w in self.bins if w > 0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        i = self._guide[(u * len(self._guide)).astype(np.intp)]
        miss = np.flatnonzero(i < 0)
        if miss.size:
            found = np.searchsorted(self._cum, u[miss], side="right")
            i[miss] = np.minimum(found, len(self._values) - 1)
        return self._values.take(i)


# Every model's sample(rng, n) returns n int64 delays within its support.
LatencyModel = Constant | Uniform | TruncNormal | Empirical
