"""Latency models for wired/cellular link segments plus 5G numerology arithmetic.

Every link segment (Ethernet, 5G, wired IO-Link stub) draws its delays from
a LatencyModel, which is also its stage in a run. All durations are integer
microseconds. Numerology helpers cover the subcarrier-spacing to OFDM-symbol
relations; absolute 3GPP slot tables are out of scope.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .kernel import Frozen, floor_draws

ALLOWED_SCS_KHZ = (15, 30, 60, 120, 240)
SUBCARRIERS_PER_SYMBOL = 12

# A truncnorm's support reaches this many stddevs past its mean (clipped to
# [low, high]); the normal mass cut off is below 1e-18, under the 2**-53
# resolution of a uniform draw. Wider supports than TRUNCNORM_MAX_POINTS
# integers fail validation rather than build a table of 16 bytes a point.
_TRUNCNORM_SPAN_SD = 9
TRUNCNORM_MAX_POINTS = 1 << 20


class NumerologyError(ValueError):
    """Subcarrier spacing outside the allowed 5G set."""


class NumerologyConfig(Frozen):
    scs_khz: int

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
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


class LatencyModel(Frozen):
    """A link segment's delay distribution, and the segment's stage in a run.

    sample(rng, out, u) draws len(out) delays within the support into the
    int64 out and returns it; u (float64, of out's length) is scratch. A
    model that draws takes one floor_draws draw per delay (Constant takes
    none), so n delays drawn in blocks are the n drawn at once, and a
    stream advanced by n outputs starts where they end. Every model is
    frozen: the loader gives segments with equal parameters one shared
    model, and run() callers on several threads share it. As a stage, its
    durations ignore the arrival times t; draws is the segment's stream.
    """

    def durations(self, t, draws, out, ints, u) -> np.ndarray:
        return self.sample(draws, out, u)


class Constant(LatencyModel):
    value_us: int

    def validate(self) -> list[str]:
        return ["constant value must be >= 0"] if self.value_us < 0 else []

    def upper_bound_us(self) -> int:
        return self.value_us

    def sample(self, rng: np.random.Generator, out: np.ndarray, u: np.ndarray) -> np.ndarray:
        out.fill(self.value_us)
        return out


class Uniform(LatencyModel):
    low_us: int
    high_us: int

    def validate(self) -> list[str]:
        v = []
        if self.low_us < 0:
            v.append("uniform low must be >= 0")
        if self.low_us > self.high_us:
            v.append("uniform low must be <= high")
        return v

    def upper_bound_us(self) -> int:
        return self.high_us

    def sample(self, rng: np.random.Generator, out: np.ndarray, u: np.ndarray) -> np.ndarray:
        # the loader keeps the high - low + 1 integers within 2**53
        floor_draws(rng, self.high_us - self.low_us + 1, out, u)
        out += self.low_us
        return out


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


class _AliasTable(NamedTuple):
    """Walker's alias table of a finite pmf (Walker, ACM TOMS 1977; Vose,
    IEEE TSE 1991), held as one threshold and one jump per slot.

    kernel.floor_draws picks slot i = floor(u*K) of the K slots, and the
    x = u*K it leaves against the slot's threshold picks the slot or its
    alias (_threshold_table): one uniform, one compare, one gather a draw.
    """

    thr: np.ndarray
    jump: np.ndarray

    @classmethod
    def from_pmf(cls, p: np.ndarray) -> _AliasTable:
        thr, jump = _threshold_table(*_alias_table(p))
        thr.flags.writeable = jump.flags.writeable = False
        return cls(thr, jump)

    def slots(self, rng: np.random.Generator, out: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Slot indices into the int64 out, each drawn with its pmf mass; u
        (float64) of out's length is scratch."""
        floor_draws(rng, len(self.thr), out, u)
        j = self.jump.take(out)
        j *= u >= self.thr.take(out)
        out += j
        return out


class TruncNormal(LatencyModel):
    """rint of a normal distribution conditioned on [low, high].

    Sampled from the alias table (_AliasTable) of the exact integer pmf
    (_truncnorm_pmf). The table is built once, when the model is made; a
    model that fails validation gets none. The model is frozen, so its
    table cannot go stale; _replace makes a new model with a new table.
    """

    mean_target_us: float
    stddev_us: float
    low_us: int
    high_us: int

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not self.validate():
            a, p = _truncnorm_pmf(self.mean_target_us, self.stddev_us, self.low_us, self.high_us)
            object.__setattr__(self, "_a", a)
            object.__setattr__(self, "_table", _AliasTable.from_pmf(p))

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

    def upper_bound_us(self) -> int:
        """The top of the table: min(high, ceil(clip(mean) + 9 sd)), or its
        one point rint(clip(mean)) when the pmf has no spread."""
        return self._a + len(self._table.thr) - 1

    def sample(self, rng: np.random.Generator, out: np.ndarray, u: np.ndarray) -> np.ndarray:
        self._table.slots(rng, out, u)
        out += self._a
        return out


class Empirical(LatencyModel):
    """Histogram distribution: (duration_us, weight) bins.

    Sampled, like TruncNormal, from the alias table (_AliasTable) of the
    normalised weights; a bin of weight 0 is never drawn. The table is
    built once, when the model is made; a model that fails validation
    gets none.
    """

    bins: tuple[tuple[int, float], ...]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not self.validate():
            durations, weights = zip(*self.bins)
            pmf = np.array(weights) / sum(weights)
            values = np.array(durations, dtype=np.int64)
            values.flags.writeable = False  # as the table's: an edit would bypass the bound
            object.__setattr__(self, "_values", values)
            object.__setattr__(self, "_table", _AliasTable.from_pmf(pmf))

    def validate(self) -> list[str]:
        v = []
        if not self.bins:
            v.append("empirical model needs at least one bin")
        if not all(math.isfinite(w) for _, w in self.bins):
            v.append("empirical weights must be finite")
        elif any(w < 0 for _, w in self.bins):
            v.append("empirical weights must be >= 0")
        elif self.bins:
            total = sum(w for _, w in self.bins)  # inf on overflow, where fsum raises
            if not total > 0:
                v.append("empirical weights must have a positive sum")
            elif total == math.inf:
                v.append("empirical weights must have a finite sum")
        if any(d < 0 for d, _ in self.bins):
            v.append("empirical durations must be >= 0")
        return v

    def upper_bound_us(self) -> int:
        return max(d for d, w in self.bins if w > 0)

    def sample(self, rng: np.random.Generator, out: np.ndarray, u: np.ndarray) -> np.ndarray:
        out[...] = self._values.take(self._table.slots(rng, out, u))
        return out
