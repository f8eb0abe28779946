"""IO-Link Wireless cell model.

Capacity validation, hop-plan feasibility, cycle/sub-cycle timing and the
per-transfer retransmission model. Channel hopping itself is not simulated:
a transfer's latency depends only on the sub-cycle grid, so a cell config
only has to admit a hop plan. A W-Master cell runs a fixed cycle (default
5 ms) containing three 1.664 ms sub-cycles placed contiguously from the
cycle start; a process-data change is transmitted with the next sub-cycle
and retried on subsequent sub-cycle boundaries (continuing across the cycle
boundary) up to max_attempts times. Whether an attempt fails never depends
on time, so draw_retries draws the failed attempts of a block of transfers,
one uniform each, into an array the caller passes; the run's Air stage
(iolw5gsim.scenario) maps a transfer's arrival and retries to a latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import uniforms

MAX_MASTERS = 3
MAX_TRACKS_PER_MASTER = 5
MAX_SLOTS_PER_TRACK = 8
MAX_DEVICES = 120

DEFAULT_CYCLE_US = 5000
DEFAULT_SUBCYCLE_US = 1664
DEFAULT_SUBCYCLES_PER_CYCLE = 3

# 2.4 GHz ISM grid: 40 channels of 2 MHz (BLE-like). Configurable; a
# min hop distance of 12 channels (~24 MHz) exceeds typical indoor
# coherence bandwidth.
DEFAULT_CHANNEL_COUNT = 40
DEFAULT_MIN_HOP_DISTANCE = 12
# the 2 400-2 483.5 MHz band fits no more channels, even 1 MHz wide ones
MAX_CHANNELS = 83
# a transfer still failing after 1 000 sub-cycles (1.66 s at the default
# timing) has long missed any cycle budget; with MAX_SUBCYCLES the ceiling
# keeps draw_retries' threshold table and the Air stage's slot table at
# 2 000 entries or fewer
MAX_ATTEMPTS = 1000
MAX_SUBCYCLES = 1000


@dataclass(frozen=True)
class IolwCellConfig:
    masters: int = 1
    tracks_per_master: int = 2
    slots_per_track: int = MAX_SLOTS_PER_TRACK
    cycle_us: int = DEFAULT_CYCLE_US
    subcycles_per_cycle: int = DEFAULT_SUBCYCLES_PER_CYCLE
    subcycle_us: int = DEFAULT_SUBCYCLE_US
    devices: int | None = None  # None: capacity implied by topology
    channel_count: int = DEFAULT_CHANNEL_COUNT
    blocklist: frozenset[int] = frozenset()
    min_hop_distance: int = DEFAULT_MIN_HOP_DISTANCE

    @property
    def capacity(self) -> int:
        return self.masters * self.tracks_per_master * self.slots_per_track


def validate_cell(config: IolwCellConfig) -> list[str]:
    """Return all violated capacity, timing and hop-plan constraints; empty
    list means ok. The simulation draws no hop plan, but the cell must admit
    one.

    Violations are data, not exceptions: the scenario loader aggregates
    them into diagnostics.
    """
    ranges = (
        ("masters", config.masters, MAX_MASTERS),
        ("tracks_per_master", config.tracks_per_master, MAX_TRACKS_PER_MASTER),
        ("slots_per_track", config.slots_per_track, MAX_SLOTS_PER_TRACK),
        ("channels", config.channel_count, MAX_CHANNELS),
    )
    bad = {name: f"{name} must be 1..{limit}, got {value}" for name, value, limit in ranges
           if not 1 <= value <= limit}
    v = list(bad.values())
    if config.devices is not None:
        if config.devices < 1:
            v.append("devices must be >= 1")
        elif bad.keys() <= {"channels"} and config.devices > config.capacity:
            v.append(f"devices {config.devices} exceed cell capacity {config.capacity}")
        if config.devices > MAX_DEVICES:
            v.append(f"devices must be <= {MAX_DEVICES}, got {config.devices}")
    if config.cycle_us <= 0:
        v.append("cycle must be > 0")
    if config.subcycle_us <= 0:
        v.append("subcycle must be > 0")
    if config.subcycles_per_cycle < 1:
        v.append("subcycles_per_cycle must be >= 1")
    elif config.subcycles_per_cycle > MAX_SUBCYCLES:
        v.append(
            f"subcycles_per_cycle must be <= {MAX_SUBCYCLES}, got {config.subcycles_per_cycle}"
        )
    if config.min_hop_distance < 0:
        v.append(f"min_hop_distance must be >= 0, got {config.min_hop_distance}")
    if (
        config.cycle_us > 0
        and config.subcycle_us > 0
        and config.subcycles_per_cycle * config.subcycle_us > config.cycle_us
    ):
        v.append(
            f"{config.subcycles_per_cycle} sub-cycles of {config.subcycle_us} us "
            f"do not fit in a {config.cycle_us} us cycle"
        )
    if "channels" not in bad:
        stray = sorted(c for c in config.blocklist if not 0 <= c < config.channel_count)
        if stray:
            v.append(f"blocklist channels {stray} lie outside 0..{config.channel_count - 1}")
        # a plan exists iff two allowed channels lie min_hop_distance apart:
        # the lowest and highest allowed channels then always have a next hop
        allowed = [c for c in range(config.channel_count) if c not in config.blocklist]
        if len(allowed) < 2 or allowed[-1] - allowed[0] < config.min_hop_distance:
            v.append(
                f"no valid hop pair among {config.channel_count} channels with min hop "
                f"distance {config.min_hop_distance}"
            )
    return v


@dataclass(frozen=True)
class IolwTransferModel:
    """Latency model for one W-Device <-> W-Master process-data transfer.

    completion_offset_us is a calibration parameter: time from the start of
    the successful sub-cycle until the value is available at the far end.
    Each attempt fails independently with per_subcycle_error_prob; after
    max_attempts failures the transfer is lost (reported distinctly, feeding
    residual-error accounting).
    """

    completion_offset_us: int
    per_subcycle_error_prob: float = 0.0
    max_attempts: int = DEFAULT_SUBCYCLES_PER_CYCLE

    def validate(self, cell: IolwCellConfig) -> list[str]:
        v = []
        if not 0 <= self.completion_offset_us < cell.subcycle_us:
            v.append(
                f"completion_offset {self.completion_offset_us} us must lie in "
                f"[0, {cell.subcycle_us})"
            )
        if not 0.0 <= self.per_subcycle_error_prob <= 1.0:
            v.append("error_prob must be within [0, 1]")
        if not 1 <= self.max_attempts <= MAX_ATTEMPTS:
            v.append(f"max_attempts must be 1..{MAX_ATTEMPTS}, got {self.max_attempts}")
        return v


def draw_retries(
    model: IolwTransferModel, rng: np.random.Generator, retries: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Draw into retries (intp) the retries used by len(retries) transfers,
    with u (float64) of the same length as scratch; return the indices of
    the transfers lost.

    Each transfer takes one uniform u, by inversion: its attempts fail at
    least j times iff u < p**j, so they fail #{j <= k : u < p**j} times for
    k = max_attempts, found by one search of the ascending p**k .. p**1 for
    the transfers with u < p. A transfer whose k attempts all fail is lost,
    with the k - 1 retries of its last attempt.
    """
    p, k = model.per_subcycle_error_prob, model.max_attempts
    retries.fill(0)
    uniforms(rng, u)
    failing = np.flatnonzero(u < p)
    thresholds = p ** np.arange(k, 0, -1, dtype=float)
    fails = k - np.searchsorted(thresholds, u[failing], side="right")
    retries[failing] = np.minimum(fails, k - 1)
    return failing[fails == k]


def residual_error_prob(per_subcycle_error_prob: float, max_attempts: int) -> float:
    """Probability that all retransmission attempts fail (p^k)."""
    if not 0.0 <= per_subcycle_error_prob <= 1.0:
        raise ValueError("per_subcycle_error_prob must be within [0, 1]")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    return per_subcycle_error_prob**max_attempts
