"""IO-Link Wireless cell model.

Capacity validation, hop-plan feasibility, cycle/sub-cycle timing and the
per-transfer retransmission model. Channel hopping itself is not simulated:
a transfer's latency depends only on the sub-cycle grid, so a cell config
only has to admit a hop plan. A W-Master cell runs a fixed cycle (default
5 ms) containing three 1.664 ms sub-cycles placed contiguously from the
cycle start; a process-data change is transmitted with the next sub-cycle
and retried on subsequent sub-cycle boundaries (continuing across the cycle
boundary) up to max_attempts times. Whether an attempt fails never depends
on time, so the model comes in two parts: draw_retries draws the failed
attempts of a block of transfers, one uniform each, and transfer_latencies
turns given retries into latencies for an array of transfer start times,
on a cycle grid whose phase the caller passes. Both write into arrays the
caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
# timing) has long missed any cycle budget; the ceiling bounds
# draw_retries' threshold table and transfer_latencies' slot table
MAX_ATTEMPTS = 1000


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
    v: list[str] = []
    if not 1 <= config.masters <= MAX_MASTERS:
        v.append(f"masters must be 1..{MAX_MASTERS}, got {config.masters}")
    if not 1 <= config.tracks_per_master <= MAX_TRACKS_PER_MASTER:
        v.append(
            f"tracks_per_master must be 1..{MAX_TRACKS_PER_MASTER}, "
            f"got {config.tracks_per_master}"
        )
    if not 1 <= config.slots_per_track <= MAX_SLOTS_PER_TRACK:
        v.append(
            f"slots_per_track must be 1..{MAX_SLOTS_PER_TRACK}, "
            f"got {config.slots_per_track}"
        )
    if config.devices is not None:
        if config.devices < 1:
            v.append("devices must be >= 1")
        elif not v and config.devices > config.capacity:
            v.append(
                f"devices {config.devices} exceed cell capacity {config.capacity}"
            )
        if config.devices > MAX_DEVICES:
            v.append(f"devices must be <= {MAX_DEVICES}, got {config.devices}")
    if config.cycle_us <= 0:
        v.append("cycle must be > 0")
    if config.subcycle_us <= 0:
        v.append("subcycle must be > 0")
    if config.subcycles_per_cycle < 1:
        v.append("subcycles_per_cycle must be >= 1")
    if config.min_hop_distance < 0:
        v.append(f"min_hop_distance must be >= 0, got {config.min_hop_distance}")
    stray = sorted(c for c in config.blocklist if not 0 <= c < config.channel_count)
    if stray:
        v.append(
            f"blocklist channels {stray} lie outside 0..{config.channel_count - 1}"
        )
    if (
        config.cycle_us > 0
        and config.subcycle_us > 0
        and config.subcycles_per_cycle * config.subcycle_us > config.cycle_us
    ):
        v.append(
            f"{config.subcycles_per_cycle} sub-cycles of {config.subcycle_us} us "
            f"do not fit in a {config.cycle_us} us cycle"
        )
    if config.channel_count > MAX_CHANNELS:
        v.append(f"channels must be <= {MAX_CHANNELS}, got {config.channel_count}")
    else:
        # a plan exists iff two allowed channels lie min_hop_distance apart:
        # the lowest and highest allowed channels then always have a next hop
        allowed = [c for c in range(config.channel_count) if c not in config.blocklist]
        if len(allowed) < 2 or allowed[-1] - allowed[0] < config.min_hop_distance:
            v.append(
                f"no valid hop pair among {config.channel_count} channels with min hop "
                f"distance {config.min_hop_distance}"
            )
    return v


@dataclass
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

    def upper_bound_us(self, cell: IolwCellConfig) -> int:
        """The largest latency transfer_latencies gives a delivered transfer,
        in Python ints: k - 1 retries, starting on a cycle start or 1 us past
        sub-cycle boundary s, for k = max_attempts, or k = 1 when
        error_prob = 0, as no attempt then fails."""
        k = self.max_attempts if self.per_subcycle_error_prob > 0 else 1
        per_cycle, sub = cell.subcycles_per_cycle, cell.subcycle_us
        slot = [s // per_cycle * cell.cycle_us + s % per_cycle * sub for s in range(per_cycle + k)]
        worst = max([slot[k - 1]] + [slot[s + k] - s * sub - 1 for s in range(per_cycle)])
        return self.completion_offset_us + worst


def draw_retries(
    model: IolwTransferModel,
    rng: np.random.Generator,
    retries: np.ndarray,
    u: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Draw into retries (intp) the retries used by len(retries) transfers,
    with u (float64) and mask (bool) of the same length as scratch; return
    the indices of the transfers lost.

    Each transfer takes one uniform u, by inversion: its attempts fail at
    least j times iff u < p**j, so they fail #{j <= k : u < p**j} times for
    k = max_attempts, found by one search of the ascending p**k .. p**1 for
    the transfers with u < p. A transfer whose k attempts all fail is lost,
    with the k - 1 retries of its last attempt.
    """
    p, k = model.per_subcycle_error_prob, model.max_attempts
    retries.fill(0)
    rng.random(out=u)
    failing = np.flatnonzero(np.less(u, p, out=mask))
    thresholds = p ** np.arange(k, 0, -1, dtype=float)
    fails = k - np.searchsorted(thresholds, u[failing], side="right")
    retries[failing] = np.minimum(fails, k - 1)
    return failing[fails == k]


def transfer_latencies(
    t_change: np.ndarray,
    retries: np.ndarray,
    model: IolwTransferModel,
    cell: IolwCellConfig,
    phase: int,
    out: np.ndarray,
    first: np.ndarray,
) -> np.ndarray:
    """Latencies of transfers starting at t_change, in a cell whose cycles
    start at phase + k*cycle, each ending on the attempt that follows its
    given retries, into the int64 out, which may be t_change itself; first
    (int64, same length) is scratch."""
    if len(t_change) and t_change.min() < 0:
        raise ValueError("time must be non-negative")
    # slot s is the s-th sub-cycle boundary from the start of t_change's
    # cycle (slot subcycles_per_cycle is slot 0 of the next cycle); the first
    # attempt rides the first slot at or after t_change, each retry the next;
    # the latency runs to the completion offset past the attempt's slot
    per_cycle = cell.subcycles_per_cycle
    s = np.arange(per_cycle + model.max_attempts)
    slot_start = s // per_cycle * cell.cycle_us + s % per_cycle * cell.subcycle_us
    # offset = (t_change - phase) % cycle, taken as x - x // cycle * cycle:
    # the same for a positive cycle at half the cost on int64
    np.subtract(t_change, phase, out=first)
    np.floor_divide(first, cell.cycle_us, out=out)
    out *= cell.cycle_us
    offset = np.subtract(first, out, out=out)
    np.negative(offset, out=first)
    first //= cell.subcycle_us
    np.negative(first, out=first)
    np.minimum(first, per_cycle, out=first)
    first += retries
    np.subtract(slot_start.take(first), offset, out=out)
    out += model.completion_offset_us
    return out


def residual_error_prob(per_subcycle_error_prob: float, max_attempts: int) -> float:
    """Probability that all retransmission attempts fail (p^k)."""
    if not 0.0 <= per_subcycle_error_prob <= 1.0:
        raise ValueError("per_subcycle_error_prob must be within [0, 1]")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    return per_subcycle_error_prob**max_attempts
