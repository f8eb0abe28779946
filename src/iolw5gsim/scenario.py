"""Scenario composition and execution.

A Scenario chains link segments into a forward path (sensor -> PLC) and a
return path (PLC -> actuator). A boolean signal source toggles periodically.
Toggles never interact (no queue, no shared medium), so a run is one
column-wise pass: the int64 array of toggle times advances through the
chain one component at a time, each component drawing or computing its
durations for all toggles at once, and the per-segment and end-to-end
latencies are recorded in batches at the end. The poll wait is inserted
immediately before the first network segment of the forward path (the point
where the process-image change sits at the W-Master waiting to be queried).
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from . import plc as plcmod
from .fiveg import LatencyModel
from .iolw import IolwCellConfig, IolwTransferModel, transfer_latencies
from .kernel import Duration, rng_stream
from .plc import PlcConfig
from .stats import LatencyStats, SafetyParams

SEGMENT_KINDS = ("iol-wire", "iolw-air", "ethernet", "fiveg", "plc")
NETWORK_KINDS = ("ethernet", "fiveg")
POLL_WAIT = "poll_wait"

_PHASE_STREAM = 0
_SEGMENT_STREAM_BASE = 1

# parts is int32, which halves the duration matrix, the peak memory of a run
_MAX_DURATION_US = np.iinfo(np.int32).max


@dataclass
class SegmentSpec:
    id: str
    kind: str
    model: LatencyModel | None = None  # iol-wire / ethernet / fiveg
    transfer: IolwTransferModel | None = None  # iolw-air
    role: str = "both"  # forward | return | both


@dataclass
class SignalSource:
    toggle_period_us: int = 200_000
    sequences: int = 540
    sequence_length_us: int = 5_000_000
    # Per-toggle uniform time dither standing in for free-running clock
    # drift: the toggle period is an exact multiple of the query and task
    # cycles, so without dither the grids phase-lock and structural waits
    # stop averaging out. Default one query cycle.
    dither_us: int = 10_000

    def validate(self) -> list[str]:
        v = []
        if self.toggle_period_us <= 0:
            v.append("toggle_period must be > 0")
        if self.sequences < 1:
            v.append("sequences must be >= 1")
        if self.sequence_length_us < self.toggle_period_us:
            v.append("sequence_length must be >= toggle_period")
        if not 0 <= self.dither_us < self.toggle_period_us:
            v.append("dither must lie in [0, toggle_period)")
        return v

    def toggle_times(self) -> np.ndarray:
        per_seq = self.sequence_length_us // self.toggle_period_us
        starts = np.arange(self.sequences, dtype=np.int64) * self.sequence_length_us
        offsets = np.arange(per_seq, dtype=np.int64) * self.toggle_period_us
        return (starts[:, None] + offsets).ravel()


@dataclass
class Scenario:
    cell: IolwCellConfig
    segments: dict[str, SegmentSpec]
    forward: list[str]
    ret: list[str]
    source: SignalSource
    plc: PlcConfig
    safety: SafetyParams
    bin_width_us: int = 100
    randomize_phases: bool = True  # testbed clocks are unsynchronized

    def components(self) -> list[str]:
        """Ordered component names a toggle traverses (stats keys)."""
        names: list[str] = []
        polled = False
        for sid in self.forward:
            if not polled and self.segments[sid].kind in NETWORK_KINDS:
                names.append(POLL_WAIT)
                polled = True
            names.append(sid)
        names.extend(self.ret)
        return names


@dataclass
class RunResult:
    seeds: tuple[int, ...]
    toggles: int
    losses: int
    segment_stats: dict[str, LatencyStats]
    end_to_end: LatencyStats
    components: tuple[str, ...]
    # the per-seed results a sweep merged, in seed order; not compared, so
    # a sweep equals the run of its merged seeds
    per_seed: tuple["RunResult", ...] = field(default=(), compare=False, repr=False)

    def merge(self, other: "RunResult") -> "RunResult":
        if self.components != other.components:
            raise ValueError("cannot merge results from different scenarios")
        merged = {
            name: self.segment_stats[name].merge(other.segment_stats[name])
            for name in self.segment_stats
        }
        return RunResult(
            seeds=tuple(sorted(set(self.seeds) | set(other.seeds))),
            toggles=self.toggles + other.toggles,
            losses=self.losses + other.losses,
            segment_stats=merged,
            end_to_end=self.end_to_end.merge(other.end_to_end),
            components=self.components,
        )

    def observed_worst_case_us(self) -> Duration:
        """Sum of per-component maxima over one full traversal."""
        total = 0
        for name in self.components:
            s = self.segment_stats[name]
            if s.max_us is not None:
                total += s.max_us
        return total


def _segment_rngs(scenario: Scenario, seed: int) -> dict[str, np.random.Generator]:
    ids = sorted(scenario.segments)
    return {
        sid: rng_stream(seed, _SEGMENT_STREAM_BASE + i) for i, sid in enumerate(ids)
    }


def _trace(
    scenario: Scenario,
    t0: np.ndarray,
    plc_cfg: PlcConfig,
    iolw_phase: int,
    rngs: dict[str, np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Push every toggle through every component, one column-wise step each.

    Returns (parts, lost_at): parts[i] holds component i's durations, and
    the columns of parts sum exactly to the end-to-end latencies; lost_at
    is the index of the component where a toggle was lost, or -1. A lost
    toggle keeps moving so the arrays stay aligned, but only its loss counts.
    """
    cell = scenario.cell
    components = scenario.components()
    parts = np.empty((len(components), len(t0)), dtype=np.int32)
    lost_at = np.full(len(t0), -1, dtype=np.int64)
    t = t0
    for i, name in enumerate(components):
        seg = scenario.segments.get(name)  # None for the poll wait
        if name == POLL_WAIT:
            d = plcmod.next_poll(t, plc_cfg) - t
        elif seg.kind == "plc":
            d = plcmod.align_to_task_cycle(t, plc_cfg, rngs[name]) - t
        elif seg.kind == "iolw-air":
            # shift into the cell's cycle grid; +cycle keeps the argument
            # non-negative for phases larger than t
            d, lost = transfer_latencies(
                t - iolw_phase + cell.cycle_us, seg.transfer, cell, rngs[name]
            )
            lost_at[lost & (lost_at < 0)] = i
        else:
            d = seg.model.sample(rngs[name], len(t))
        # durations are non-negative; one past 2**31 us (35 min) would wrap
        # in int32 and break the exact sum
        if d.size and d.max() > _MAX_DURATION_US:
            raise OverflowError(f"a {name!r} duration exceeds 2**31 us")
        parts[i] = d
        t = t + d
    return parts, lost_at


def run(scenario: Scenario, seed: int) -> RunResult:
    """Trace every toggle of every source sequence; fully deterministic."""
    phase_rng = rng_stream(seed, _PHASE_STREAM)
    if scenario.randomize_phases:
        iolw_phase = int(phase_rng.integers(0, scenario.cell.cycle_us))
        plc_phase = int(phase_rng.integers(0, scenario.plc.task_cycle_us))
    else:
        iolw_phase = 0
        plc_phase = scenario.plc.phase_us
    plc_cfg = dataclasses.replace(scenario.plc, phase_us=plc_phase)

    t0 = scenario.source.toggle_times()
    dither = scenario.source.dither_us
    if scenario.randomize_phases and dither > 0:
        t0 = t0 + phase_rng.integers(0, dither, size=len(t0))
    parts, lost_at = _trace(scenario, t0, plc_cfg, iolw_phase, _segment_rngs(scenario, seed))

    components = tuple(scenario.components())
    seg_stats = {name: LatencyStats(scenario.bin_width_us) for name in components}
    e2e = LatencyStats(scenario.bin_width_us)
    e2e_us = parts.sum(axis=0)
    delivered = lost_at < 0
    losses = len(t0) - int(np.count_nonzero(delivered))
    if losses:
        # compress keeps the rows contiguous; parts[:, delivered] comes out
        # column-major, and each stats.add would copy a strided row
        parts, e2e_us = parts.compress(delivered, axis=1), e2e_us[delivered]
    lost_per_step = np.bincount(lost_at + 1, minlength=len(components) + 1)[1:]
    for name, durations, lost in zip(components, parts, lost_per_step.tolist()):
        seg_stats[name].add(durations)
        seg_stats[name].add_loss(lost)
    e2e.add(e2e_us)
    e2e.add_loss(losses)
    return RunResult(
        seeds=(seed,),
        toggles=len(t0),
        losses=losses,
        segment_stats=seg_stats,
        end_to_end=e2e,
        components=components,
    )


def sweep(scenario: Scenario, seeds: list[int], parallel: int = 1) -> RunResult:
    """Run once per seed and merge; the merge is order-independent.

    Up to `parallel` seeds run at once, on threads sharing the scenario:
    the numpy work that dominates a run releases the GIL, and every seed
    draws from its own streams. The merged result carries the per-seed
    results, sorted by seed, in its per_seed field.
    """
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if parallel > 1 and len(seeds) > 1:
        # the calling thread runs every parallel-th seed itself: one thread
        # fewer, and one allocator arena fewer holding a run's arrays
        with ThreadPoolExecutor(max_workers=parallel - 1) as pool:
            theirs = [s for i, s in enumerate(seeds) if i % parallel]
            pending = pool.map(partial(run, scenario), theirs)
            results = [run(scenario, s) for s in seeds[::parallel]] + list(pending)
    else:
        results = [run(scenario, s) for s in seeds]
    results.sort(key=lambda r: r.seeds)
    merged = reduce(RunResult.merge, results)
    return dataclasses.replace(merged, per_seed=tuple(results))
