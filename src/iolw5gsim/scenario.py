"""Scenario composition and execution.

A Scenario chains link segments into a forward path (sensor -> PLC) and a
return path (PLC -> actuator). A boolean signal source toggles periodically.
Toggles never interact (no queue, no shared medium), so a run works
column-wise, in two passes. Whether an IO-Link Wireless hop loses a toggle
depends only on that hop's own draws, never on time, so the losses come
first: each iolw-air traversal draws its retries, which fixes the toggles
that are delivered. Then one streaming pass advances the int64 array of
toggle times through the chain a component at a time; each component draws
or computes the durations of all toggles at once and records those of the
delivered toggles in its statistics straight away, so a run holds O(toggles)
memory whatever the path length. The poll wait is inserted immediately
before the first network segment of the forward path (the point where the
process-image change sits at the W-Master waiting to be queried).
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial, reduce

import numpy as np

from . import plc as plcmod
from .fiveg import LatencyModel
from .iolw import IolwCellConfig, IolwTransferModel, draw_retries, transfer_latencies
from .kernel import Duration, rng_stream
from .plc import PlcConfig
from .stats import LatencyStats, SafetyParams

NETWORK_KINDS = ("ethernet", "fiveg")
POLL_WAIT = "poll_wait"

_PHASE_STREAM = 0
_SEGMENT_STREAM_BASE = 1


@dataclass
class SegmentSpec:
    id: str
    kind: str
    model: LatencyModel | None = None  # iol-wire / ethernet / fiveg
    transfer: IolwTransferModel | None = None  # iolw-air


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

    def components(self) -> list[str]:
        """Ordered component names a toggle traverses (stats keys)."""
        return path_components(self.segments, self.forward, self.ret)


def path_components(
    segments: dict[str, SegmentSpec], forward: list[str], ret: list[str]
) -> list[str]:
    """The paths' segment ids in traversal order, with the poll wait before
    the forward path's first network segment; an id missing from segments
    (one that failed to load) may be a network segment, so it counts as one."""
    names: list[str] = []
    polled = False
    for sid in forward:
        seg = segments.get(sid)
        if not polled and (seg is None or seg.kind in NETWORK_KINDS):
            names.append(POLL_WAIT)
            polled = True
        names.append(sid)
    names.extend(ret)
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


def _start(
    scenario: Scenario, seed: int
) -> tuple[np.ndarray, PlcConfig, int, dict[str, np.random.Generator]]:
    """A seed's toggle times, PLC grid, iolw phase and segment streams."""
    # the testbed's clocks are unsynchronized: each seed draws the phases
    phase_rng = rng_stream(seed, _PHASE_STREAM)
    iolw_phase = int(phase_rng.integers(0, scenario.cell.cycle_us))
    plc_phase = int(phase_rng.integers(0, scenario.plc.task_cycle_us))
    plc_cfg = dataclasses.replace(scenario.plc, phase_us=plc_phase)

    t0 = scenario.source.toggle_times()
    dither = scenario.source.dither_us
    if dither > 0:  # integers(0, 0) raises
        t0 = t0 + phase_rng.integers(0, dither, size=len(t0))
    ids = sorted(scenario.segments)
    rngs = {sid: rng_stream(seed, _SEGMENT_STREAM_BASE + i) for i, sid in enumerate(ids)}
    return t0, plc_cfg, iolw_phase, rngs


def run(scenario: Scenario, seed: int) -> RunResult:
    """Trace every toggle of every source sequence; fully deterministic."""
    t0, plc_cfg, iolw_phase, rngs = _start(scenario, seed)
    cell = scenario.cell
    components = tuple(scenario.components())
    seg_stats = {name: LatencyStats() for name in components}

    # losses first: each iolw-air traversal, keyed by its index since a
    # segment may be crossed twice from one stream, draws its retries in path
    # order; a toggle counts as lost on the first hop that loses it
    retries = {}
    delivered = np.ones(len(t0), dtype=bool)
    for i, name in enumerate(components):
        seg = scenario.segments.get(name)  # None for the poll wait
        if seg is not None and seg.kind == "iolw-air":
            retries[i], lost = draw_retries(len(t0), seg.transfer, rngs[name])
            lost &= delivered
            seg_stats[name].add_loss(int(np.count_nonzero(lost)))
            delivered ^= lost
    losses = len(t0) - int(np.count_nonzero(delivered))
    keep = delivered if losses else slice(None)

    # then stream: a lost toggle keeps moving so the arrays stay aligned,
    # but only delivered toggles are recorded
    t = t0.copy()  # t0 may be toggle_times()'s own array; e2e reads t - t0
    for i, name in enumerate(components):
        seg = scenario.segments.get(name)
        if name == POLL_WAIT:
            d = plcmod.next_poll(t, plc_cfg) - t
        elif seg.kind == "plc":
            d = plcmod.align_to_task_cycle(t, plc_cfg) - t
        elif seg.kind == "iolw-air":
            # shift into the cell's cycle grid; +cycle keeps the argument
            # non-negative for phases larger than t
            d = transfer_latencies(
                t - iolw_phase + cell.cycle_us, retries[i], seg.transfer, cell
            )
        else:
            d = seg.model.sample(rngs[name], len(t))
        seg_stats[name].add(d[keep])
        t += d
    e2e = LatencyStats()
    e2e.add((t - t0)[keep])
    e2e.add_loss(losses)
    return RunResult(
        seeds=(seed,), toggles=len(t0), losses=losses,
        segment_stats=seg_stats, end_to_end=e2e, components=components,
    )


def sweep(scenario: Scenario, seeds: list[int], parallel: int = 1) -> RunResult:
    """Run once per distinct seed and merge; the merge is order-independent.

    Up to `parallel` seeds, and no more than the CPUs, run at once: the
    calling thread runs every parallel-th seed and a pool of parallel - 1
    threads the rest, all sharing the scenario (the numpy work that dominates
    a run releases the GIL, and every seed draws from its own streams), so a
    serial or one-seed sweep starts no thread. The merged result carries the
    per-seed results, sorted by seed, in its per_seed field, and is the same
    for any `parallel`.
    """
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ValueError("sweep seeds must be distinct")
    if parallel < 1:
        raise ValueError("sweep parallel must be >= 1")
    # each thread holds a run's arrays; more threads than CPUs only add those
    parallel = min(parallel, os.cpu_count() or 1)
    # the caller's share saves a thread and the allocator arena holding its
    # run's arrays; the pool starts threads only when seeds are submitted
    with ThreadPoolExecutor(max_workers=max(parallel - 1, 1)) as pool:
        theirs = [s for i, s in enumerate(seeds) if i % parallel]
        pending = pool.map(partial(run, scenario), theirs)
        results = [run(scenario, s) for s in seeds[::parallel]] + list(pending)
    results.sort(key=lambda r: r.seeds)
    merged = reduce(RunResult.merge, results)
    return dataclasses.replace(merged, per_seed=tuple(results))
