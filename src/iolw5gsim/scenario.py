"""Scenario composition and execution.

A Scenario chains link segments into a forward path (sensor -> PLC) and a
return path (PLC -> actuator). A boolean signal source toggles periodically.
Toggles never interact (no queue, no shared medium), so a run works
column-wise, on BLOCK toggles at a time, and streams the blocks through
buffers that the calling thread keeps from run to run: a run holds
O(BLOCK) memory whatever its toggle count or path length, and a warm run
allocates no toggle-sized array beyond numpy's gathers and integer draws.
Within a block, whether an IO-Link Wireless hop loses a toggle depends only
on that hop's own draws, never on time, so the losses come first: each
iolw-air traversal draws its retries, which fixes the toggles that are
delivered. Then one pass advances the block's toggle times through the
chain a component at a time; each component draws or computes the
durations of the whole block and records those of the delivered toggles
in its statistics straight away. The poll wait is inserted immediately
before the first network segment of the forward path (the point where the
process-image change sits at the W-Master waiting to be queried).

Every stream is drawn from in block order, so a run of up to BLOCK toggles
draws exactly what one pass over all of them would, and so does a longer
one for each segment crossed once; a segment crossed twice, and an
iolw-air hop's retry rounds, draw block by block.
"""

from __future__ import annotations

import dataclasses
import os
import threading
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

# toggles a run walks at a time
BLOCK = 1 << 16


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

    @property
    def toggles(self) -> int:
        return self.sequences * (self.sequence_length_us // self.toggle_period_us)

    def toggle_times(
        self, first: int, out: np.ndarray, ramp: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """Times of toggles first, first + 1, ... into the int64 out; ramp
        holds 0, 1, 2, ... and scratch is int64, both of out's length.

        Toggle k comes k toggle periods after the first one, plus the idle
        tail of every sequence before its own.
        """
        period, length = self.toggle_period_us, self.sequence_length_us
        per_seq = length // period
        np.multiply(ramp, period, out=out)
        out += first * period
        if length > per_seq * period:
            np.add(ramp, first, out=scratch)
            scratch //= per_seq
            scratch *= length - per_seq * period
            out += scratch
        return out


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


class _Workspace:
    """One thread's per-block buffers: toggle times at the start (t0) and on
    the way (t), durations (d), int64, float64 and bool scratch, the
    delivered mask, one retries array per iolw-air traversal, and the ramp
    0, 1, 2, ... that toggle times are computed from."""

    def __init__(self, size: int, traversals: int) -> None:
        self.ramp = np.arange(size, dtype=np.int64)
        self.t0, self.t, self.d, self.ints = (np.empty(size, dtype=np.int64) for _ in range(4))
        self.floats = np.empty(size)
        self.mask = np.empty(size, dtype=bool)
        self.delivered = np.empty(size, dtype=bool)
        self.retries = [np.empty(size, dtype=np.intp) for _ in range(traversals)]


_local = threading.local()


def _workspace(size: int, traversals: int) -> _Workspace:
    """The calling thread's workspace, rebuilt when a run needs another size
    or more traversals than the last one built."""
    ws = getattr(_local, "ws", None)
    if ws is None or len(ws.t) != size or len(ws.retries) < traversals:
        ws = _local.ws = _Workspace(size, traversals)
    return ws


def _start(
    scenario: Scenario, seed: int
) -> tuple[np.random.Generator, PlcConfig, int, dict[str, np.random.Generator]]:
    """A seed's dither stream, PLC grid, iolw phase and segment streams."""
    # the testbed's clocks are unsynchronized: each seed draws the phases
    phase_rng = rng_stream(seed, _PHASE_STREAM)
    iolw_phase = int(phase_rng.integers(0, scenario.cell.cycle_us))
    plc_phase = int(phase_rng.integers(0, scenario.plc.task_cycle_us))
    plc_cfg = dataclasses.replace(scenario.plc, phase_us=plc_phase)
    ids = sorted(scenario.segments)
    rngs = {sid: rng_stream(seed, _SEGMENT_STREAM_BASE + i) for i, sid in enumerate(ids)}
    return phase_rng, plc_cfg, iolw_phase, rngs


def run(scenario: Scenario, seed: int) -> RunResult:
    """Trace every toggle of every source sequence; fully deterministic."""
    phase_rng, plc_cfg, iolw_phase, rngs = _start(scenario, seed)
    cell, source = scenario.cell, scenario.source
    components = tuple(scenario.components())
    segs = [scenario.segments.get(name) for name in components]  # None for the poll wait
    air = [i for i, seg in enumerate(segs) if seg is not None and seg.kind == "iolw-air"]
    seg_stats = {name: LatencyStats() for name in components}
    e2e = LatencyStats()
    n = source.toggles
    ws = _workspace(min(n, BLOCK), len(air))
    losses = 0
    for first in range(0, n, BLOCK):
        m = min(BLOCK, n - first)
        ramp, t0, t, d, ints, u, mask, delivered = (
            a[:m] for a in (ws.ramp, ws.t0, ws.t, ws.d, ws.ints, ws.floats, ws.mask, ws.delivered)
        )
        source.toggle_times(first, t0, ramp, ints)
        if source.dither_us > 0:  # integers(0, 0) raises
            t0 += phase_rng.integers(0, source.dither_us, size=m)

        # losses first: each iolw-air traversal, keyed by its index since a
        # segment may be crossed twice from one stream, draws its retries in
        # path order; a toggle counts as lost on the first hop that loses it
        retries = {i: r[:m] for i, r in zip(air, ws.retries)}
        delivered.fill(True)
        block_losses = 0
        for i in air:
            lost = draw_retries(segs[i].transfer, rngs[components[i]], retries[i], u, mask)
            if lost.size:
                newly = int(np.count_nonzero(delivered[lost]))
                delivered[lost] = False
                seg_stats[components[i]].add_loss(newly)
                block_losses += newly
        losses += block_losses
        keep = delivered if block_losses else slice(None)

        # then stream: a lost toggle keeps moving so the arrays stay aligned,
        # but only delivered toggles are recorded
        np.copyto(t, t0)
        for i, (name, seg) in enumerate(zip(components, segs)):
            if name == POLL_WAIT:
                plcmod.next_poll(t, plc_cfg, d)
                d -= t
            elif seg.kind == "plc":
                plcmod.align_to_task_cycle(t, plc_cfg, d)
                d -= t
            elif seg.kind == "iolw-air":
                # shift into the cell's cycle grid; +cycle keeps the argument
                # non-negative for phases larger than t
                np.subtract(t, iolw_phase - cell.cycle_us, out=d)
                transfer_latencies(d, retries[i], seg.transfer, cell, d, ints)
            else:
                seg.model.sample(rngs[name], d, u, mask)
            seg_stats[name].add(d[keep])
            t += d
        np.subtract(t, t0, out=d)
        e2e.add(d[keep])
    e2e.add_loss(losses)
    return RunResult(
        seeds=(seed,), toggles=n, losses=losses,
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
    # each thread holds a workspace; more threads than CPUs only add those
    parallel = min(parallel, os.cpu_count() or 1)
    # the caller's share saves a thread and the workspace it would build;
    # the pool starts threads only when seeds are submitted
    with ThreadPoolExecutor(max_workers=max(parallel - 1, 1)) as pool:
        theirs = [s for i, s in enumerate(seeds) if i % parallel]
        pending = pool.map(partial(run, scenario), theirs)
        results = [run(scenario, s) for s in seeds[::parallel]] + list(pending)
    results.sort(key=lambda r: r.seeds)
    merged = reduce(RunResult.merge, results)
    return dataclasses.replace(merged, per_seed=tuple(results))
