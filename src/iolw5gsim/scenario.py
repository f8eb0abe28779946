"""Scenario composition and execution.

A Scenario chains link segments into a forward path (sensor -> PLC) and a
return path (PLC -> actuator), one stage per component: a Grid waits for the
next point of a clock grid, plus a fixed extra (the poll wait, a plc
segment); an Air hop waits for its cell's next cycle start, then rides the
slot its retries reach; a link segment's stage is its own model. The poll
wait comes right before the forward path's first network segment, where the
process-image change waits at the W-Master to be queried.

A boolean signal source toggles periodically. Toggles never interact (no
queue, no shared medium), so a run works column-wise, on BLOCK toggles at a
time, through buffers that the calling thread keeps from run to run: a run
holds O(BLOCK) memory whatever its toggle count or path length. Whether an
Air hop loses a toggle depends only on its own draws, never on time, so the
losses come first: each Air traversal draws its retries, and a loss is
counted once, at the first hop that loses the toggle and end to end. Then
one pass advances the block's toggle times through the stages, and each
stage's durations of the delivered toggles go to its statistics straight
away.

Every draw takes one output of its stream (kernel.uniforms): the phases
are outputs 0 and 1 of stream 0, toggle k's dither is its output 2 + k,
and traversal j of a segment reads rng_stream(seed, 1 + the segment's
sorted index) from output j * toggles on. A run's report does not depend
on BLOCK.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .fiveg import LatencyModel
from .iolw import IolwCellConfig, IolwTransferModel, draw_retries
from .kernel import floor_draws, rng_stream
from .plc import PlcConfig, grid_wait
from .stats import LatencyStats, SafetyParams

NETWORK_KINDS = ("ethernet", "fiveg")
POLL_WAIT = "poll_wait"

_PHASE_STREAM = 0
_SEGMENT_STREAM_BASE = 1

# toggles a run walks at a time
BLOCK = 1 << 16
# toggles a source may hold: about four minutes of run() at 4 M toggles/s
MAX_TOGGLES = 10**9


@dataclass
class SegmentSpec:
    kind: str
    model: LatencyModel | None = None  # iol-wire / ethernet / fiveg
    transfer: IolwTransferModel | None = None  # iolw-air


@dataclass
class SignalSource:
    toggle_period_us: int = 200_000
    sequences: int = 540
    sequence_length_us: int = 5_000_000

    def validate(self) -> list[str]:
        v = []
        if self.toggle_period_us <= 0:
            v.append("toggle_period must be > 0")
        elif self.toggles > MAX_TOGGLES:
            v.append(f"toggles must be <= {MAX_TOGGLES}, got {self.toggles}")
        if self.sequences < 1:
            v.append("sequences must be >= 1")
        if self.sequence_length_us < self.toggle_period_us:
            v.append("sequence_length must be >= toggle_period")
        # toggle times stay in int64 (the loader keeps the latencies added below 6.6 s)
        if self.sequences * self.sequence_length_us >= 2**53:
            v.append("sequences * sequence_length must be < 2**53 us")
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
        np.add(ramp, first, out=scratch)
        scratch //= per_seq
        scratch *= length - per_seq * period
        out += scratch
        return out


# A stage's durations(t, draws, out, ints, u) writes into the int64 out and
# returns the durations of arrivals at t: draws is a link model's stream, an
# Air hop's retries or None; ints and u are int64 and float64 scratch. Its
# upper_bound_us() is its largest duration, in Python ints.


@dataclass
class Grid:
    """The wait for the first point of the grid phase + k*period at or after
    the arrival, plus extra: the poll wait (query grid, extra 0), or a plc
    segment (task grid: an input runs in the next cycle, which publishes at
    its end, plus the jitter)."""

    period: int
    phase: int
    extra: int = 0

    def upper_bound_us(self) -> int:
        return self.period - 1 + self.extra

    def durations(self, t, draws, out, ints, u) -> np.ndarray:
        grid_wait(t, self.period, self.phase, out, ints)
        out += self.extra
        return out


@dataclass
class Air:
    """An IO-Link Wireless hop: the wait for its cell's next cycle start (on
    the grid phase + k*cycle), then slots counted from one cycle before it:
    the first attempt rides the first sub-cycle boundary at or after the
    arrival, each retry the next, and the latency ends the completion
    offset past the last. A valid cell's slots stay inside int64."""

    transfer: IolwTransferModel
    cell: IolwCellConfig
    phase: int

    def upper_bound_us(self) -> int:
        """The latency after k - 1 retries of the latest arrival for each
        slot (1 us past the boundary before it), for k = max_attempts, or
        k = 1 when error_prob = 0, as no attempt then fails."""
        k = self.transfer.max_attempts if self.transfer.per_subcycle_error_prob > 0 else 1
        t = self.phase + np.arange(self.cell.subcycles_per_cycle) * self.cell.subcycle_us + 1
        return int(self.durations(t, k - 1, np.empty_like(t), np.empty_like(t), None).max())

    def durations(self, t, draws, out, ints, u) -> np.ndarray:
        cell, per_cycle = self.cell, self.cell.subcycles_per_cycle
        s = np.arange(per_cycle + self.transfer.max_attempts)
        slot = s // per_cycle * cell.cycle_us + s % per_cycle * cell.subcycle_us
        wait = grid_wait(t, cell.cycle_us, self.phase, out, ints)
        np.subtract(wait, cell.cycle_us, out=ints)
        ints //= cell.subcycle_us
        np.negative(ints, out=ints)
        np.minimum(ints, per_cycle, out=ints)
        ints += draws
        np.add(slot.take(ints), wait, out=out)
        out += self.transfer.completion_offset_us - cell.cycle_us
        return out


Stage = Grid | Air | LatencyModel


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

    def stages(self, iolw_phase: int = 0, plc_phase: int = 0) -> list[Stage]:
        """One stage per component, aligned with components(), on the cell
        and PLC grids at the given phases; a link's stage is its segment's model."""
        plc, stages = self.plc, []
        for name in self.components():
            seg = self.segments.get(name)
            if seg is None:  # the poll wait
                stages.append(Grid(plc.query_cycle_us, plc_phase))
            elif seg.kind == "plc":
                stages.append(Grid(plc.task_cycle_us, plc_phase, plc.task_cycle_us + plc.jitter_us))
            elif seg.kind == "iolw-air":
                stages.append(Air(seg.transfer, self.cell, iolw_phase))
            else:
                stages.append(seg.model)
        return stages


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
    segment_stats: dict[str, LatencyStats]
    end_to_end: LatencyStats
    components: tuple[str, ...]
    # the per-seed results a sweep merged, in seed order; not compared, so
    # a sweep equals the run of its merged seeds
    per_seed: tuple["RunResult", ...] = field(default=(), compare=False, repr=False)

    @property
    def toggles(self) -> int:
        """Toggles traced, delivered or lost."""
        return self.end_to_end.count + self.end_to_end.losses

    @property
    def losses(self) -> int:
        return self.end_to_end.losses

    def merge(self, other: "RunResult") -> "RunResult":
        if self.components != other.components:
            raise ValueError("cannot merge results from different scenarios")
        merged = {
            name: self.segment_stats[name].merge(other.segment_stats[name])
            for name in self.segment_stats
        }
        return RunResult(
            seeds=tuple(sorted(set(self.seeds) | set(other.seeds))),
            segment_stats=merged,
            end_to_end=self.end_to_end.merge(other.end_to_end),
            components=self.components,
        )

    def observed_worst_case_us(self) -> int:
        """Sum of per-component maxima over one full traversal, which may come
        from different toggles: neither an observed response nor a bound."""
        total = 0
        for name in self.components:
            s = self.segment_stats[name]
            if s.max_us is not None:
                total += s.max_us
        return total


class _Workspace:
    """One thread's per-block buffers: toggle times at the start (t0) and on
    the way (t), durations (d), int64 and float64 scratch, which toggles
    are delivered, one retries array per iolw-air traversal, and the ramp
    0, 1, 2, ... that toggle times are computed from."""

    def __init__(self, size: int, traversals: int) -> None:
        self.ramp = np.arange(size, dtype=np.int64)
        self.t0, self.t, self.d, self.ints = (np.empty(size, dtype=np.int64) for _ in range(4))
        self.floats = np.empty(size)
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
) -> tuple[np.random.Generator, list[Stage], list[np.random.Generator | None]]:
    """A seed's dither stream, its stages on the iolw and PLC grid phases
    drawn from that stream first, and one stream per stage: None for a
    Grid, which draws nothing. Traversal j of a segment gets
    rng_stream(seed, 1 + its sorted index) advanced by j * toggles."""
    # the testbed's clocks are unsynchronized: each seed draws the phases
    dither_rng = rng_stream(seed, _PHASE_STREAM)
    periods = [scenario.cell.cycle_us, scenario.plc.task_cycle_us]
    phases = floor_draws(dither_rng, periods, np.empty(2, np.int64), np.empty(2))
    stages = scenario.stages(*phases.tolist())  # iolw, then PLC
    ids = sorted(scenario.segments)
    components = scenario.components()
    rngs = [None] * len(components)
    for i, (name, stage) in enumerate(zip(components, stages)):
        if not isinstance(stage, Grid):
            rngs[i] = rng_stream(seed, _SEGMENT_STREAM_BASE + ids.index(name))
            rngs[i].bit_generator.advance(components[:i].count(name) * scenario.source.toggles)
    return dither_rng, stages, rngs


def run(scenario: Scenario, seed: int) -> RunResult:
    """Trace every toggle of every source sequence; fully deterministic."""
    dither_rng, stages, rngs = _start(scenario, seed)
    source, components = scenario.source, tuple(scenario.components())
    air = [i for i, stage in enumerate(stages) if isinstance(stage, Air)]
    seg_stats = {name: LatencyStats() for name in components}
    e2e = LatencyStats()
    n = source.toggles
    ws = _workspace(min(n, BLOCK), len(air))
    for first in range(0, n, BLOCK):
        m = min(BLOCK, n - first)
        ramp, t0, t, d, ints, u, delivered = (
            a[:m] for a in (ws.ramp, ws.t0, ws.t, ws.d, ws.ints, ws.floats, ws.delivered)
        )
        source.toggle_times(first, t0, ramp, ints)
        # one query cycle of dither, or the grids phase-lock with the toggles
        t0 += floor_draws(dither_rng, scenario.plc.query_cycle_us, ints, u)

        # losses first: each Air traversal draws its retries in path order,
        # which stand in for its stream in the pass below; a toggle counts
        # as lost on the first hop that loses it
        draws = list(rngs)
        delivered.fill(True)
        for i, r in zip(air, ws.retries):
            draws[i] = r[:m]
            lost = draw_retries(stages[i].transfer, rngs[i], draws[i], u)
            newly = int(np.count_nonzero(delivered[lost]))
            delivered[lost] = False
            seg_stats[components[i]].add_loss(newly)
            e2e.add_loss(newly)
        keep = slice(None) if delivered.all() else delivered

        # then stream: a lost toggle keeps moving so the arrays stay aligned,
        # but only delivered toggles are recorded
        np.copyto(t, t0)
        for name, stage, draw in zip(components, stages, draws):
            stage.durations(t, draw, d, ints, u)
            seg_stats[name].add(d[keep])
            t += d
        np.subtract(t, t0, out=d)
        e2e.add(d[keep])
    return RunResult((seed,), seg_stats, e2e, components)


def sweep(scenario: Scenario, seeds: list[int], parallel: int = 1) -> RunResult:
    """Run each distinct seed in sorted order on the calling thread, and
    merge; the merged result carries the per-seed results in per_seed.
    `parallel` must be >= 1 and changes nothing (the benchmark still passes
    it): threads bought nothing for seeds of up to two blocks, as the bulk
    of a run holds the GIL."""
    if not seeds:
        raise ValueError("sweep needs at least one seed")
    if len(set(seeds)) < len(seeds):
        raise ValueError("sweep seeds must be distinct")
    if parallel < 1:
        raise ValueError("sweep parallel must be >= 1")
    results = [run(scenario, s) for s in sorted(seeds)]
    merged = reduce(RunResult.merge, results)
    return dataclasses.replace(merged, per_seed=tuple(results))
