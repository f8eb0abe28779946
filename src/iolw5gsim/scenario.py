"""Scenario composition and execution.

A Scenario chains link segments into a forward path (sensor -> PLC) and a
return path (PLC -> actuator). One immutable value (tuples and read-only
copies of its mappings), it compiles its plan once: a Step per component
in traversal order, whose stage on phase-0 grids run() places, and from
the steps each component's bound and safety maximum (the bound, raised to
its budget), whose sum is the worst-case SFRT. A Grid waits for the next
point of a clock grid, plus a fixed extra (the poll wait, a plc segment);
an Air hop waits for its cell's next cycle start, then rides the slot its
retries reach; a link segment's stage is its own model. The poll wait
comes right before the forward path's first network segment, where the
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
and a step that draws reads its stream, rng_stream(seed, 1 + the segment's
sorted index), from output j * toggles on, j its traversal of the segment.
A run's report does not depend on BLOCK.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from functools import reduce
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .fiveg import LatencyModel
from .iolw import IolwCellConfig, IolwTransferModel, draw_retries
from .kernel import Frozen, floor_draws, rng_stream
from .plc import PlcConfig, grid_wait
from .stats import LatencyStats

NETWORK_KINDS = ("ethernet", "fiveg")
POLL_WAIT = "poll_wait"

# toggles a run walks at a time
BLOCK = 1 << 16
# toggles a source may hold: about four minutes of run() at 4 M toggles/s
MAX_TOGGLES = 10**9


class SegmentSpec(NamedTuple):
    kind: str
    model: LatencyModel | None = None  # iol-wire / ethernet / fiveg
    transfer: IolwTransferModel | None = None  # iolw-air


class SignalSource(NamedTuple):
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


class Grid(NamedTuple):
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


class Air(NamedTuple):
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


class Step(NamedTuple):
    """A path component: its name, its stage on phase-0 grids, its stream id
    (None for a Grid) and its traversal j of the segment (from output j * toggles)."""

    name: str
    stage: Stage
    stream: int | None
    traversal: int


class Scenario(Frozen):
    cell: IolwCellConfig
    segments: Mapping[str, SegmentSpec]
    forward: Sequence[str]
    ret: Sequence[str]
    source: SignalSource
    plc: PlcConfig
    approach_speed_mps: float = 2.0
    budgets: Mapping[str, int] = MappingProxyType({})

    def __init__(self, *args, **kwargs) -> None:
        """The paths as tuples and read-only copies of the mappings; the plan,
        one Step per name of path_components (a link's stage is its segment's
        model, shared by segments that share it); bounds, each component's sum
        of its steps' upper bounds; maxima, each bound raised to its budget."""
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "forward", tuple(self.forward))
        object.__setattr__(self, "ret", tuple(self.ret))
        object.__setattr__(self, "segments", MappingProxyType(dict(self.segments)))
        object.__setattr__(self, "budgets", MappingProxyType(dict(self.budgets)))
        names = path_components(self.segments, self.forward, self.ret)
        ids, plc, steps, bounds = sorted(self.segments), self.plc, [], {}
        for i, name in enumerate(names):
            seg = self.segments.get(name)
            if name == POLL_WAIT:
                stage = Grid(plc.query_cycle_us, 0)
            elif seg.kind == "plc":
                stage = Grid(plc.task_cycle_us, 0, plc.task_cycle_us + plc.jitter_us)
            elif seg.kind == "iolw-air":
                stage = Air(seg.transfer, self.cell, 0)
            else:
                stage = seg.model
            stream = None if isinstance(stage, Grid) else 1 + ids.index(name)
            steps.append(Step(name, stage, stream, names[:i].count(name)))
            bounds[name] = bounds.get(name, 0) + stage.upper_bound_us()
        maxima = tuple((name, max(b, self.budgets.get(name, 0))) for name, b in bounds.items())
        object.__setattr__(self, "plan", tuple(steps))
        object.__setattr__(self, "bounds", MappingProxyType(bounds))
        object.__setattr__(self, "maxima", maxima)

    @property
    def worst_case_sfrt_us(self) -> int:
        """The sum of the component maxima: an upper bound on any response."""
        return sum(m for _, m in self.maxima)


def path_components(
    segments: Mapping[str, SegmentSpec], forward: Sequence[str], ret: Sequence[str]
) -> list[str]:
    """The paths' segment ids in traversal order, with the poll wait before
    the forward path's first network segment; an id missing from segments
    (one that failed to load) may be a network segment, so it counts as one."""
    names = [*forward, *ret]
    first = next((i for i, sid in enumerate(forward)
                  if sid not in segments or segments[sid].kind in NETWORK_KINDS), None)
    if first is not None:
        names.insert(first, POLL_WAIT)
    return names


class RunResult:
    # per_seed holds the per-seed results a sweep merged, in seed order; it
    # is not compared, so a sweep equals the run of its merged seeds
    __slots__ = ("seeds", "segment_stats", "end_to_end", "components", "per_seed")

    def __init__(self, seeds: tuple[int, ...], segment_stats: dict[str, LatencyStats],
                 end_to_end: LatencyStats, components: tuple[str, ...],
                 per_seed: tuple[RunResult, ...] = ()) -> None:
        self.seeds, self.segment_stats, self.end_to_end = seeds, segment_stats, end_to_end
        self.components, self.per_seed = components, per_seed

    def __eq__(self, other: object) -> bool:
        same = (getattr(self, f) == getattr(other, f) for f in self.__slots__[:-1])
        return all(same) if isinstance(other, RunResult) else NotImplemented

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
        return sum(self.segment_stats[name].max_us or 0 for name in self.components)


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
    """A seed's dither stream, the plan's stages with each Air on the iolw
    grid phase and each Grid on the PLC one, both drawn from that stream
    first, and each step's stream: None for a Grid, which draws nothing."""
    # the testbed's clocks are unsynchronized: each seed draws the phases
    dither_rng = rng_stream(seed, 0)
    periods = [scenario.cell.cycle_us, scenario.plc.task_cycle_us]
    drawn = floor_draws(dither_rng, periods, np.empty(2, np.int64), np.empty(2))
    phases = dict(zip((Air, Grid), drawn.tolist()))
    stages, rngs = [], []
    for step in scenario.plan:
        phase = phases.get(type(step.stage))
        stages.append(step.stage if phase is None else step.stage._replace(phase=phase))
        rngs.append(None if step.stream is None else rng_stream(seed, step.stream))
        if step.stream is not None:
            rngs[-1].bit_generator.advance(step.traversal * scenario.source.toggles)
    return dither_rng, stages, rngs


def run(scenario: Scenario, seed: int) -> RunResult:
    """Trace every toggle of every source sequence; fully deterministic."""
    dither_rng, stages, rngs = _start(scenario, seed)
    source, components = scenario.source, tuple(step.name for step in scenario.plan)
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
    return RunResult(merged.seeds, merged.segment_stats, merged.end_to_end, merged.components,
                     tuple(results))
