"""Scalar, one-toggle-at-a-time reference forms of the column-wise models.

The package computes every model on arrays of toggle times. These are the
per-toggle loop versions the array code replaced, kept here only as test
oracles: alignment arithmetic must match them exactly, sampled
distributions must match them statistically. The earlier, plainer array
forms of the truncated-normal and empirical samplers and of the iolw-air
retry arithmetic are kept too; the current ones must match them draw for
draw.
"""

from __future__ import annotations

import numpy as np

from iolw5gsim import iolw
from iolw5gsim.fiveg import TRUNCNORM_MAX_REJECTS, Constant, Empirical, TruncNormal, Uniform
from iolw5gsim.scenario import NETWORK_KINDS, POLL_WAIT


def truncnorm_sample_gather(model, rng, n):
    """TruncNormal.sample as a gather loop over the pending indices."""
    x = np.empty(n)
    pending = np.arange(n)
    for _ in range(TRUNCNORM_MAX_REJECTS):
        x[pending] = rng.normal(model.mean_target_us, model.stddev_us, size=pending.size)
        pending = pending[(x[pending] < model.low_us) | (x[pending] > model.high_us)]
        if not pending.size:
            break
    if pending.size:
        model.clamp_events += int(pending.size)
        fresh = rng.normal(model.mean_target_us, model.stddev_us, size=pending.size)
        x[pending] = np.clip(fresh, model.low_us, model.high_us)
    return np.rint(x).astype(np.int64)


def empirical_sample_searchsorted(model, u):
    """Empirical.sample for the uniforms u, as a binary search of each."""
    weights = np.array([w for _, w in model.bins], dtype=np.float64)
    values = np.array([d for d, _ in model.bins], dtype=np.int64)
    cum = np.cumsum(weights / weights.sum())
    return values[np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)]


def transfer_latencies_via_boundary(t_change, model, cell, rng):
    """transfer_latencies through the array next_subcycle_start, with the
    loss test as all() over the failure matrix."""
    fails = rng.random((len(t_change), model.max_attempts)) < model.per_subcycle_error_prob
    lost = fails.all(axis=1)
    retries = np.where(lost, model.max_attempts - 1, fails.argmin(axis=1))
    cycle_index, offset = np.divmod(iolw.next_subcycle_start(t_change, cell), cell.cycle_us)
    k, j = np.divmod(offset // cell.subcycle_us + retries, cell.subcycles_per_cycle)
    boundary = (cycle_index + k) * cell.cycle_us + j * cell.subcycle_us
    return boundary - t_change + model.completion_offset_us, lost


def next_subcycle_start(t, config):
    """Earliest sub-cycle boundary >= t."""
    cycle_index, offset = divmod(t, config.cycle_us)
    j, rem = divmod(offset, config.subcycle_us)
    if rem == 0 and j < config.subcycles_per_cycle:
        return t
    if j + 1 < config.subcycles_per_cycle:
        return cycle_index * config.cycle_us + (j + 1) * config.subcycle_us
    return (cycle_index + 1) * config.cycle_us


def mean_boundary_wait_us(cell):
    """Exact mean wait to the next sub-cycle boundary for uniform integer
    arrivals, by enumerating one full cycle at 1 us resolution."""
    total = 0
    for t in range(cell.cycle_us):
        total += next_subcycle_start(t, cell) - t
    return total / cell.cycle_us


def transfer_latency(t_change, model, cell, rng):
    """Latency of one transfer starting at t_change, or None on loss."""
    p = model.per_subcycle_error_prob
    boundary = next_subcycle_start(t_change, cell)
    for attempt in range(model.max_attempts):
        if attempt > 0:
            boundary = next_subcycle_start(boundary + 1, cell)
        if p <= 0.0 or rng.random() >= p:
            return boundary - t_change + model.completion_offset_us
    return None


def next_poll(t, cfg):
    """First poll time >= t on the grid phase + k*query_cycle, k >= 0."""
    if t <= cfg.phase_us:
        return cfg.phase_us
    k = -((cfg.phase_us - t) // cfg.query_cycle_us)
    return cfg.phase_us + k * cfg.query_cycle_us


def align_to_task_cycle(arrival, cfg, rng=None):
    """Output publication time for one input arriving at `arrival`."""
    task = cfg.task_cycle_us
    start = cfg.phase_us + ((arrival - cfg.phase_us) // task) * task
    completion = start + task if arrival == start else start + 2 * task
    if rng is not None:
        completion += sample_one(cfg.jitter, rng)
    return completion


def sample_one(model, rng):
    """One delay drawn from a latency model."""
    if isinstance(model, Constant):
        return model.value_us
    if isinstance(model, Uniform):
        return int(rng.integers(model.low_us, model.high_us, endpoint=True))
    if isinstance(model, TruncNormal):
        for _ in range(TRUNCNORM_MAX_REJECTS):
            x = rng.normal(model.mean_target_us, model.stddev_us)
            if model.low_us <= x <= model.high_us:
                return int(round(x))
        model.clamp_events += 1
        x = rng.normal(model.mean_target_us, model.stddev_us)
        return int(min(max(x, model.low_us), model.high_us))
    if isinstance(model, Empirical):
        return int(empirical_sample_searchsorted(model, rng.random()))
    raise TypeError(f"unknown model {model!r}")


def trace_toggle(t0, scenario, plc_cfg, iolw_phase, rngs):
    """Walk one toggle through both paths.

    Returns (parts, lost_at): parts are (component, duration) pairs summing
    exactly to the end-to-end latency; lost_at names the segment where the
    transfer was lost, or None on success.
    """
    cell = scenario.cell
    parts = []
    t = t0
    polled = False
    for in_forward, path in ((True, scenario.forward), (False, scenario.ret)):
        for sid in path:
            seg = scenario.segments[sid]
            if in_forward and not polled and seg.kind in NETWORK_KINDS:
                poll = next_poll(t, plc_cfg)
                parts.append((POLL_WAIT, poll - t))
                t = poll
                polled = True
            if seg.kind == "plc":
                d = align_to_task_cycle(t, plc_cfg, rngs[sid]) - t
            elif seg.kind == "iolw-air":
                rel = t - iolw_phase + cell.cycle_us
                d = transfer_latency(rel, seg.transfer, cell, rngs[sid])
                if d is None:
                    return parts, sid
            else:
                d = sample_one(seg.model, rngs[sid])
            parts.append((sid, d))
            t += d
    return parts, None
