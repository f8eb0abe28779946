"""Scalar, one-toggle-at-a-time reference forms of the column-wise models.

The package computes every model on arrays of toggle times. These are the
per-toggle loop versions the array code replaced, kept here only as test
oracles: alignment arithmetic must match them exactly, sampled
distributions must match them statistically. Earlier, plainer array forms
are kept as well:

- the empirical sampler's inverse-CDF search, which the alias-table
  sampler must match in distribution, not draw for draw (from the same
  uniforms it draws other bins);
- the truncated normal's rejection sampler, which the alias-table sampler
  must match in distribution;
- the first alias-table draw, one select between each slot and its alias,
  which the threshold-table draw of both tabled models must match draw
  for draw;
- the iolw-air retry arithmetic through the array sub-cycle boundary,
  which the current one must match draw for draw;
- the first array form of a run, which held every component's durations
  in one (components x toggles) matrix and which run() must match
  exactly, with the toggle times as one grid of sequence starts plus
  offsets;
- the (transfers x attempts) failure-matrix draw of the iolw-air retries,
  which draw_retries must match in distribution;
- the enumeration of the channels a hop plan may use, whose verdict (a plan
  exists iff there are at least two) validate_cell's closed form must match;
- LatencyStats's percentile, cdf and == over the (edge, count) pair list of
  its histogram, which the answers from its dense counts must match exactly.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from iolw5gsim import fiveg
from iolw5gsim.fiveg import Constant, Empirical, TruncNormal, Uniform
from iolw5gsim.kernel import rng_stream
from iolw5gsim.scenario import NETWORK_KINDS, POLL_WAIT, RunResult
from iolw5gsim.stats import EmptyStatsError, LatencyStats
from tests import fresh

# The rejection sampler gives up after this many redraws and clamps instead.
TRUNCNORM_MAX_REJECTS = 1000


def truncnorm_sample_gather(model, rng, n):
    """The former TruncNormal.sample: rint of normal draws, each redrawn
    until it lands in [low, high], as a gather loop over the pending
    indices. An element rejected TRUNCNORM_MAX_REJECTS times gets one fresh
    draw clamped to [low, high]. Returns the draws and the clamp count."""
    x = np.empty(n)
    pending = np.arange(n)
    for _ in range(TRUNCNORM_MAX_REJECTS):
        x[pending] = rng.normal(model.mean_target_us, model.stddev_us, size=pending.size)
        pending = pending[(x[pending] < model.low_us) | (x[pending] > model.high_us)]
        if not pending.size:
            break
    if pending.size:
        fresh = rng.normal(model.mean_target_us, model.stddev_us, size=pending.size)
        x[pending] = np.clip(fresh, model.low_us, model.high_us)
    return np.rint(x).astype(np.int64), int(pending.size)


def alias_slots_where(pmf, rng, n):
    """The first alias-table draw, over Walker's (prob, alias) of the pmf:
    slot i = floor(u*K) keeps itself when the fraction u*K - i is below
    prob[i] and takes alias[i] otherwise."""
    prob, alias = fiveg._alias_table(pmf)
    x = rng.random(n)
    x *= len(prob)
    i = x.astype(np.int64)
    x -= i
    return np.where(x < prob.take(i), i, alias.take(i))


def truncnorm_sample_where(model, rng, n):
    """The first alias-table TruncNormal.sample, over the exact pmf."""
    a, pmf = fiveg._truncnorm_pmf(
        model.mean_target_us, model.stddev_us, model.low_us, model.high_us
    )
    return alias_slots_where(pmf, rng, n) + a


def empirical_sample_where(model, rng, n):
    """Empirical.sample as the select over the alias table of the weights."""
    durations, weights = zip(*model.bins)
    values = np.array(durations, dtype=np.int64)
    return values[alias_slots_where(np.array(weights) / sum(weights), rng, n)]


def empirical_sample_searchsorted(model, u):
    """Empirical.sample for the uniforms u, as a binary search of each."""
    weights = np.array([w for _, w in model.bins], dtype=np.float64)
    values = np.array([d for d, _ in model.bins], dtype=np.int64)
    cum = np.cumsum(weights / weights.sum())
    return values[np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)]


def draw_retries_matrix(n, model, rng):
    """draw_retries as one (n, max_attempts) failure matrix: a transfer's
    retries are the index of its first successful attempt."""
    fails = rng.random((n, model.max_attempts)) < model.per_subcycle_error_prob
    lost = fails.all(axis=1)
    return np.where(lost, model.max_attempts - 1, fails.argmin(axis=1)), lost


def usable_channels(channel_count, blocklist, min_hop_distance):
    """Channels a hop plan may use; a plan exists iff there are at least two.

    A channel is usable if it is not block-listed and some other allowed
    channel lies at least min_hop_distance away, so a plan over usable
    channels can always take its next hop.
    """
    allowed = [c for c in range(channel_count) if c not in blocklist]
    return [
        c
        for c in allowed
        if any(c2 != c and abs(c2 - c) >= min_hop_distance for c2 in allowed)
    ]


def next_subcycle_start_array(t, config):
    """Earliest sub-cycle boundary >= t, element-wise, as one array formula.

    Boundaries sit at k*cycle + j*subcycle for j in 0..subcycles_per_cycle-1.
    A t that is itself a boundary is returned unchanged.
    """
    offset = t % config.cycle_us
    j = -(-offset // config.subcycle_us)  # first sub-cycle starting at or after t
    return t - offset + np.where(
        j < config.subcycles_per_cycle, j * config.subcycle_us, config.cycle_us
    )


def transfer_latencies_via_boundary(t_change, retries, model, cell):
    """transfer_latencies through next_subcycle_start_array."""
    cycle_index, offset = np.divmod(next_subcycle_start_array(t_change, cell), cell.cycle_us)
    k, j = np.divmod(offset // cell.subcycle_us + retries, cell.subcycles_per_cycle)
    boundary = (cycle_index + k) * cell.cycle_us + j * cell.subcycle_us
    return boundary - t_change + model.completion_offset_us


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


def next_poll(t, cfg, phase):
    """First poll time >= t on the grid phase + k*query_cycle."""
    k = -((phase - t) // cfg.query_cycle_us)
    return phase + k * cfg.query_cycle_us


def align_to_task_cycle(arrival, cfg, phase):
    """Output publication time for one input arriving at `arrival`, on the
    task grid phase + k*task_cycle."""
    task = cfg.task_cycle_us
    start = phase + ((arrival - phase) // task) * task
    completion = start + task if arrival == start else start + 2 * task
    return completion + cfg.jitter_us


def sample_one(model, rng):
    """One delay drawn from a latency model."""
    if isinstance(model, Constant):
        return model.value_us
    if isinstance(model, Uniform):
        return int(rng.integers(model.low_us, model.high_us, endpoint=True))
    if isinstance(model, TruncNormal):
        return int(truncnorm_sample_gather(model, rng, 1)[0][0])
    if isinstance(model, Empirical):
        return int(empirical_sample_searchsorted(model, rng.random()))
    raise TypeError(f"unknown model {model!r}")


def trace_toggle(t0, scenario, iolw_phase, plc_phase, rngs):
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
                poll = next_poll(t, scenario.plc, plc_phase)
                parts.append((POLL_WAIT, poll - t))
                t = poll
                polled = True
            if seg.kind == "plc":
                d = align_to_task_cycle(t, scenario.plc, plc_phase) - t
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


def trace_matrix(scenario, t0, iolw_phase, plc_phase, rngs):
    """Push every toggle through every component, one column-wise step each.

    rngs[i] is component i's stream, as layout_streams gives them. Returns
    (parts, lost_at): parts[i] holds component i's durations, and the
    columns of parts sum exactly to the end-to-end latencies; lost_at is
    the index of the component where a toggle was lost, or -1. A lost
    toggle keeps moving so the arrays stay aligned.
    """
    cell, plc = scenario.cell, scenario.plc
    components = scenario.components()
    parts = np.empty((len(components), len(t0)), dtype=np.int64)
    lost_at = np.full(len(t0), -1, dtype=np.int64)
    t = t0
    for i, name in enumerate(components):
        seg = scenario.segments.get(name)
        if name == POLL_WAIT:
            d = fresh.grid_wait(t, plc.query_cycle_us, plc_phase)
        elif seg.kind == "plc":
            d = fresh.grid_wait(t, plc.task_cycle_us, plc_phase) + plc.task_cycle_us + plc.jitter_us
        elif seg.kind == "iolw-air":
            retries, lost = fresh.draw_retries(len(t), seg.transfer, rngs[i])
            rel = t - iolw_phase + cell.cycle_us
            d = transfer_latencies_via_boundary(rel, retries, seg.transfer, cell)
            lost_at[lost & (lost_at < 0)] = i
        else:
            d = fresh.sample(seg.model, rngs[i], len(t))
        parts[i] = d
        t = t + d
    return parts, lost_at


def toggle_times(source):
    """Every toggle time of a source, as one (sequences x toggles per
    sequence) grid of sequence starts plus offsets."""
    per_seq = source.sequence_length_us // source.toggle_period_us
    starts = np.arange(source.sequences, dtype=np.int64) * source.sequence_length_us
    offsets = np.arange(per_seq, dtype=np.int64) * source.toggle_period_us
    return (starts[:, None] + offsets).ravel()


def layout_streams(scenario, seed):
    """Component i's stream by the documented layout, not taken from
    scenario._start: traversal j of a segment reads stream 1 + the
    segment's sorted index from output j * toggles on; the poll wait gets
    None."""
    ids = sorted(scenario.segments)
    components = scenario.components()
    rngs = []
    for i, name in enumerate(components):
        if name not in scenario.segments:
            rngs.append(None)
            continue
        rng = rng_stream(seed, 1 + ids.index(name))
        rng.bit_generator.advance(components[:i].count(name) * scenario.source.toggles)
        rngs.append(rng)
    return rngs


def layout_phases(scenario, seed):
    """Stream 0 and the (iolw, plc) phases, its outputs 0 and 1, each
    floor(u*K) of one double u."""
    rng = rng_stream(seed, 0)
    iolw_phase = int(rng.random() * scenario.cell.cycle_us)
    plc_phase = int(rng.random() * scenario.plc.task_cycle_us)
    return rng, iolw_phase, plc_phase


def run_via_matrix(scenario, seed):
    """run() through trace_matrix in one pass over all toggles: the lost
    toggles are dropped from the whole matrix by one boolean index at the
    end."""
    # toggle k's dither is output 2 + k of stream 0, floor(u*K) of one double
    dither_rng, iolw_phase, plc_phase = layout_phases(scenario, seed)
    t0 = toggle_times(scenario.source)
    t0 += (dither_rng.random(len(t0)) * scenario.plc.query_cycle_us).astype(np.int64)
    rngs = layout_streams(scenario, seed)
    parts, lost_at = trace_matrix(scenario, t0, iolw_phase, plc_phase, rngs)
    delivered = lost_at < 0
    components = tuple(scenario.components())
    stats = {name: LatencyStats() for name in components}
    for i, (name, row) in enumerate(zip(components, parts[:, delivered])):
        stats[name].add(row)
        stats[name].add_loss(int(np.count_nonzero(lost_at == i)))
    e2e = LatencyStats()
    e2e.add(parts.sum(axis=0)[delivered])
    e2e.add_loss(len(t0) - int(np.count_nonzero(delivered)))
    return RunResult((seed,), stats, e2e, components)


def cumulative_pairs(stats):
    """(bin upper edge, cumulative frequency) pairs of stats's nonzero bins."""
    if stats.count == 0:
        raise EmptyStatsError("no samples")
    edges, counts = zip(*stats.histogram())
    return zip(edges, accumulate(counts))


def percentile_pairs(stats, p):
    """The first pair's edge whose cumulative frequency reaches p percent,
    compared at 100x scale in Python numbers."""
    cumulative = cumulative_pairs(stats)
    if not 0 <= p <= 100:
        raise ValueError("percentile must be within [0, 100]")
    threshold = p * stats.count
    return next(edge for edge, c in cumulative if c * 100 >= threshold)


def cdf_pairs(stats):
    """(bin upper edge, cumulative fraction) pairs; ends at 1.0."""
    return [(edge, c / stats.count) for edge, c in cumulative_pairs(stats)]


def stats_equal_pairs(a, b):
    """Equal moments, losses and (edge, count) histograms."""
    fields = ("count", "total_us", "min_us", "max_us", "losses")
    return all(getattr(a, f) == getattr(b, f) for f in fields) and a.histogram() == b.histogram()
