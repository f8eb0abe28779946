"""The column-wise models against their scalar references in tests/scalar_reference.

Alignment arithmetic must agree exactly; sampled distributions, per
component and end to end, must agree under a two-sample KS test; losses per
iolw-air leg must match the residual error probability.
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from iolw5gsim.fiveg import Empirical, TruncNormal, Uniform
from iolw5gsim.iolw import IolwCellConfig, IolwTransferModel, next_subcycle_start, transfer_latencies
from iolw5gsim.kernel import rng_stream
from iolw5gsim.plc import PlcConfig, align_to_task_cycle, next_poll
from iolw5gsim import scenario as scenario_module
from iolw5gsim.scenario import _trace, run
from iolw5gsim.stats import LatencyStats
from tests import scalar_reference as ref
from tests.test_scenario import random_scenario

# Each KS test compares one fixed-seed pair of samples; with some forty such
# tests this keeps a false alarm from a correct sampler below 1 %.
KS_MIN_PVALUE = 1e-4
LOSS_SIGMA = 5.0

cells = st.builds(
    lambda s, sub, spare: IolwCellConfig(
        subcycles_per_cycle=s, subcycle_us=sub, cycle_us=s * sub + spare
    ),
    st.integers(1, 4), st.integers(1, 700), st.integers(0, 800),
)
plc_configs = st.builds(
    lambda task, mult, phase: PlcConfig(
        task_cycle_us=task, query_cycle_us=task * mult, phase_us=phase % (2 * task * mult)
    ),
    st.integers(1, 2000), st.integers(1, 3), st.integers(0, 12_000),
)
# how many grid periods in the window starts: 0 covers times before the
# phase, large values times far beyond int32
periods_in = st.one_of(st.integers(0, 3), st.integers(0, 10**9))


def window(phase, period, k):
    """Every integer time from one period before the k-th grid point
    (phase + k*period) to two periods and one past it."""
    return np.arange(max(0, phase + (k - 1) * period), phase + (k + 2) * period + 2)


@given(cells, periods_in)
@settings(max_examples=100, deadline=None)
def test_next_subcycle_start_matches_scalar(cell, k):
    t = window(0, cell.cycle_us, k)
    expected = [ref.next_subcycle_start(x, cell) for x in t.tolist()]
    assert next_subcycle_start(t, cell).tolist() == expected


@given(plc_configs, periods_in)
@settings(max_examples=100, deadline=None)
def test_next_poll_matches_scalar(cfg, k):
    t = window(cfg.phase_us, cfg.query_cycle_us, k)
    expected = [ref.next_poll(x, cfg) for x in t.tolist()]
    assert next_poll(t, cfg).tolist() == expected


@given(plc_configs, periods_in)
@settings(max_examples=100, deadline=None)
def test_align_to_task_cycle_matches_scalar(cfg, k):
    t = window(cfg.phase_us, cfg.task_cycle_us, k)
    expected = [ref.align_to_task_cycle(x, cfg) for x in t.tolist()]
    assert align_to_task_cycle(t, cfg).tolist() == expected


class ScriptedRng:
    """Stands in for a Generator: random() replays fixed uniforms, whole or one by one."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)
        self.pos = 0

    def random(self, size=None):
        if size is not None:
            assert tuple(np.atleast_1d(size)) == self.draws.shape
            return self.draws
        value = self.draws.flat[self.pos]
        self.pos += 1
        return value


@given(cells, st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_retries_ride_the_same_boundaries_as_scalar(cell, attempts, seed):
    t = window(0, cell.cycle_us, 1)
    failures = np.random.default_rng(seed).integers(0, attempts + 1, size=len(t))
    # row i fails its first failures[i] attempts: 0.0 < p fails, 0.9 >= p succeeds
    draws = np.where(np.arange(attempts) < failures[:, None], 0.0, 0.9)
    model = IolwTransferModel(
        completion_offset_us=cell.subcycle_us // 2,
        per_subcycle_error_prob=0.5,
        max_attempts=attempts,
    )
    latency, lost = transfer_latencies(t, model, cell, ScriptedRng(draws))
    for i, x in enumerate(t.tolist()):
        expected = ref.transfer_latency(x, model, cell, ScriptedRng(draws[i]))
        assert lost[i] == (expected is None)
        if expected is not None:
            assert latency[i] == expected


truncnorms = st.one_of(
    st.builds(
        lambda mean, sd, low, width: TruncNormal(float(mean), float(sd), low, low + width),
        st.integers(0, 20_000), st.integers(0, 4000), st.integers(0, 20_000), st.integers(0, 8000),
    ),
    # heavy rejection: a support half a stddev wide, one to three stddevs out,
    # so some elements need hundreds of redraws and a few reach the cap
    st.builds(
        lambda mean, sd, z: TruncNormal(
            float(mean), float(sd), mean + z * sd, mean + z * sd + sd // 2
        ),
        st.integers(0, 20_000), st.integers(2, 2000), st.integers(1, 3),
    ),
    st.builds(lambda: TruncNormal(0.0, 1.0, 1000, 1001)),  # every element clamps
)


@given(truncnorms, st.integers(0, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_truncnorm_sample_matches_gather_loop(model, n, seed):
    oracle = dataclasses.replace(model)
    expected = ref.truncnorm_sample_gather(oracle, rng_stream(seed, 0), n)
    assert model.sample(rng_stream(seed, 0), n).tolist() == expected.tolist()
    assert model.clamp_events == oracle.clamp_events


def weight_table(k, seed, kind):
    """k exponential weights; "zeros" and "tails" set about half of them to
    0 or 1e-12, keeping the first positive."""
    rng = np.random.default_rng(seed)
    w = rng.exponential(size=k)
    if kind != "plain":
        w[1:][rng.random(k - 1) < 0.5] = 0.0 if kind == "zeros" else 1e-12
    return w.tolist()


empirical_weights = st.one_of(
    st.builds(weight_table, st.integers(1, 2000), st.integers(0, 2**32 - 1),
              st.sampled_from(["plain", "zeros", "tails"])),
    st.lists(st.sampled_from([0.0, 1e-12, 0.5, 1.0, 3.0]), min_size=1, max_size=40).filter(any),
)
# every cell edge of the finest guide table, 2**16 cells, is also an edge
# of the coarser ones
GUIDE_EDGES = np.arange(2**16) / 2**16


@given(empirical_weights, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_empirical_sample_matches_searchsorted(weights, seed):
    model = Empirical(tuple((10 * i + 5, w) for i, w in enumerate(weights)))
    w = np.array(weights)
    cum = np.cumsum(w / w.sum())
    u = np.concatenate([
        np.random.default_rng(seed).random(5000),
        cum, np.nextafter(cum, 0), np.nextafter(cum, 1),
        GUIDE_EDGES, np.nextafter(GUIDE_EDGES, 0),
    ])
    u = u[(u >= 0) & (u < 1)]
    expected = ref.empirical_sample_searchsorted(model, u)
    assert model.sample(ScriptedRng(u), len(u)).tolist() == expected.tolist()


def test_run_drops_lost_toggles_like_boolean_index(monkeypatch):
    sc = random_scenario(random.Random(7))
    sc.source = dataclasses.replace(sc.source, sequences=100)
    sc.segments["air"].transfer.per_subcycle_error_prob = 0.4
    sc.segments["nr"].model = Empirical(
        tuple((5000 + 200 * i, 1.0 + (i % 7)) for i in range(120))
    )
    traced = []

    def recording_trace(*args):
        traced.append(_trace(*args))
        return traced[-1]

    monkeypatch.setattr(scenario_module, "_trace", recording_trace)
    result = run(sc, seed=3)
    parts, lost_at = traced[0]
    delivered = lost_at < 0
    assert 0 < result.losses < result.toggles

    expected = {name: LatencyStats(sc.bin_width_us) for name in sc.components()}
    for i, (name, row) in enumerate(zip(sc.components(), parts[:, delivered])):
        expected[name].add(row)
        expected[name].add_loss(int(np.count_nonzero(lost_at == i)))
    e2e = LatencyStats(sc.bin_width_us)
    e2e.add(parts.sum(axis=0)[delivered])
    e2e.add_loss(result.losses)
    assert result.segment_stats == expected
    assert result.end_to_end == e2e


@pytest.mark.parametrize("gap", [False, True], ids=["no-gap", "gap"])
@given(
    st.integers(1, 4), st.integers(1, 700), st.integers(1, 800),
    st.integers(1, 8), st.sampled_from([0.0, 0.3, 1.0]), periods_in, st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_transfer_latencies_match_boundary_form(
    gap, subcycles, subcycle, spare, attempts, p, k, seed
):
    cell = IolwCellConfig(
        subcycles_per_cycle=subcycles, subcycle_us=subcycle,
        cycle_us=subcycles * subcycle + (spare if gap else 0),
    )
    model = IolwTransferModel(
        completion_offset_us=subcycle // 3, per_subcycle_error_prob=p, max_attempts=attempts
    )
    t = window(0, cell.cycle_us, k)
    latency, lost = transfer_latencies(t, model, cell, rng_stream(seed, 0))
    expected, expected_lost = ref.transfer_latencies_via_boundary(
        t, model, cell, rng_stream(seed, 0)
    )
    assert latency.tolist() == expected.tolist()
    assert lost.tolist() == expected_lost.tolist()


def test_transfer_latencies_reject_negative_times():
    with pytest.raises(ValueError):
        transfer_latencies(
            np.array([5, -1]), IolwTransferModel(0), IolwCellConfig(), rng_stream(1, 0)
        )


@pytest.mark.parametrize(
    "model",
    [
        Uniform(10, 2000),
        TruncNormal(1200.0, 400.0, 600, 2000),
        TruncNormal(10_200.0, 3000.0, 5000, 26_750),
        Empirical(((5000, 1.0), (5200, 3.0), (5400, 2.0), (9000, 0.5))),
    ],
)
def test_model_samples_match_scalar_distribution(model):
    n = 20_000
    vectorised = model.sample(rng_stream(1, 0), n)
    # every support here is wide, so redraws always land before the cap
    assert getattr(model, "clamp_events", 0) == 0
    rng = rng_stream(2, 0)
    scalar = [ref.sample_one(model, rng) for _ in range(n)]
    assert sps.ks_2samp(vectorised, scalar).pvalue > KS_MIN_PVALUE


def traced_samples(scenario, seed):
    """Per-component and end-to-end samples of the array and the scalar path.

    Both paths see the same dithered toggle times and clock phases but
    independent draws.
    """
    rnd = random.Random(seed)
    plc_cfg = dataclasses.replace(scenario.plc, phase_us=rnd.randrange(scenario.plc.task_cycle_us))
    iolw_phase = rnd.randrange(scenario.cell.cycle_us)
    t0 = scenario.source.toggle_times()
    t0 = t0 + rng_stream(seed, 0).integers(0, scenario.source.dither_us, size=len(t0))
    ids = sorted(scenario.segments)

    parts, lost_at = _trace(
        scenario, t0, plc_cfg, iolw_phase,
        {sid: rng_stream(seed, 1 + i) for i, sid in enumerate(ids)},
    )
    delivered = lost_at < 0
    array = {"end_to_end": parts.sum(axis=0)[delivered]}
    for name, durations in zip(scenario.components(), parts):
        array.setdefault(name, []).extend(durations[delivered].tolist())

    rngs = {sid: rng_stream(seed + 1000, 1 + i) for i, sid in enumerate(ids)}
    scalar = {"end_to_end": []}
    for t in t0.tolist():
        toggle, lost = ref.trace_toggle(t, scenario, plc_cfg, iolw_phase, rngs)
        if lost is None:
            scalar["end_to_end"].append(sum(d for _, d in toggle))
            for name, d in toggle:
                scalar.setdefault(name, []).append(d)
    return array, scalar


@pytest.mark.parametrize("scenario_seed", range(5))
def test_components_and_end_to_end_match_scalar_distribution(scenario_seed):
    sc = random_scenario(random.Random(scenario_seed))
    sc.source = dataclasses.replace(sc.source, sequences=300)
    array, scalar = traced_samples(sc, scenario_seed)
    assert array.keys() == scalar.keys()
    for name in array:
        p = sps.ks_2samp(array[name], scalar[name], method="asymp").pvalue
        assert p > KS_MIN_PVALUE, f"{name}: KS p = {p:.2e}"


@pytest.mark.parametrize("p,k", [(0.3, 3), (0.5, 2), (0.2, 5)])
def test_losses_per_leg_match_residual_error(default_scenario, p, k):
    sc = dataclasses.replace(default_scenario, segments=dict(default_scenario.segments))
    for sid in ("air_up", "air_down"):
        sc.segments[sid] = dataclasses.replace(
            sc.segments[sid],
            transfer=IolwTransferModel(667, per_subcycle_error_prob=p, max_attempts=k),
        )
    result = run(sc, seed=k)
    residual = p**k
    # the return leg only sees toggles that survived the forward leg
    reaching_down = result.toggles - result.segment_stats["air_up"].losses
    for sid, reaching in (("air_up", result.toggles), ("air_down", reaching_down)):
        expected = reaching * residual
        sigma = math.sqrt(reaching * residual * (1 - residual))
        assert abs(result.segment_stats[sid].losses - expected) <= LOSS_SIGMA * sigma + 1
    assert result.losses == sum(result.segment_stats[s].losses for s in ("air_up", "air_down"))
