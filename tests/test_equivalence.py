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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from iolw5gsim import fiveg
from iolw5gsim.fiveg import Empirical, TruncNormal, Uniform
from iolw5gsim.iolw import IolwCellConfig, IolwTransferModel
from iolw5gsim.kernel import rng_stream
from iolw5gsim.plc import PlcConfig
from iolw5gsim import scenario as scenario_mod
from iolw5gsim.scenario import Air, Grid, run
from iolw5gsim.stats import LatencyStats
from tests import scalar_reference as ref
from tests.fresh import align_to_task_cycle, draw_retries, next_poll, sample, transfer_latencies
from tests.test_scenario import random_scenario, small_scenario

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
# (config, grid phase), the phase up to two query cycles
plc_configs = st.builds(
    lambda task, mult, phase, jitter: (
        PlcConfig(task_cycle_us=task, query_cycle_us=task * mult, jitter_us=jitter),
        phase % (2 * task * mult),
    ),
    st.integers(1, 2000), st.integers(1, 3), st.integers(0, 12_000), st.integers(0, 500),
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
    # a first attempt rides the next sub-cycle start: its latency minus the
    # completion offset is the wait for it
    model = IolwTransferModel(completion_offset_us=cell.subcycle_us // 3)
    t = window(0, cell.cycle_us, k)
    wait = transfer_latencies(t, np.zeros(len(t), dtype=np.intp), model, cell)
    wait -= model.completion_offset_us
    assert wait.tolist() == [ref.next_subcycle_start(x, cell) - x for x in t.tolist()]


@given(plc_configs, periods_in)
@settings(max_examples=100, deadline=None)
def test_next_poll_matches_scalar(cfg_phase, k):
    cfg, phase = cfg_phase
    t = window(phase, cfg.query_cycle_us, k)
    expected = [ref.next_poll(x, cfg, phase) for x in t.tolist()]
    assert next_poll(t, cfg, phase).tolist() == expected


@given(plc_configs, periods_in)
@settings(max_examples=100, deadline=None)
def test_align_to_task_cycle_matches_scalar(cfg_phase, k):
    cfg, phase = cfg_phase
    t = window(phase, cfg.task_cycle_us, k)
    expected = [ref.align_to_task_cycle(x, cfg, phase) for x in t.tolist()]
    assert align_to_task_cycle(t, cfg, phase).tolist() == expected


class ScriptedRng:
    """Stands in for a Generator: random() replays fixed uniforms, whole or
    one by one, returned or into out."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)
        self.pos = 0

    def random(self, size=None, out=None):
        if out is not None:
            out[...] = self.draws
            return out
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
    # a transfer failing every attempt is lost, with the latency of its last
    latency = transfer_latencies(t, np.minimum(failures, attempts - 1), model, cell)
    for i, x in enumerate(t.tolist()):
        expected = ref.transfer_latency(x, model, cell, ScriptedRng(draws[i]))
        assert (failures[i] == attempts) == (expected is None)
        if expected is not None:
            assert latency[i] == expected


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
# fixed examples of empirical_weights, the first of the size the
# lossy-empirical scenarios use
EMPIRICAL_TABLES = {
    "plain-120": weight_table(120, 7, "plain"),
    "plain-2000": weight_table(2000, 1, "plain"),
    "zeros-500": weight_table(500, 2, "zeros"),
    "tails-300": weight_table(300, 3, "tails"),
    "short": [0.0, 1e-12, 0.5, 1.0, 3.0, 0.0, 1.0],
}


def pool_sparse(table, least=20):
    """The columns of a count table, merged left to right until each holds
    at least `least` counts; a short remainder joins the last column."""
    columns, pending = [], np.zeros(len(table), dtype=np.int64)
    for column in table.T:
        pending = pending + column
        if pending.sum() >= least:
            columns.append(pending)
            pending = np.zeros_like(pending)
    if not columns:
        return pending[:, None]
    columns[-1] = columns[-1] + pending
    return np.column_stack(columns)


@pytest.mark.parametrize("weights", EMPIRICAL_TABLES.values(), ids=EMPIRICAL_TABLES)
def test_empirical_draws_match_searchsorted_distribution(weights):
    # the inverse-CDF search the alias table replaced is the oracle
    model = Empirical(tuple((i, w) for i, w in enumerate(weights)))
    n = 200_000
    draws = sample(model, rng_stream(1, 0), n)
    expected = ref.empirical_sample_searchsorted(model, rng_stream(2, 0).random(n))
    table = pool_sparse(np.array([
        np.bincount(draws, minlength=len(weights)),
        np.bincount(expected, minlength=len(weights)),
    ]))
    assert table.shape[1] > 1
    assert sps.chi2_contingency(table).pvalue > KS_MIN_PVALUE


@given(empirical_weights, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_empirical_never_draws_a_zero_weight_bin(weights, seed):
    model = Empirical(tuple((i, w) for i, w in enumerate(weights)))
    zero = np.array(weights) == 0
    # slot k draws itself for u*K in [k, thr[k]) and k + jump[k] in [thr[k], k + 1)
    k = np.arange(len(weights))
    thr, jump = model._table.thr, model._table.jump
    assert not zero[k[thr > k]].any()
    assert not zero[(k + jump)[thr < k + 1]].any()
    assert not zero[sample(model, rng_stream(seed, 0), 20_000)].any()


@pytest.mark.parametrize("weights", EMPIRICAL_TABLES.values(), ids=EMPIRICAL_TABLES)
def test_empirical_sample_matches_where_select(weights):
    model = Empirical(tuple((10 * i + 5, w) for i, w in enumerate(weights)))
    expected = ref.empirical_sample_where(model, rng_stream(1, 0), 13_500)
    np.testing.assert_array_equal(sample(model, rng_stream(1, 0), 13_500), expected)
    # u*K on and beside each threshold picks values[k] or values[alias[k]];
    # the oracle scales its uniforms in place
    u = model._table.thr / len(model._table.thr)
    u = np.concatenate([u, np.nextafter(u, 0), np.nextafter(u, 1)])
    u = u[u < 1]
    expected = ref.empirical_sample_where(model, ScriptedRng(u.copy()), len(u))
    np.testing.assert_array_equal(sample(model, ScriptedRng(u), len(u)), expected)


SHIPPED_TRUNCNORMS = ("wire", "eth_shop", "nr_up")


def test_truncnorm_sample_matches_gather_loop(default_scenario):
    # the rejection sampler the alias table replaced is the oracle: for
    # every shipped truncnorm its draws and the table's agree in distribution
    n = 20_000
    for sid in SHIPPED_TRUNCNORMS:
        model = default_scenario.segments[sid].model
        expected, clamps = ref.truncnorm_sample_gather(model, rng_stream(2, 0), n)
        assert clamps == 0  # so the oracle drew the plain truncated normal
        p = sps.ks_2samp(sample(model, rng_stream(1, 0), n), expected).pvalue
        assert p > KS_MIN_PVALUE, f"{sid}: KS p = {p:.2e}"


def table_pmf(model):
    return fiveg._truncnorm_pmf(model.mean_target_us, model.stddev_us, model.low_us, model.high_us)


@pytest.mark.parametrize("sid", SHIPPED_TRUNCNORMS)
def test_truncnorm_draws_match_exact_pmf(default_scenario, sid):
    model = default_scenario.segments[sid].model
    a, pmf = table_pmf(model)
    n = 200_000
    draws = sample(model, rng_stream(3, 0), n)
    # about 100 runs of consecutive points of equal mass, each expecting
    # some 2 000 draws
    starts = np.unique(np.searchsorted(np.cumsum(pmf), np.arange(100) / 100))
    observed = np.add.reduceat(np.bincount(draws - a, minlength=len(pmf)), starts)
    expected = np.add.reduceat(pmf, starts) * n
    assert sps.chisquare(observed, expected).pvalue > KS_MIN_PVALUE


@st.composite
def tabled_truncnorms(draw):
    """Models with 0.5 <= stddev <= 5000, low < high and the mean within 8
    stddevs of [low, high], so every mass of the table is a normal double."""
    sd = draw(st.floats(0.5, 5000))
    low = draw(st.integers(0, 20_000))
    high = low + draw(st.integers(1, 8000))
    mean = low - 8 * sd + draw(st.floats(0, 1)) * (high - low + 16 * sd)
    return TruncNormal(mean, sd, low, high)


@given(tabled_truncnorms())
@settings(max_examples=100, deadline=None)
def test_truncnorm_pmf_matches_scipy_mass(model):
    a, pmf = table_pmf(model)
    mean, sd, low, high = model.mean_target_us, model.stddev_us, model.low_us, model.high_us
    k = np.arange(a, a + len(pmf))
    lo, hi = np.maximum(k - 0.5, low), np.minimum(k + 0.5, high)
    dist = sps.truncnorm((low - mean) / sd, (high - mean) / sd, loc=mean, scale=sd)
    # each mass from the tails on the far side of the mean, as precise as scipy gets
    mass = np.where(hi <= mean, dist.cdf(hi) - dist.cdf(lo), dist.sf(lo) - dist.sf(hi))
    np.testing.assert_allclose(pmf, mass, rtol=1e-9, atol=0)
    # what the table leaves out of [low, high] is below a double's resolution
    assert dist.cdf(a - 0.5) + dist.sf(a + len(pmf) - 0.5) < 1e-17


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 13_500])
def test_truncnorm_sample_matches_where_select(default_scenario, seed, n):
    # the threshold table draws exactly what the (prob, alias) select drew
    for sid in SHIPPED_TRUNCNORMS:
        model = default_scenario.segments[sid].model
        expected = ref.truncnorm_sample_where(model, rng_stream(seed, 0), n)
        np.testing.assert_array_equal(sample(model, rng_stream(seed, 0), n), expected)


def test_truncnorm_sample_matches_where_select_at_thresholds(default_scenario):
    # uniforms that put u*K on, just below and just above each threshold
    for sid in SHIPPED_TRUNCNORMS:
        model = default_scenario.segments[sid].model
        u = model._table.thr / len(model._table.thr)
        u = np.concatenate([u, np.nextafter(u, 0), np.nextafter(u, 1)])
        u = u[u < 1]
        # the oracle scales its uniforms in place
        expected = ref.truncnorm_sample_where(model, ScriptedRng(u.copy()), len(u))
        np.testing.assert_array_equal(sample(model, ScriptedRng(u), len(u)), expected)


@given(tabled_truncnorms(), st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 13_500]))
@settings(max_examples=50, deadline=None)
def test_tabled_truncnorm_sample_matches_where_select(model, seed, n):
    expected = ref.truncnorm_sample_where(model, rng_stream(seed, 0), n)
    np.testing.assert_array_equal(sample(model, rng_stream(seed, 0), n), expected)


def rebuilt_pmf(prob, alias):
    """The pmf an alias table samples: slot i keeps prob[i] of its 1/K."""
    return (prob + np.bincount(alias, weights=1 - prob, minlength=len(prob))) / len(prob)


def assert_thresholds_exact(prob, alias):
    """x >= thr[k] picks the alias just when x - k >= prob[k] does, at the
    edges of slot k's [k, k+1) and on either side of the threshold."""
    thr, jump = fiveg._threshold_table(prob, alias)
    k = np.arange(len(prob))
    np.testing.assert_array_equal(k + jump, alias)
    top = np.nextafter(k + 1.0, -math.inf)
    for x in (k, thr, np.nextafter(thr, -math.inf), top):
        x = np.clip(x, k, top)
        np.testing.assert_array_equal(x >= thr, x - k >= prob)


def test_5g_thresholds_are_exact_at_slot_edges(default_scenario):
    model = default_scenario.segments["nr_up"].model
    assert_thresholds_exact(*fiveg._alias_table(table_pmf(model)[1]))


@given(empirical_weights)
@settings(max_examples=200, deadline=None)
def test_thresholds_are_exact_at_slot_edges(weights):
    assert_thresholds_exact(*fiveg._alias_table(np.array(weights) / sum(weights)))


@given(empirical_weights)
@example([1.0, 1.0, 3.0, 3.0])  # a deficit ends exactly where a surplus ends
@example([1.0] * 49)  # K*p rounds just below 1 for every slot
# rounding puts a surplus end past the last deficit end
@example([0.5, 0.7, 0.0, 0.1, 2.0, 1.0, 0.1, 0.1, 0.5, 0.0, 0.5])
@settings(max_examples=200, deadline=None)
def test_alias_table_rebuilds_its_pmf(weights):
    pmf = np.array(weights) / sum(weights)
    prob, alias = fiveg._alias_table(pmf)
    assert ((prob >= 0) & (prob <= 1)).all()
    assert ((alias >= 0) & (alias < len(pmf))).all()
    np.testing.assert_allclose(rebuilt_pmf(prob, alias), pmf, rtol=0, atol=1e-12)
    # the sampler's form: slot k keeps thr[k] - k of its 1/K, else jumps
    thr, jump = fiveg._threshold_table(prob, alias)
    k = np.arange(len(pmf))
    np.testing.assert_allclose(rebuilt_pmf(thr - k, k + jump), pmf, rtol=0, atol=1e-12)


def test_run_drops_lost_toggles_like_boolean_index():
    # random scenarios cross "air" twice from one stream; p = 1 loses every
    # toggle on the forward crossing, and 0.4 some on each
    rnd = random.Random(7)
    for i in range(6):
        sc = random_scenario(rnd)
        sc.source = dataclasses.replace(sc.source, sequences=100)
        sc.segments["air"].transfer.per_subcycle_error_prob = (0.0, 0.4, 1.0)[i % 3]
        if i % 2:
            sc.segments["nr"].model = Empirical(
                tuple((5000 + 200 * j, 1.0 + (j % 7)) for j in range(120))
            )
        result = run(sc, seed=i)
        if i % 3 == 1:
            assert 0 < result.segment_stats["air"].losses < result.toggles
        assert result == ref.run_via_matrix(sc, seed=i)


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
    retries, _ = draw_retries(len(t), model, rng_stream(seed, 0))
    expected = ref.transfer_latencies_via_boundary(t, retries, model, cell)
    assert transfer_latencies(t, retries, model, cell).tolist() == expected.tolist()


@given(
    cells, st.integers(0, 10**6), periods_in, st.integers(1, 5), st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_transfer_latencies_phase_matches_pre_shift(cell, phase, k, attempts, cycles, seed):
    # reference: the times shifted into the cell's grid by hand, plus any
    # whole number of cycles (negative times included), at phase 0
    phase %= cell.cycle_us
    model = IolwTransferModel(completion_offset_us=cell.subcycle_us // 2, max_attempts=attempts)
    t = window(0, cell.cycle_us, k)
    retries = rng_stream(seed, 0).integers(0, attempts, size=len(t))
    expected = transfer_latencies(t - phase + cycles * cell.cycle_us, retries, model, cell, 0)
    assert transfer_latencies(t, retries, model, cell, phase).tolist() == expected.tolist()


def retry_outcomes(retries, lost, k):
    """Counts of transfers delivered after 0..k-1 retries, then of lost ones."""
    return np.bincount(np.where(lost, k, retries), minlength=k + 1)


@pytest.mark.parametrize("k", [1, 3, 5, 8])
@pytest.mark.parametrize("p", [0.001, 0.3, 0.5])
def test_retry_rounds_match_failure_matrix_distribution(p, k):
    n = 200_000
    model = IolwTransferModel(0, per_subcycle_error_prob=p, max_attempts=k)
    table = np.array([
        retry_outcomes(*draw_retries(n, model, rng_stream(k, 0)), k),
        retry_outcomes(*ref.draw_retries_matrix(n, model, rng_stream(k, 1)), k),
    ])
    # pool the sparse tail into its neighbour until each outcome is seen 20 times
    while table.shape[1] > 1 and table[:, -1].sum() < 20:
        table = np.column_stack([table[:, :-2], table[:, -2] + table[:, -1]])
    if table.shape[1] > 1:
        assert sps.chi2_contingency(table).pvalue > KS_MIN_PVALUE


@pytest.mark.parametrize("k", [1, 3, 5, 8])
@pytest.mark.parametrize("p", [0.0, 1.0])
def test_retry_rounds_match_failure_matrix_at_certain_outcomes(p, k):
    model = IolwTransferModel(0, per_subcycle_error_prob=p, max_attempts=k)
    retries, lost = draw_retries(1000, model, rng_stream(1, 0))
    expected_retries, expected_lost = ref.draw_retries_matrix(1000, model, rng_stream(2, 0))
    assert retries.tolist() == expected_retries.tolist()
    assert lost.tolist() == expected_lost.tolist()


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
    vectorised = sample(model, rng_stream(1, 0), n)
    rng = rng_stream(2, 0)
    scalar = [ref.sample_one(model, rng) for _ in range(n)]
    assert sps.ks_2samp(vectorised, scalar).pvalue > KS_MIN_PVALUE


@pytest.mark.parametrize("low, high", [(10, 2000), (0, 2**53 - 1), (7, 7)])
def test_uniform_draw_is_floor_of_one_double(low, high):
    # the least and the greatest uniform land on low and high
    k = high - low + 1
    draws = sample(Uniform(low, high), ScriptedRng([0.0, 0.5, 1 - 2**-53]), 3)
    assert draws.tolist() == [low, low + k // 2, high]


def traced_samples(scenario, seed):
    """Per-component and end-to-end samples of the array and the scalar path.

    Both paths see the same dithered toggle times and clock phases but
    independent draws.
    """
    rnd = random.Random(seed)
    plc_phase = rnd.randrange(scenario.plc.task_cycle_us)
    iolw_phase = rnd.randrange(scenario.cell.cycle_us)
    t0 = ref.toggle_times(scenario.source)
    t0 = t0 + rng_stream(seed, 0).integers(0, scenario.plc.query_cycle_us, size=len(t0))
    ids = sorted(scenario.segments)

    streams = ref.layout_streams(scenario, seed)
    parts, lost_at = ref.trace_matrix(scenario, t0, iolw_phase, plc_phase, streams)
    delivered = lost_at < 0
    array = {"end_to_end": parts.sum(axis=0)[delivered]}
    for name, durations in zip(scenario.components(), parts):
        array.setdefault(name, []).extend(durations[delivered].tolist())

    rngs = {sid: rng_stream(seed + 1000, 1 + i) for i, sid in enumerate(ids)}
    scalar = {"end_to_end": []}
    for t in t0.tolist():
        toggle, lost = ref.trace_toggle(t, scenario, iolw_phase, plc_phase, rngs)
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


def recorded_samples(scenario, seed, monkeypatch):
    """A run's result and the samples each of its statistics recorded,
    concatenated, by component name and "end_to_end"."""
    added = {}
    add = LatencyStats.add

    def recording_add(self, values):
        added.setdefault(id(self), []).append(np.array(values))
        add(self, values)

    with monkeypatch.context() as m:
        m.setattr(LatencyStats, "add", recording_add)
        result = run(scenario, seed)
    stats = {**result.segment_stats, "end_to_end": result.end_to_end}
    return result, {name: np.concatenate(added[id(s)]) for name, s in stats.items()}


def test_lossy_blocks_match_one_block_in_distribution(default_scenario, monkeypatch):
    # the shipped links are crossed twice and the hops lose toggles; every
    # statistic still records exactly the same samples, so the same
    # distribution, though a twice-crossed segment's statistic gets its
    # two traversals a block at a time
    sc = dataclasses.replace(default_scenario, segments=dict(default_scenario.segments))
    for sid in ("air_up", "air_down"):
        sc.segments[sid] = dataclasses.replace(
            sc.segments[sid],
            transfer=IolwTransferModel(667, per_subcycle_error_prob=0.3, max_attempts=5),
        )
    whole, one_block = recorded_samples(sc, 5, monkeypatch)
    monkeypatch.setattr(scenario_mod, "BLOCK", 1000)
    result, blocks = recorded_samples(sc, 5, monkeypatch)
    assert result == whole and result.losses > 0
    assert blocks.keys() == one_block.keys()
    for name in blocks:
        np.testing.assert_array_equal(np.sort(blocks[name]), np.sort(one_block[name]), name)


# The phases and the dither, floor(u*K) of one double: uniform on their
# ranges, and a run agrees in distribution with the dither drawn as numpy's
# bounded integers. Each fixed-seed check holds at this level.
DRAW_RULE_ALPHA = 1e-3


def test_phases_are_uniform_over_their_ranges():
    sc = small_scenario()
    iolw, plc = [], []
    for seed in range(2000):
        _, stages, _ = scenario_mod._start(sc, seed)
        iolw.append(next(s.phase for s in stages if isinstance(s, Air)))
        plc.append(next(s.phase for s in stages if isinstance(s, Grid)))
    for phases, k in ((iolw, sc.cell.cycle_us), (plc, sc.plc.task_cycle_us)):
        assert 0 <= min(phases) and max(phases) < k
        counts = np.bincount(np.array(phases) * 20 // k, minlength=20)
        assert sps.chisquare(counts).pvalue > DRAW_RULE_ALPHA


def test_dither_is_uniform_over_one_query_cycle():
    # every toggle starts on the query grid's period, and the poll wait
    # comes first, so it is (plc phase - dither) mod query_cycle: uniform
    # over the cycle, in 100 us bins of equal size, iff the dither is
    sc = small_scenario(sequences=2700)
    sc.forward = ["eth", "plc"]
    q = sc.plc.query_cycle_us
    assert sc.source.toggle_period_us % q == 0 == sc.source.sequence_length_us % q
    assert sc.components()[0] == "poll_wait"
    poll = run(sc, seed=3).segment_stats["poll_wait"]
    width = q // 100
    counts = dict(poll.histogram())
    assert max(counts) <= q and poll.count == sc.source.toggles == 13_500
    observed = [counts.get(width * (i + 1), 0) for i in range(100)]
    assert sps.chisquare(observed).pvalue > DRAW_RULE_ALPHA


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_matches_the_bounded_integer_dither_in_distribution(default_scenario, seed, monkeypatch):
    # the oracle runs at the run's phases, with the dither drawn by
    # Generator.integers (the old rule) and independent segment streams
    _, e2e = recorded_samples(default_scenario, seed, monkeypatch)
    _, iolw_phase, plc_phase = ref.layout_phases(default_scenario, seed)
    t0 = ref.toggle_times(default_scenario.source)
    q = default_scenario.plc.query_cycle_us
    t0 += rng_stream(seed + 1000, 0).integers(0, q, size=len(t0))
    streams = ref.layout_streams(default_scenario, seed + 1000)
    parts, lost_at = ref.trace_matrix(default_scenario, t0, iolw_phase, plc_phase, streams)
    oracle = parts.sum(axis=0)[lost_at < 0]
    assert sps.ks_2samp(e2e["end_to_end"], oracle).pvalue > DRAW_RULE_ALPHA
