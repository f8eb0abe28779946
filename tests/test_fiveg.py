import gc
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as sps

from iolw5gsim import fiveg
from iolw5gsim.config import load_scenario
from iolw5gsim.fiveg import (
    ALLOWED_SCS_KHZ,
    Constant,
    Empirical,
    NumerologyConfig,
    NumerologyError,
    TruncNormal,
    Uniform,
    symbol_bandwidth_khz,
    symbol_duration_scaling,
)
from iolw5gsim.kernel import Frozen, rng_stream
from tests.fresh import sample
from tests.test_digests import LOSSY_EMPIRICAL
from tests.test_kernel import VALUES


class TestNumerology:
    @pytest.mark.parametrize(
        "scs,expected",
        [(15, 180), (30, 360), (60, 720), (120, 1440), (240, 2880)],
    )
    def test_symbol_bandwidth(self, scs, expected):
        assert symbol_bandwidth_khz(NumerologyConfig(scs)) == expected

    def test_unsupported_scs_rejected(self):
        with pytest.raises(NumerologyError):
            NumerologyConfig(45)

    def test_bandwidth_strictly_monotone(self):
        values = [symbol_bandwidth_khz(NumerologyConfig(s)) for s in ALLOWED_SCS_KHZ]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    @pytest.mark.parametrize(
        "a,b,ratio", [(30, 15, 2.0), (15, 15, 1.0), (240, 30, 8.0)]
    )
    def test_symbol_duration_scaling(self, a, b, ratio):
        assert symbol_duration_scaling(
            NumerologyConfig(a), NumerologyConfig(b)
        ) == pytest.approx(ratio)


class TestSampling:
    def test_constant_always_same(self):
        rng = rng_stream(1, 0)
        model = Constant(1200)
        assert (sample(model, rng, 100) == 1200).all()

    def test_single_bin_empirical_is_degenerate(self):
        rng = rng_stream(1, 0)
        model = Empirical(((10_200, 1.0),))
        assert (sample(model, rng, 100) == 10_200).all()

    def test_uniform_support(self):
        rng = rng_stream(2, 0)
        model = Uniform(100, 200)
        draws = sample(model, rng, 10_000)
        # both endpoints are in the support, and 10 000 draws reach them
        assert draws.min() == 100 and draws.max() == 200

    def test_truncnorm_support_and_mean_against_analytic_oracle(self):
        rng = rng_stream(3, 0)
        model = TruncNormal(10_200.0, 2000.0, 5000, 40_000)
        draws = sample(model, rng, 100_000)
        assert draws.min() >= 5000 and draws.max() <= 40_000
        a = (5000 - 10_200) / 2000
        b = (40_000 - 10_200) / 2000
        oracle_mean = sps.truncnorm.mean(a, b, loc=10_200, scale=2000)
        assert draws.mean() == pytest.approx(oracle_mean, rel=0.02)

    def test_truncnorm_pathological_config_terminates_by_clamping(self):
        rng = rng_stream(4, 0)
        # support far in the tail, with no normal mass a double can hold:
        # every draw is the nearest bound, as the former clamp gave
        model = TruncNormal(0.0, 1.0, 1000, 1001)
        assert sample(model, rng, 3).tolist() == [1000, 1000, 1000]

    @pytest.mark.parametrize(
        "model",
        [
            TruncNormal(700.0, 0.0, 300, 1300),
            TruncNormal(700.5, 0.0, 300, 1300),  # rint rounds half to even
            TruncNormal(701.5, 0.0, 300, 1300),
            TruncNormal(5000.0, 0.0, 300, 1300),
            TruncNormal(0.0, 0.0, 300, 1300),
            TruncNormal(0.0, 1.0, 1000, 1001),
            TruncNormal(700.0, 150.0, 900, 900),
        ],
    )
    def test_truncnorm_degenerate_models_give_rint_of_clipped_mean(self, model):
        expected = np.rint(np.clip(model.mean_target_us, model.low_us, model.high_us))
        assert (sample(model, rng_stream(4, 0), 50) == expected).all()

    def test_truncnorm_support_wider_than_cap_fails_validation(self):
        model = TruncNormal(5000.0, 1e6, 0, 10**8)
        assert any("exceeds" in m for m in model.validate())
        assert not hasattr(model, "_table")  # no table for an invalid model
        # low..high holds one point more than the cap
        assert TruncNormal(0.0, 1e9, 0, fiveg.TRUNCNORM_MAX_POINTS).validate()

    def test_dropped_truncnorms_free_their_tables(self):
        # each table holds about 1.4 MB (16 bytes for each of ~90 000
        # points); none may outlive the models that use it
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            models = [TruncNormal(50_000.0, 5000.0 + i, 0, 100_000) for i in range(4)]
            assert tracemalloc.get_traced_memory()[0] - before > 4_000_000
            del models
            gc.collect()
            assert tracemalloc.get_traced_memory()[0] - before < 1_000_000
        finally:
            tracemalloc.stop()

    def test_empirical_frequencies_match_weights(self):
        rng = rng_stream(5, 0)
        model = Empirical(((100, 1.0), (200, 2.0), (300, 1.0)))
        draws = sample(model, rng, 100_000)
        observed = [int((draws == v).sum()) for v in (100, 200, 300)]
        expected = [25_000, 50_000, 25_000]
        chi2 = sps.chisquare(observed, expected)
        assert chi2.pvalue > 1e-4

    @pytest.mark.parametrize(
        "model",
        [
            Constant(500),
            Uniform(10, 20),
            TruncNormal(100.0, 50.0, 0, 400),
            Empirical(((5, 1.0), (10, 3.0))),
        ],
    )
    def test_no_model_violates_support(self, model):
        rng = rng_stream(6, 0)
        lo, hi = 0, model.upper_bound_us()
        v = sample(model, rng, 100_000)
        assert lo <= v.min() and v.max() <= hi

    @pytest.mark.parametrize(
        "model, bound",
        [
            (TruncNormal(700.0, 150.0, 300, 100_000), 2050),  # 9 sd above the mean
            (TruncNormal(700.0, 0.0, 300, 1300), 700),  # sd 0: one point
            (TruncNormal(0.0, 1.0, 1000, 1001), 1000),  # no mass a double holds
        ],
        ids=["nine-sd-below-high", "zero-sd", "far-tail"],
    )
    def test_truncnorm_bound_is_the_top_of_its_table(self, model, bound):
        assert model.upper_bound_us() == bound
        assert sample(model, rng_stream(6, 0), 100_000).max() <= bound

    def test_validation_catches_bad_parameters(self):
        assert Uniform(20, 10).validate()
        assert TruncNormal(0.0, -1.0, 0, 10).validate()
        assert TruncNormal(5000.0, 100.0, -1, 9000).validate() == ["truncnorm low must be >= 0"]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_truncnorm_rejects_non_finite_parameters(self, bad):
        assert any("mean must be finite" in m for m in TruncNormal(bad, 1.0, 0, 10).validate())
        assert any("stddev must be finite" in m for m in TruncNormal(5.0, bad, 0, 10).validate())

    @pytest.mark.parametrize(
        "bins, message",
        [
            ((), "at least one bin"),
            (((5, -1.0),), ">= 0"),
            (((5, -1.0), (6, 2.0)), ">= 0"),
            (((5, 0.0),), "positive sum"),
            (((5, math.inf), (6, 1.0)), "finite"),
            (((5, math.nan), (6, 1.0)), "finite"),
            (((5, -math.inf), (6, math.inf)), "finite"),
            (((5, 1e308), (6, 1e308)), "finite sum"),
        ],
    )
    def test_rejected_empirical_tables_build_silently(self, bins, message):
        # config loading builds a model before it validates it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = Empirical(bins)
        assert any(message in m for m in model.validate())
        assert not hasattr(model, "_table")

    def test_every_link_model_is_frozen(self):
        # the loader hands one model to every segment with equal parameters,
        # and run() callers on several threads share it, so none may change
        # in place; tests/test_kernel.py checks each against the value contract
        models = fiveg.LatencyModel.__subclasses__()
        names = {cls.__name__ for cls in models}
        assert names == {"Constant", "Uniform", "TruncNormal", "Empirical"}
        checked = {type(value) for value, _, _ in VALUES}
        for cls in models:
            assert issubclass(cls, Frozen) and cls in checked, cls

    @pytest.mark.parametrize(
        "model, field, value",
        [
            (TruncNormal(1200.0, 200.0, 600, 2000), "stddev_us", 0.0),
            (TruncNormal(1200.0, 200.0, 600, 2000), "low_us", 1500),
            (Empirical(((100, 1.0),)), "bins", ((900, 1.0),)),
        ],
    )
    def test_tabled_models_are_frozen_and_replace_resamples(self, model, field, value):
        # a model's table is built from its fields once; assigning a field
        # would leave the old table in use, so the fields cannot be assigned
        with pytest.raises(AttributeError):
            setattr(model, field, value)
        new = model._replace(**{field: value})
        old_draws = sample(model, rng_stream(7, 0), 2000)
        new_draws = sample(new, rng_stream(7, 0), 2000)
        if isinstance(model, Empirical):
            assert (old_draws == 100).all() and (new_draws == 900).all()
        elif field == "stddev_us":
            assert (new_draws == 1200).all() and old_draws.std() > 100
        else:
            assert new_draws.min() >= 1500 and old_draws.min() < 1500

    def test_tabled_arrays_are_read_only(self):
        # an edit in place would change the draws, not upper_bound_us()
        model = Empirical(((100, 1.0), (900, 3.0)))
        for array in (model._values, model._table.thr, model._table.jump):
            with pytest.raises(ValueError):
                array[0] = 10**9
        assert set(sample(model, rng_stream(7, 0), 2000).tolist()) == {100, 900}


# Known difference: the shipped 5G legs' comment calls each leg "half the
# measured 20.4 ms router round trip", but `mean = 10200 us` is the location
# of the normal before truncation to [5 ms, 26 750 us]. Each leg's realised
# mean is 10 478 us, so the simulated round trip is 20.96 ms.
KNOWN_5G_LEG_MEAN_US = 10_478

# Known differences of the same kind, each within 0.3 % of its comment: the
# wire hop's "mean 0.7 ms" is 701.70 us (+0.24 %) after truncation to
# [300 us, 1300 us], and each Ethernet hop's "mean 1.2 ms" is 1 200.86 us
# (+0.07 %) after truncation to [600 us, 2 ms].
KNOWN_WIRE_MEAN_US = 701.70
KNOWN_ETHERNET_MEAN_US = 1200.86


def test_a_models_stage_durations_are_its_samples(default_scenario):
    # a link model is its segment's stage: durations(t, rng, out, ints, u)
    # ignores t and ints and draws what sample(rng, out, u) draws, draw for
    # draw, on every shipped and lossy model (Constant, Uniform, TruncNormal
    # and Empirical between them)
    lossy = load_scenario(LOSSY_EMPIRICAL)
    models = {
        (name, sid): seg.model
        for name, sc in (("shipped", default_scenario), ("lossy", lossy))
        for sid, seg in sc.segments.items()
        if seg.model is not None
    }
    assert {type(m).__name__ for m in models.values()} == {
        "Constant", "Uniform", "TruncNormal", "Empirical"
    }
    n = 5000
    t = np.arange(n, dtype=np.int64) * 7919
    for i, (key, model) in enumerate(sorted(models.items())):
        stage_rng, sample_rng = rng_stream(3, i), rng_stream(3, i)
        ints = np.empty(n, np.int64)
        got = model.durations(t, stage_rng, np.empty(n, np.int64), ints, np.empty(n))
        want = model.sample(sample_rng, np.empty(n, np.int64), np.empty(n))
        np.testing.assert_array_equal(got, want, err_msg=str(key))
        assert stage_rng.bit_generator.state == sample_rng.bit_generator.state, key


def test_shipped_5g_leg_mean_is_a_known_difference_from_its_comment(default_scenario):
    for sid in ("nr_up", "nr_down"):
        m = default_scenario.segments[sid].model
        assert (m.mean_target_us, m.low_us, m.high_us) == (10_200, 5000, 26_750)
        a, p = fiveg._truncnorm_pmf(m.mean_target_us, m.stddev_us, m.low_us, m.high_us)
        pmf_mean = a + float(np.arange(len(p)) @ p)
        alpha, beta = ((x - m.mean_target_us) / m.stddev_us for x in (m.low_us, m.high_us))
        mass = sps.norm.cdf(beta) - sps.norm.cdf(alpha)
        closed = m.mean_target_us + m.stddev_us * (sps.norm.pdf(alpha) - sps.norm.pdf(beta)) / mass
        assert abs(pmf_mean - closed) < 1.0
        assert round(closed) == KNOWN_5G_LEG_MEAN_US


@pytest.mark.parametrize(
    "sid, comment, known",
    [
        ("wire", "mean 0.7 ms", KNOWN_WIRE_MEAN_US),
        ("eth_shop", "mean 1.2 ms per connection", KNOWN_ETHERNET_MEAN_US),
        ("eth_edge", "mean 1.2 ms per connection", KNOWN_ETHERNET_MEAN_US),
    ],
)
def test_shipped_calibration_comment_mean_is_a_known_difference(
    sid, comment, known, default_scenario, default_config_text
):
    assert comment in default_config_text
    m = default_scenario.segments[sid].model
    a, p = fiveg._truncnorm_pmf(m.mean_target_us, m.stddev_us, m.low_us, m.high_us)
    pmf_mean = a + float(np.arange(len(p)) @ p)
    alpha, beta = ((x - m.mean_target_us) / m.stddev_us for x in (m.low_us, m.high_us))
    closed = sps.truncnorm.mean(alpha, beta, loc=m.mean_target_us, scale=m.stddev_us)
    assert abs(pmf_mean - closed) < 0.01
    assert round(closed, 2) == known


# sha256 of each distinct shipped alias table: its thresholds, then its
# jumps, as little-endian f8 and i8. The tables come from math.erfc (the
# platform's libm) and numpy sums, so a platform that moves a threshold by
# an ulp fails here, by name, before it can flip a draw under the digests.
SHIPPED_TABLE_SHA256 = {
    "wire": (1001, "b64038d7ceea8ffeb8d4d0a7570b6f8d9418886fc18fb362de2cc7d085e1fc06"),
    "eth_shop": (1401, "41a745c39b5ebd6cee35fcac02c26758134e98f1af9cb65e6ae399bf5057dfea"),
    "nr_up": (21_751, "76a52e63c197b86d1b2dad7d1a0969ded57b600a4a40f89b936a5f9fb79a0d2d"),
}


def test_every_shipped_table_is_pinned(default_scenario):
    # segments with equal models share one table; each is pinned under the
    # first segment in the file that has it
    tables = {}
    for sid, seg in default_scenario.segments.items():
        if isinstance(seg.model, (TruncNormal, Empirical)):
            tables.setdefault(id(seg.model._table), sid)
    assert sorted(tables.values()) == sorted(SHIPPED_TABLE_SHA256)


@pytest.mark.parametrize("sid", sorted(SHIPPED_TABLE_SHA256))
def test_shipped_table_bytes(default_scenario, sid):
    table = default_scenario.segments[sid].model._table
    size, digest = SHIPPED_TABLE_SHA256[sid]
    assert len(table.thr) == len(table.jump) == size
    data = table.thr.astype("<f8").tobytes() + table.jump.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest
