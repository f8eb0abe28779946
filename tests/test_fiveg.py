import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats as sps

from iolw5gsim import fiveg
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
from iolw5gsim.kernel import rng_stream


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
        assert (model.sample(rng, 100) == 1200).all()

    def test_single_bin_empirical_is_degenerate(self):
        rng = rng_stream(1, 0)
        model = Empirical(((10_200, 1.0),))
        assert (model.sample(rng, 100) == 10_200).all()

    def test_uniform_support(self):
        rng = rng_stream(2, 0)
        model = Uniform(100, 200)
        draws = model.sample(rng, 10_000)
        # both endpoints are in the support, and 10 000 draws reach them
        assert draws.min() == 100 and draws.max() == 200

    def test_truncnorm_support_and_mean_against_analytic_oracle(self):
        rng = rng_stream(3, 0)
        model = TruncNormal(10_200.0, 2000.0, 5000, 40_000)
        draws = model.sample(rng, 100_000)
        assert draws.min() >= 5000 and draws.max() <= 40_000
        a = (5000 - 10_200) / 2000
        b = (40_000 - 10_200) / 2000
        oracle_mean = sps.truncnorm.mean(a, b, loc=10_200, scale=2000)
        assert draws.mean() == pytest.approx(oracle_mean, rel=0.02)

    def test_truncnorm_pathological_config_terminates_by_clamping(self):
        rng = rng_stream(4, 0)
        # support far in the tail: rejection cannot realistically succeed
        model = TruncNormal(0.0, 1.0, 1000, 1001)
        v = model.sample(rng, 3)
        assert ((v >= 1000) & (v <= 1001)).all()
        assert model.clamp_events == 3

    def test_truncnorm_clamp_count_survives_thread_switches(self, monkeypatch):
        # the seeds of a parallel sweep share the model; a cap of one redraw
        # makes every call a clamp, so lost updates would show
        monkeypatch.setattr(fiveg, "TRUNCNORM_MAX_REJECTS", 1)
        model = TruncNormal(0.0, 1.0, 1000, 1001)
        calls = 500

        def draw(seed):
            rng = rng_stream(seed, 0)
            for _ in range(calls):
                model.sample(rng, 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                list(pool.map(draw, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert model.clamp_events == 8 * calls

    def test_empirical_frequencies_match_weights(self):
        rng = rng_stream(5, 0)
        model = Empirical(((100, 1.0), (200, 2.0), (300, 1.0)))
        draws = model.sample(rng, 100_000)
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
        v = model.sample(rng, 100_000)
        assert lo <= v.min() and v.max() <= hi

    def test_validation_catches_bad_parameters(self):
        assert Uniform(20, 10).validate()
        assert TruncNormal(0.0, -1.0, 0, 10).validate()

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

    @pytest.mark.parametrize("k", [1, 120, 2000, 100_000])
    def test_empirical_guide_table_stays_small(self, k):
        model = Empirical(tuple((i, 1.0) for i in range(k)))
        assert 2**10 <= len(model._guide) <= 2**16
        assert model._guide.nbytes <= 256 * 1024
