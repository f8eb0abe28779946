import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iolw5gsim.stats import (
    BIN_WIDTH_US,
    EmptyStatsError,
    LatencyStats,
    SafetyParams,
    safety_distance,
    worst_case_sfrt,
)

samples_strategy = st.lists(st.integers(min_value=0, max_value=500_000), min_size=1, max_size=400)


def fill(values):
    s = LatencyStats()
    for v in values:
        s.add(v)
    return s


class TestAccumulation:
    def test_basic_moments(self):
        s = fill([100, 200, 300])
        assert s.count == 3
        assert s.mean_us == 200
        assert s.min_us == 100
        assert s.max_us == 300

    def test_histogram_totals_match_count(self):
        s = fill([0, 99, 100, 5500, 5501])
        assert sum(s.bins.values()) == s.count

    def test_losses_tracked_separately(self):
        s = fill([100])
        s.add_loss()
        assert s.count == 1
        assert s.losses == 1

    def test_mean_on_empty_raises(self):
        with pytest.raises(EmptyStatsError):
            LatencyStats().mean_us

    # narrow batches take the dense bincount path, wide ones np.unique
    @given(
        st.one_of(
            st.lists(st.integers(0, 3000), max_size=300),
            st.lists(st.integers(0, 2**31 - 1), max_size=300),
        ),
        st.sampled_from(["int64", "int32", "0-d"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_add_counts_bins_like_counter(self, values, form):
        s = LatencyStats()
        if form == "0-d":
            for v in values:
                s.add(np.int32(v))
        else:
            s.add(np.array(values, dtype=form))
        assert s.bins == Counter(v // BIN_WIDTH_US for v in values)
        assert s.count == len(values) and s.total_us == sum(values)
        fields = [s.count, s.total_us, *s.bins, *s.bins.values()]
        if values:
            fields += [s.min_us, s.max_us]
        assert all(type(f) is int for f in fields)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().add(np.array([5, -1], dtype=np.int32))


class TestMerge:
    @given(samples_strategy, samples_strategy)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_whole_set(self, a, b):
        merged = fill(a).merge(fill(b))
        whole = fill(a + b)
        assert merged == whole

    @given(samples_strategy, samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutative(self, a, b):
        assert fill(a).merge(fill(b)) == fill(b).merge(fill(a))

    @given(samples_strategy, samples_strategy, samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_associative(self, a, b, c):
        sa, sb, sc = fill(a), fill(b), fill(c)
        assert sa.merge(sb).merge(sc) == sa.merge(sb.merge(sc))


class TestPercentile:
    def test_single_sample(self):
        s = fill([42_000])
        # 42.0 ms falls in the [42000, 42100) bin; conservative upper edge
        assert s.percentile(50) == 42_100

    def test_uniform_ladder_p99(self):
        s = fill([ms * 1000 for ms in range(1, 101)])
        assert s.percentile(99) == 99_100

    @given(samples_strategy)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_p(self, values):
        s = fill(values)
        ps = [s.percentile(p) for p in (0, 10, 50, 90, 99, 100)]
        assert ps == sorted(ps)

    @given(samples_strategy)
    @settings(max_examples=100, deadline=None)
    def test_percentile_is_conservative_upper_edge(self, values):
        s = fill(values)
        for p in (50, 90, 99):
            edge = s.percentile(p)
            covered = sum(1 for v in values if v < edge)
            assert covered / len(values) >= p / 100

    def test_empty_raises(self):
        with pytest.raises(EmptyStatsError):
            LatencyStats().percentile(50)


class TestCdf:
    def test_single_sample_steps_to_one(self):
        assert fill([5000]).cdf() == [(5100, 1.0)]

    def test_two_equal_samples_single_step(self):
        assert fill([5000, 5000]).cdf() == [(5100, 1.0)]

    def test_non_decreasing_and_ends_at_one(self):
        cdf = fill([100, 900, 900, 40_000]).cdf()
        fracs = [f for _, f in cdf]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0


class TestSafety:
    def test_worst_case_is_sum_of_maxima(self):
        params = SafetyParams(segment_maxima=(("a", 2000), ("b", 3000), ("c", 5000)))
        assert worst_case_sfrt(params) == 10_000

    def test_single_segment_identity(self):
        assert worst_case_sfrt(SafetyParams(segment_maxima=(("x", 1234),))) == 1234

    def test_no_segments_rejected(self):
        with pytest.raises(ValueError):
            worst_case_sfrt(SafetyParams())

    def test_reference_distance(self):
        d = safety_distance(149_600, 2.0)
        assert d.exact_m == pytest.approx(0.2992, abs=1e-12)
        assert d.presented_m == pytest.approx(0.3)

    def test_zero_response_time(self):
        d = safety_distance(0, 2.0)
        assert d.exact_m == 0.0
        assert d.presented_m == 0.0

    def test_simple_case(self):
        d = safety_distance(100_000, 1.0)
        assert d.exact_m == pytest.approx(0.1)
        assert d.presented_m == pytest.approx(0.1)

    def test_presentation_rounds_up_never_down(self):
        assert safety_distance(101_000, 1.0).presented_m == pytest.approx(0.2)

    @given(
        st.integers(min_value=0, max_value=1_000_000),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_in_both_arguments(self, sfrt, speed):
        base = safety_distance(sfrt, speed).exact_m
        assert safety_distance(2 * sfrt, speed).exact_m == pytest.approx(2 * base)
        assert safety_distance(sfrt, 2 * speed).exact_m == pytest.approx(2 * base)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            safety_distance(1000, 0.0)

    @pytest.mark.parametrize("speed", [math.inf, -math.inf, math.nan])
    def test_non_finite_speed_rejected(self, speed):
        assert any("finite" in m for m in SafetyParams(approach_speed_mps=speed).validate())
        with pytest.raises(ValueError, match="finite"):
            safety_distance(100, speed)


def test_ten_way_partition_merges_exactly():
    import numpy as np

    rng = np.random.default_rng(77)
    values = rng.integers(0, 200_000, size=5000)
    whole = fill([int(v) for v in values])
    parts = [fill([int(v) for v in chunk]) for chunk in np.array_split(values, 10)]
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    assert merged.count == whole.count
    assert merged.min_us == whole.min_us
    assert merged.max_us == whole.max_us
    assert merged.bins == whole.bins
    assert abs(merged.mean_us - whole.mean_us) < 1.0
