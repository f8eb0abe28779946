import copy
import math
import tracemalloc
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iolw5gsim.stats import (
    BIN_WIDTH_US,
    DENSE_BIN_CAP,
    EmptyStatsError,
    LatencyStats,
    safety_distance,
)
from tests import scalar_reference as ref

# the last sample of a batch whose bins fill DENSE_BIN_CAP bins from 0
CAP_EDGE_US = DENSE_BIN_CAP * BIN_WIDTH_US - 1
# samples whose bins fill the whole cap from bin 0
wide_strategy = st.lists(st.integers(0, CAP_EDGE_US), max_size=200).map(
    lambda values: [0, *values, CAP_EDGE_US]
)
samples_strategy = st.lists(st.integers(min_value=0, max_value=500_000), min_size=1, max_size=400)
# one side of a merge: samples, possibly none, and 0..5 losses
side_strategy = st.tuples(
    st.lists(st.integers(min_value=0, max_value=500_000), max_size=400),
    st.integers(min_value=0, max_value=5),
)


def fill(values):
    s = LatencyStats()
    for v in values:
        s.add(v)
    return s


def fill_side(side):
    values, losses = side
    s = fill(values)
    s.add_loss(losses)
    return s


def add_to_every_bin(s):
    """One more sample in each of s's occupied bins, none if it has none."""
    s.add(np.array([edge - 1 for edge, _ in s.histogram()], dtype=np.int64))


def merge(a, b):
    """a.merge(b), checking that it is a new object that changes neither
    side. It may share counts with either, as counts are never written
    after they are made, so the two stay independent: one more sample in
    each occupied bin of the merge leaves both sides as they were, and one
    more in each side's (on deep copies) leaves the merge as it was."""
    before = copy.deepcopy((a, b))
    merged = a.merge(b)
    assert (a, b) == before
    assert merged is not a and merged is not b
    result = copy.deepcopy(merged)
    a2, b2 = copy.deepcopy((a, b))
    merged2 = a2.merge(b2)
    add_to_every_bin(a2)
    add_to_every_bin(b2)
    assert merged2 == result
    add_to_every_bin(merged)
    assert (a, b) == before
    return result


def reference_histogram(values):
    """(bin upper edge, frequency) pairs of values, counted with a Counter."""
    counter = Counter(v // BIN_WIDTH_US for v in values)
    return [((i + 1) * BIN_WIDTH_US, n) for i, n in sorted(counter.items())]


def assert_matches_reference(s, values):
    """s holds exactly values: moments, bins, percentiles and CDF as a Counter gives them."""
    hist = reference_histogram(values)
    assert s.histogram() == hist
    moments = (len(values), sum(values), min(values), max(values))
    assert (s.count, s.total_us, s.min_us, s.max_us) == moments
    cumulative = list(accumulate(n for _, n in hist))
    assert s.cdf() == [(edge, c / len(values)) for (edge, _), c in zip(hist, cumulative)]
    for p in (0, 1, 50, 99, 99.9, 100):
        assert s.percentile(p) == next(
            edge for (edge, _), c in zip(hist, cumulative) if c * 100 >= p * len(values)
        )


class TestAccumulation:
    def test_basic_moments(self):
        s = fill([100, 200, 300])
        assert s.count == 3
        assert s.mean_us == 200
        assert s.min_us == 100
        assert s.max_us == 300

    def test_histogram_totals_match_count(self):
        s = fill([0, 99, 100, 5500, 5501])
        assert sum(n for _, n in s.histogram()) == s.count

    def test_losses_tracked_separately(self):
        s = fill([100])
        s.add_loss()
        assert s.count == 1
        assert s.losses == 1

    def test_mean_on_empty_raises(self):
        with pytest.raises(EmptyStatsError):
            LatencyStats().mean_us

    # narrow batches, and batches as wide as the cap anywhere below 2**31 us
    @given(
        st.one_of(
            st.lists(st.integers(0, 3000), max_size=300),
            st.integers(0, (2**31 - 1 - CAP_EDGE_US) // BIN_WIDTH_US).flatmap(
                lambda first: st.lists(
                    st.integers(first * BIN_WIDTH_US, first * BIN_WIDTH_US + CAP_EDGE_US),
                    max_size=300,
                )
            ),
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
        assert s.histogram() == reference_histogram(values)
        assert s.count == len(values) and s.total_us == sum(values)
        fields = [s.count, s.total_us, *(x for pair in s.histogram() for x in pair)]
        if values:
            fields += [s.min_us, s.max_us]
        assert all(type(f) is int for f in fields)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().add(np.array([5, -1], dtype=np.int32))

    # a cast to int64 would record 150 and 250 and a total of 400, not 401.89
    @pytest.mark.parametrize(
        "values", [[150.9, 250.99], [150.0], [1 + 2j], [True, False]],
        ids=["fractional", "whole-float", "complex", "bool"],
    )
    def test_non_integer_batch_rejected_by_its_dtype(self, values):
        s = LatencyStats()
        batch = np.array(values)
        with pytest.raises(ValueError, match=f"must be integers, got {batch.dtype}$"):
            s.add(batch)
        assert s == LatencyStats()

    @pytest.mark.parametrize("dtype", [None, "float64", "bool", "complex128", "uint64"])
    def test_empty_batch_is_a_no_op_whatever_its_dtype(self, dtype):
        s = fill([100, 200])
        s.add(np.array([], dtype=dtype) if dtype else [])
        assert s == fill([100, 200]) and s.count == 2

    def test_unsigned_batch_is_counted_and_one_past_int64_rejected(self):
        s = LatencyStats()
        s.add(np.array([150, 250, 65_535], dtype=np.uint16))
        assert_matches_reference(s, [150, 250, 65_535])
        top = LatencyStats()
        top.add(np.array([2**63 - 1], dtype=np.uint64))
        assert top.max_us == top.total_us == 2**63 - 1
        assert top.histogram() == [((2**63 - 1) // BIN_WIDTH_US * BIN_WIDTH_US + BIN_WIDTH_US, 1)]
        with pytest.raises(ValueError, match=">= 0"):  # cast to int64, 2**63 is negative
            s.add(np.array([2**63], dtype=np.uint64))


class TestMerge:
    @given(side_strategy, side_strategy)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_whole_set(self, a, b):
        merged = merge(fill_side(a), fill_side(b))
        whole = fill_side((a[0] + b[0], a[1] + b[1]))
        assert merged == whole

    @given(side_strategy, side_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutative(self, a, b):
        assert merge(fill_side(a), fill_side(b)) == merge(fill_side(b), fill_side(a))

    @given(side_strategy, side_strategy, side_strategy)
    @settings(max_examples=50, deadline=None)
    def test_merge_associative(self, a, b, c):
        sa, sb, sc = fill_side(a), fill_side(b), fill_side(c)
        assert merge(merge(sa, sb), sc) == merge(sa, merge(sb, sc))

    @given(samples_strategy, wide_strategy, samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_three_sides_merge_exactly_in_any_order(self, a, b, c):
        sa, sb, sc = fill(a), fill(b), fill(c)
        whole = a + b + c
        for merged in (merge(merge(sa, sb), sc), merge(sa, merge(sb, sc)),
                       merge(merge(sb, sc), sa), merge(sc, merge(sb, sa))):
            assert merged == fill(whole)
            assert_matches_reference(merged, whole)


class TestStorage:
    """Dense counts of fewer than DENSE_BIN_CAP bins; a batch or merge that
    would span more is rejected before it allocates, and changes nothing."""

    # an offset of 10 s puts every bin past the cap: only the span counts
    @pytest.mark.parametrize("offset", [0, 10**7], ids=["from-0", "offset-10-s"])
    def test_batches_outside_the_array_grow_it_both_ways(self, offset):
        s = LatencyStats()
        batches = [[50_000, 50_050, 52_000], [100, 250], [900_000, 901_234], [0], [950_000]]
        values = []
        for batch in batches:
            batch = [v + offset for v in batch]
            s.add(np.array(batch))
            values += batch
            assert_matches_reference(s, values)
            assert s.counts.size == s.max_us // BIN_WIDTH_US - s.min_us // BIN_WIDTH_US + 1

    @pytest.mark.parametrize("past", [0, 1], ids=["span-at-cap", "span-a-bin-past-cap"])
    @pytest.mark.parametrize("split", [False, True], ids=["one-batch", "two-batches"])
    @pytest.mark.parametrize("offset", [0, 10**7], ids=["from-0", "offset-10-s"])
    def test_span_at_and_past_the_cap(self, past, split, offset):
        rng = np.random.default_rng(29)
        lo, hi = offset, offset + CAP_EDGE_US + past * BIN_WIDTH_US
        values = [lo, hi, *rng.integers(lo, hi, size=3000).tolist(), lo + 1, hi - 1]
        s = LatencyStats()
        if split:  # the second batch pushes the span to or past the cap
            s.add(np.array(values[:1]))
        before = copy.deepcopy(s)
        batch = np.array(values[1:] if split else values)
        if past:
            with pytest.raises(ValueError, match=f"span {DENSE_BIN_CAP} bins or more$"):
                s.add(batch)
            assert s == before
        else:
            s.add(batch)
            assert_matches_reference(s, values)
            assert s.counts.size == DENSE_BIN_CAP

    @pytest.mark.parametrize("past", [0, 1], ids=["span-at-cap", "span-a-bin-past-cap"])
    @pytest.mark.parametrize("order", ["low-first", "high-first"])
    def test_merge_at_and_past_the_cap(self, past, order):
        low, high = fill([0, 5_000]), fill([CAP_EDGE_US + past * BIN_WIDTH_US, 70_000])
        a, b = (low, high) if order == "low-first" else (high, low)
        before = copy.deepcopy((a, b))
        if past:
            with pytest.raises(ValueError, match=f"span {DENSE_BIN_CAP} bins or more$"):
                a.merge(b)
            assert (a, b) == before
        else:
            merged = merge(a, b)
            assert_matches_reference(merged, [0, 5_000, 70_000, CAP_EDGE_US])
            assert merged.counts.size == DENSE_BIN_CAP

    @given(st.one_of(samples_strategy, wide_strategy))
    @settings(max_examples=100, deadline=None)
    def test_equality_does_not_depend_on_storage(self, values):
        batch = LatencyStats()
        batch.add(np.array(values))
        scalars = fill(values)
        assert batch == scalars
        assert batch.histogram() == scalars.histogram() == reference_histogram(values)

    # a merge with an empty side takes the other side's counts whole
    @pytest.mark.parametrize("empty", ["neither", "a", "b"])
    @pytest.mark.parametrize("top", [250_000, CAP_EDGE_US], ids=["dense", "full-cap"])
    def test_a_merge_and_its_sides_stay_independent(self, top, empty):
        sides = {"a": [0, 5_000, top], "b": [100, top // 2, top]}
        values = {k: [] if k == empty else v for k, v in sides.items()}
        merged = merge(fill(values["a"]), fill(values["b"]))
        assert merged == fill(values["a"] + values["b"])

    # a dense array of the span would take 171 MB
    @pytest.mark.parametrize("form", ["one-batch", "scalars", "merge"])
    def test_wide_span_allocates_no_dense_array_past_the_cap(self, form):
        s = LatencyStats() if form == "one-batch" else fill([0])
        other = fill([2**31 - 1])
        before = copy.deepcopy(s)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bins or more$"):
                if form == "one-batch":
                    s.add(np.array([0, 2**31 - 1]))
                elif form == "scalars":
                    s.add(2**31 - 1)
                else:
                    s.merge(other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DENSE_BIN_CAP * 8
        assert s == before


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

    @pytest.mark.parametrize("p", [-1, 100.5])
    def test_p_outside_0_to_100_rejected(self, p):
        with pytest.raises(ValueError, match="within"):
            fill([100]).percentile(p)


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

    def test_within_1e_10_m_above_a_step_presents_at_that_step(self):
        # 1e-11 m and 5e-11 m past 0.1 m are float noise: presented at 0.1 m
        for speed in (1.0000000001, 1.0000000005):
            d = safety_distance(100_000, speed)
            assert 0.1 < d.exact_m <= 0.1 + 1e-10
            assert d.presented_m == 0.1

    def test_past_1e_10_m_above_a_step_rounds_up(self):
        # 2e-10 m and 1e-9 m past 0.1 m are distance: presented at 0.2 m
        for speed in (1.000000002, 1.00000001):
            d = safety_distance(100_000, speed)
            assert d.exact_m > 0.1 + 1e-10
            assert d.presented_m == 0.2

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

    def test_negative_response_time_rejected(self):
        with pytest.raises(ValueError, match="response time must be >= 0"):
            safety_distance(-1, 2.0)

    @pytest.mark.parametrize("speed", [math.inf, -math.inf, math.nan])
    def test_non_finite_speed_rejected(self, speed):
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
    assert merged.histogram() == whole.histogram()
    assert abs(merged.mean_us - whole.mean_us) < 1.0


# batches of samples, each possibly empty, then 0..5 losses
batches_strategy = st.tuples(
    st.lists(st.lists(st.integers(0, 500_000), max_size=60), min_size=1, max_size=5),
    st.integers(0, 5),
)
QUERY_PS = (0, 1, 25, 50, 99, 99.9, 100)


def fill_batches(side):
    batches, losses = side
    s = LatencyStats()
    for batch in batches:
        s.add(np.array(batch, dtype=np.int64))
    s.add_loss(losses)
    return s


def assert_matches_pairs(s, ps=QUERY_PS):
    """percentile and cdf of s equal their (edge, count) pair-list forms."""
    if not s.count:
        with pytest.raises(EmptyStatsError):
            s.percentile(50)
        with pytest.raises(EmptyStatsError):
            ref.percentile_pairs(s, 50)
        return
    assert s.cdf() == ref.cdf_pairs(s)
    for p in ps:
        got = s.percentile(p)
        assert got == ref.percentile_pairs(s, p), p
        assert type(got) is int


class TestPairListOracles:
    """The dense-count answers equal the pair-list definitions in
    tests/scalar_reference.py exactly."""

    @given(batches_strategy, st.floats(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_batches(self, side, p):
        assert_matches_pairs(fill_batches(side), QUERY_PS + (p,))

    @given(batches_strategy, batches_strategy, st.floats(0, 100))
    @settings(max_examples=150, deadline=None)
    def test_merges(self, a, b, p):
        assert_matches_pairs(fill_batches(a).merge(fill_batches(b)), QUERY_PS + (p,))

    @pytest.mark.parametrize("values", [[4200], [4200, 4299, 4250, 4299]])
    def test_a_single_bin(self, values):
        s = fill([np.array(values)])
        assert_matches_pairs(s, QUERY_PS + (1e-300, 50.5, 99.99999))
        assert {s.percentile(p) for p in QUERY_PS} == {4300}

    def test_p_landing_exactly_on_a_cumulative_count(self):
        # 1000 samples whose cumulative counts are 1, 10, 500, 999 and 1000:
        # p = 100 c / count reaches bin c exactly, and the next p past it
        # (in int or float) takes the next bin
        s = fill([np.repeat([0, 100, 200, 300, 400], [1, 9, 490, 499, 1])])
        assert [c for _, c in ref.cumulative_pairs(s)] == [1, 10, 500, 999, 1000]
        cases = {0.1: 100, 1: 200, 1.0: 200, 50: 300, 50.0: 300, 99.9: 400, 100: 500}
        for p, edge in cases.items():
            assert s.percentile(p) == ref.percentile_pairs(s, p) == edge, p
        assert s.percentile(math.nextafter(0.1, 1)) == 200
        assert s.percentile(math.nextafter(99.9, 100)) == 500
        assert s.percentile(51) == s.percentile(50.00001) == 400

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_p_on_every_cumulative_count(self, counts):
        # counts[i] samples in bin i, and p at each cumulative count in turn
        s = fill([np.repeat(np.arange(len(counts)) * 100, counts)])
        for c in accumulate(counts):
            p = 100 * c / s.count
            assert s.percentile(p) == ref.percentile_pairs(s, p)
            if 100 * c % s.count == 0:
                p = 100 * c // s.count
                assert s.percentile(p) == ref.percentile_pairs(s, p)

    def test_p_outside_0_to_100_and_nan_rejected_as_before(self):
        s = fill([100, 300])
        for p in (-1, 100.5, math.nan):
            for query in (s.percentile, lambda p: ref.percentile_pairs(s, p)):
                with pytest.raises(ValueError, match="within"):
                    query(p)

    @given(batches_strategy, st.integers(0, 5), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equality(self, side, change, rnd):
        # b holds a's samples and losses re-batched, then maybe one change:
        # a moved sample (same or other bin), two samples moved by opposite
        # amounts (same total), a sample more, or a loss more
        a = fill_batches(side)
        values = [v for batch in side[0] for v in batch]
        rnd.shuffle(values)
        d = rnd.choice([1, 100, 1000])
        if values and change == 1:
            values[0] += d
        elif len(values) > 1 and change == 5 and values[0] >= d:
            values[0] -= d
            values[1] += d
        elif change == 2:
            values.append(rnd.randrange(0, 500_000))
        cut = rnd.randrange(len(values) + 1)
        b = fill_batches(([values[:cut], values[cut:]], side[1] + (change == 3)))
        assert (a == b) == ref.stats_equal_pairs(a, b)
        assert (b == a) == ref.stats_equal_pairs(b, a)
        if change in (0, 4):
            assert a == b

    def test_equal_moments_in_other_bins_are_unequal(self):
        a, b = fill([np.array([0, 150, 250, 1000])]), fill([np.array([0, 50, 350, 1000])])
        moments = ("count", "total_us", "min_us", "max_us")
        assert [getattr(a, f) for f in moments] == [getattr(b, f) for f in moments]
        assert a != b and not ref.stats_equal_pairs(a, b)
