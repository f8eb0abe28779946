import dataclasses
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from iolw5gsim.config import load_scenario
from iolw5gsim.fiveg import Constant, Empirical, LatencyModel, TruncNormal, Uniform
from iolw5gsim.iolw import MAX_ATTEMPTS, IolwCellConfig, IolwTransferModel
from iolw5gsim.kernel import rng_stream
from iolw5gsim import scenario as scenario_mod
from iolw5gsim.plc import PlcConfig
from iolw5gsim.scenario import (
    Air,
    Grid,
    Scenario,
    SegmentSpec,
    SignalSource,
    run,
    sweep,
)
from iolw5gsim.stats import SafetyParams
from tests import scalar_reference as ref
from tests.fresh import draw_retries, sample, toggle_times
from tests.scalar_reference import trace_matrix
from tests.test_config import MINIMAL
from tests.test_digests import LOSSY_EMPIRICAL


def small_scenario(**source_kw):
    sc = load_scenario(MINIMAL)
    if source_kw:
        sc.source = dataclasses.replace(sc.source, **source_kw)
    return sc


def random_scenario(rnd: random.Random) -> Scenario:
    """Structurally valid scenario with randomized models and paths."""
    cell = IolwCellConfig()
    segments = {
        "wire": SegmentSpec("iol-wire", model=Uniform(
            rnd.randrange(0, 500), rnd.randrange(500, 2000))),
        "air": SegmentSpec("iolw-air", transfer=IolwTransferModel(
            completion_offset_us=rnd.randrange(0, 1664),
            per_subcycle_error_prob=rnd.choice([0.0, 0.001, 0.05]),
            max_attempts=3)),
        "eth": SegmentSpec("ethernet", model=TruncNormal(
            float(rnd.randrange(500, 3000)), float(rnd.randrange(1, 500)),
            0, 6000)),
        "nr": SegmentSpec("fiveg", model=TruncNormal(
            float(rnd.randrange(2000, 15_000)), float(rnd.randrange(100, 4000)),
            1000, 40_000)),
        "plc": SegmentSpec("plc"),
    }
    return Scenario(
        cell=cell,
        segments=segments,
        forward=["wire", "air", "eth", "nr", "nr", "eth", "plc"],
        ret=["eth", "nr", "nr", "eth", "air", "wire"],
        source=SignalSource(toggle_period_us=100_000, sequences=1, sequence_length_us=1_000_000),
        plc=PlcConfig(
            task_cycle_us=(task := rnd.choice([2000, 5000])),
            query_cycle_us=task * rnd.choice([1, 2]),
        ),
        safety=SafetyParams(),
    )


def mixed_scenario(sequences: int = 500) -> Scenario:
    """Every kind of link model, each link crossed once, loss-free iolw-air
    hops and a dithered source of 17 toggles a sequence with an idle tail."""
    air = IolwTransferModel(completion_offset_us=667)
    links = {
        "wire": ("iol-wire", Constant(700)),
        "eth": ("ethernet", Uniform(600, 2000)),
        "nr_up": ("fiveg", TruncNormal(10_200.0, 3000.0, 5000, 26_750)),
        "nr_down": ("fiveg", Empirical(tuple((5000 + 200 * j, 1.0 + j % 7) for j in range(120)))),
    }
    segments = {sid: SegmentSpec(kind, model=model) for sid, (kind, model) in links.items()}
    segments.update({
        "air_up": SegmentSpec("iolw-air", transfer=air),
        "air_down": SegmentSpec("iolw-air", transfer=air),
        "plc": SegmentSpec("plc"),
    })
    return Scenario(
        cell=IolwCellConfig(),
        segments=segments,
        forward=["wire", "air_up", "eth", "nr_up", "plc"],
        ret=["nr_down", "air_down"],
        source=SignalSource(
            toggle_period_us=300_000, sequences=sequences, sequence_length_us=5_200_000
        ),
        plc=PlcConfig(),
        safety=SafetyParams(),
    )


class TestToggleTimes:
    @pytest.mark.parametrize(
        "source",
        [
            SignalSource(),
            SignalSource(toggle_period_us=300_000, sequences=40, sequence_length_us=5_200_000),
            SignalSource(toggle_period_us=7, sequences=3, sequence_length_us=7),
        ],
        ids=["shipped", "idle-tail", "one-per-sequence"],
    )
    def test_any_block_matches_the_grid(self, source):
        grid = ref.toggle_times(source)
        assert source.toggles == len(grid)
        np.testing.assert_array_equal(toggle_times(source), grid)
        rnd = random.Random(source.toggles)
        for _ in range(50):
            first = rnd.randrange(len(grid))
            n = rnd.randint(1, len(grid) - first)
            np.testing.assert_array_equal(toggle_times(source, first, n), grid[first:first + n])


class TestRun:
    def test_toggle_counting(self):
        sc = small_scenario(sequences=1, sequence_length_us=5_000_000)
        result = run(sc, seed=1)
        assert result.toggles == 25
        assert result.end_to_end.count == 25
        assert result.losses == 0

    def test_sample_count_is_toggles_minus_losses(self):
        sc = small_scenario(sequences=4)
        sc.segments["air"].transfer = IolwTransferModel(
            completion_offset_us=667, per_subcycle_error_prob=0.55, max_attempts=2
        )
        result = run(sc, seed=3)
        assert result.losses > 0
        assert result.end_to_end.count == result.toggles - result.losses

    def test_replay_is_identical(self):
        sc = small_scenario(sequences=3)
        assert run(sc, seed=42) == run(sc, seed=42)

    def test_different_seeds_differ(self):
        sc = small_scenario(sequences=3)
        assert run(sc, seed=1) != run(sc, seed=2)

    def test_end_to_end_is_exact_sum_of_parts(self):
        sc = small_scenario(sequences=2)
        result = run(sc, seed=5)
        component_total = sum(s.total_us for s in result.segment_stats.values())
        assert component_total == result.end_to_end.total_us

    def test_segment_means_track_model_means(self):
        sc = small_scenario(sequences=40)
        result = run(sc, seed=6)
        # constant models: the recorded samples are exactly the constants
        assert result.segment_stats["eth"].mean_us == 1200
        assert result.segment_stats["wire"].mean_us == 700
        # structural components add waits on top of pure link delays
        assert result.segment_stats["poll_wait"].max_us < sc.plc.query_cycle_us
        assert result.segment_stats["plc"].min_us > sc.plc.task_cycle_us - 1

    def test_removing_plc_reduces_every_sample_by_a_task_cycle(self):
        sc = small_scenario()
        diagnostic = dataclasses.replace(sc, forward=[s for s in sc.forward if s != "plc"])
        t0 = np.arange(0, 1_000_000, 37_003, dtype=np.int64)
        totals = []
        for scenario in (sc, diagnostic):
            *_, rngs = scenario_mod._start(scenario, 9)
            parts, lost_at = trace_matrix(scenario, t0, 1234, 1700, rngs)
            assert (lost_at < 0).all()
            totals.append(parts.sum(axis=0))
        full, diag = totals
        assert (full - diag >= sc.plc.task_cycle_us).all()

    def test_duration_past_int32_range_is_recorded_exactly(self):
        # 3 000 toggles of 2**52 us: a block's int64 sum would wrap
        for big in (2**31 + 5, 2**52):
            sc = small_scenario(sequences=600)
            sc.segments["eth"].model = Constant(big)
            result = run(sc, seed=1)
            eth = result.segment_stats["eth"]
            assert eth.min_us == eth.max_us == big
            assert eth.total_us == eth.count * big == 2 * result.toggles * big
            component_total = sum(s.total_us for s in result.segment_stats.values())
            assert result.end_to_end.total_us == component_total
            assert result.end_to_end.mean_us > 2 * big

    def test_peak_memory_does_not_grow_with_the_path(self, default_scenario):
        longer = dataclasses.replace(
            default_scenario,
            forward=default_scenario.forward[:-1]
            + 3 * ["eth_shop", "nr_up", "nr_down", "eth_edge"]
            + default_scenario.forward[-1:],
        )
        assert len(longer.components()) == len(default_scenario.components()) + 12
        peaks = []
        for sc in (default_scenario, longer):
            run(sc, seed=1)  # leaves out numpy's one-time allocations
            tracemalloc.start()
            try:
                run(sc, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a run holds O(toggles), not a (components x toggles) matrix
        assert peaks[1] <= 1.1 * peaks[0]

    def test_loss_increments_segment_counter(self):
        sc = small_scenario()
        sc.segments["air"].transfer = IolwTransferModel(
            completion_offset_us=0, per_subcycle_error_prob=1.0, max_attempts=3
        )
        result = run(sc, seed=1)
        assert result.losses == result.toggles == sc.source.toggles
        assert result.end_to_end.count == 0
        assert result.segment_stats["air"].losses == result.toggles

    def test_segments_that_draw_keep_their_stream_ids(self, default_scenario):
        # one stream per stage, none for a Grid (the poll wait and the plc
        # segment), which draws nothing; every traversal of a segment is on
        # stream 1 + its sorted index ("wire" sorts after "plc"), advanced by
        # the toggles of the traversals before it: a copy whose return path
        # ends in a third eth_edge reads that stream from output 2 * toggles on
        for extra, later in [([], 5), (["eth_edge"], 6)]:
            sc = dataclasses.replace(default_scenario, ret=default_scenario.ret + extra)
            _, stages, rngs = scenario_mod._start(sc, 7)
            components = sc.components()
            ids = sorted(sc.segments)
            assert "plc" in ids and components.count("wire") == 2
            # a link segment's stage is its model
            link = LatencyModel
            kinds = [link if isinstance(stage, link) else type(stage) for stage in stages]
            forward = [link, Air, Grid, link, link, link, link, Grid]
            assert kinds == forward + [link, link, link, link, Air, link] + [link] * len(extra)
            assert [rng is None for rng in rngs] == [kind is Grid for kind in kinds]
            traversals_before = []
            for i, (name, rng) in enumerate(zip(components, rngs)):
                if rng is None:
                    continue
                before = components[:i].count(name)
                stream = rng_stream(7, 1 + ids.index(name))
                stream.bit_generator.advance(before * sc.source.toggles)
                assert rng.bit_generator.state == stream.bit_generator.state, (extra, i, name)
                traversals_before.append(before)
            assert sum(before > 0 for before in traversals_before) == later, extra
            assert max(traversals_before) == 1 + len(extra)

    def test_a_link_stage_is_its_segments_model(self, default_scenario):
        # no wrapper between a link segment and its stage: stages() hands out
        # the segment's own model, so the loader's sharing carries over and
        # the four 5G traversals (nr_up and nr_down, twice each) are one object
        components = default_scenario.components()
        links = 0
        for name, stage in zip(components, default_scenario.stages()):
            seg = default_scenario.segments.get(name)
            if seg is not None and seg.model is not None:
                assert stage is seg.model, name
                links += 1
        assert links == 10
        stages = default_scenario.stages()
        nr = [stages[i] for i, name in enumerate(components) if name.startswith("nr_")]
        assert len(nr) == 4 and all(stage is nr[0] for stage in nr)

    def test_run_leaves_each_stream_where_the_layout_says(self, default_scenario, monkeypatch):
        # every draw takes one output: after a run the phase stream sits past
        # the two phases and one dither a toggle, a drawing traversal j at
        # (j + 1) * toggles, and a Constant link's stream where it started
        # (the small scenario's wire and eth)
        start, started = scenario_mod._start, []

        def capturing_start(scenario, seed):
            started.append(start(scenario, seed))
            return started[-1]

        monkeypatch.setattr(scenario_mod, "_start", capturing_start)

        def at(seed, stream, outputs):
            rng = rng_stream(seed, stream)
            rng.bit_generator.advance(outputs)
            return rng.bit_generator.state

        for sc in (small_scenario(sequences=7), default_scenario):
            started.clear()
            run(sc, seed=4)
            [(dither_rng, stages, rngs)] = started
            n, ids, components = sc.source.toggles, sorted(sc.segments), sc.components()
            assert dither_rng.bit_generator.state == at(4, 0, 2 + n)
            checked = 0
            for i, (name, stage, rng) in enumerate(zip(components, stages, rngs)):
                if rng is None:
                    continue
                draws = not isinstance(stage, Constant)
                outputs = (components[:i].count(name) + draws) * n
                assert rng.bit_generator.state == at(4, 1 + ids.index(name), outputs), (i, name)
                checked += 1
            assert checked == len([s for s in stages if not isinstance(s, Grid)])


def lossy_empirical_scenario(sequences: int) -> Scenario:
    """The lossy digest scenario: links crossed twice (a uniform Ethernet
    and two empirical 5G legs) and iolw-air hops at p = 0.3."""
    sc = load_scenario(LOSSY_EMPIRICAL)
    sc.source = dataclasses.replace(sc.source, sequences=sequences)
    return sc


# every sampler that draws; draw_retries also with the largest threshold
# table and with every transfer lost
ONE_OUTPUT_DRAWS = {
    "uniform": lambda rng, n: sample(Uniform(600, 2000), rng, n),
    "uniform-widest": lambda rng, n: sample(Uniform(0, 2**53 - 1), rng, n),
    "truncnorm": lambda rng, n: sample(TruncNormal(10_200.0, 3000.0, 5000, 26_750), rng, n),
    "empirical": lambda rng, n: sample(
        Empirical(((5000, 1.0), (5200, 3.0), (9000, 0.5))), rng, n
    ),
    "retries": lambda rng, n: draw_retries(n, IolwTransferModel(0, 0.3, 5), rng),
    "retries-max-attempts": lambda rng, n: draw_retries(
        n, IolwTransferModel(0, 0.99, MAX_ATTEMPTS), rng
    ),
    "retries-certain": lambda rng, n: draw_retries(n, IolwTransferModel(0, 1.0, 3), rng),
}


@pytest.mark.parametrize("n", [1, 1000])
@pytest.mark.parametrize("draw", ONE_OUTPUT_DRAWS.values(), ids=ONE_OUTPUT_DRAWS)
def test_each_value_takes_one_stream_output(draw, n):
    # so a stream drawn in blocks draws what it draws at once, and a later
    # traversal's stream, advanced past the earlier ones, overlaps none
    rng = rng_stream(4, 0)
    draw(rng, n)
    expected = rng_stream(4, 0)
    expected.bit_generator.advance(n)
    assert rng.random() == expected.random()


class TestBlocks:
    def test_blocks_draw_what_one_block_draws(self, monkeypatch):
        # mixed: 8 500 toggles, eight blocks of 1 000 and a short one, none
        # on a sequence boundary, every link crossed once and no hop losing;
        # lossy: 67 500 toggles, two blocks even at the default BLOCK, links
        # crossed twice and hops that lose
        mixed, lossy = mixed_scenario(), lossy_empirical_scenario(2700)
        wholes = [run(sc, seed=3) for sc in (mixed, lossy)]
        assert wholes == [ref.run_via_matrix(sc, seed=3) for sc in (mixed, lossy)]
        assert lossy.source.toggles > scenario_mod.BLOCK and wholes[1].losses > 0
        monkeypatch.setattr(scenario_mod, "BLOCK", 1000)
        assert [run(sc, seed=3) for sc in (mixed, lossy)] == wholes

    def test_peak_memory_does_not_grow_with_the_blocks(self, monkeypatch):
        # constant links: the histograms fill the same bins either way, so
        # the peaks compare the run's own buffers; blocks of 4 000 toggles
        # make those buffers, not the per-block temporaries (about 20 KB),
        # what the bound measures
        monkeypatch.setattr(scenario_mod, "BLOCK", 4000)
        peaks = []
        for blocks in (1, 8):
            sc = small_scenario(sequences=800 * blocks)  # five toggles a sequence
            run(sc, seed=1)
            tracemalloc.start()
            try:
                run(sc, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


def lossy_small_scenario(sequences: int) -> Scenario:
    """The small scenario with its iolw-air hop crossed once, not twice, and
    losing one transfer in eight."""
    sc = small_scenario(sequences=sequences)
    sc.segments["air"].transfer = IolwTransferModel(667, 0.5, max_attempts=3)
    sc.ret = ["eth", "wire"]
    return sc


class TestWorkspace:
    def test_warm_run_allocates_no_toggle_sized_buffer(self, default_scenario):
        run(default_scenario, seed=1)  # builds this thread's workspace
        tracemalloc.start()
        try:
            result = run(default_scenario, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a warm run's temporaries are gathers and integer draws, one or two
        # at a time; the workspace alone is eight toggle-sized arrays
        assert peak < 3 * 8 * result.toggles

    def test_interleaved_scenarios_keep_their_results(self, default_scenario):
        # the workspace is rebuilt for the other toggle count, then for a
        # third traversal, and kept for the two traversals after that
        lossy = lossy_small_scenario(sequences=7)
        more_air = dataclasses.replace(default_scenario, ret=default_scenario.ret + ["air_up"])
        first = {id(sc): run(sc, seed=2) for sc in (default_scenario, lossy, more_air)}
        assert first[id(lossy)].losses > 0
        for sc in (default_scenario, lossy, default_scenario, lossy, more_air, default_scenario):
            assert run(sc, seed=2) == first[id(sc)]

    def test_interleaved_sweeps_keep_their_results(self, default_scenario):
        lossy = lossy_small_scenario(sequences=7)
        seeds = [1, 2, 3, 4, 5]
        first = {id(sc): sweep(sc, seeds, parallel=3) for sc in (default_scenario, lossy)}
        for sc in (default_scenario, lossy):
            assert first[id(sc)].per_seed == tuple(run(sc, s) for s in seeds)
        for sc in (lossy, default_scenario, lossy):
            merged = sweep(sc, seeds, parallel=3)
            assert merged == first[id(sc)] and merged.per_seed == first[id(sc)].per_seed

    def test_concurrent_runs_keep_their_results(self, default_scenario):
        # run() is public API: callers on two threads at once, each with its
        # own scenario and seed, must not share buffers; equal toggle counts
        # and air traversals, so one shared workspace would fit both runs
        lossy = lossy_empirical_scenario(sequences=default_scenario.source.sequences)
        jobs = [(default_scenario, 3), (lossy, 8)]
        expected = [[run(sc, seed)] * 5 for sc, seed in jobs]
        barrier = threading.Barrier(len(jobs), timeout=60)
        got: list[list] = [[] for _ in jobs]

        def work(k):
            sc, seed = jobs[k]
            barrier.wait()
            got[k].extend(run(sc, seed) for _ in range(5))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside a run
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_run_raising_part_way_leaves_the_next_run_correct(self, monkeypatch):
        sc = small_scenario(sequences=3)
        expected = run(sc, seed=4)

        def negative(self, rng, out, u):
            out.fill(-1)
            return out

        with monkeypatch.context() as m:
            m.setattr(Constant, "sample", negative)
            with pytest.raises(ValueError, match=">= 0"):
                run(sc, seed=4)
        assert run(sc, seed=4) == expected


class TestSweep:
    def test_single_seed_sweep_equals_run(self):
        sc = small_scenario(sequences=2)
        assert sweep(sc, [7]) == run(sc, 7)

    def test_per_seed_results_come_sorted_by_seed(self):
        sc = small_scenario(sequences=2)
        merged = sweep(sc, [3, 1, 2], parallel=2)
        assert merged.per_seed == (run(sc, 1), run(sc, 2), run(sc, 3))

    def test_order_independent(self):
        sc = small_scenario(sequences=2)
        a = sweep(sc, [1, 2, 3])
        b = sweep(sc, [3, 1, 2])
        c = sweep(sc, [2, 3, 1])
        assert a == b == c

    def test_split_budget_preserves_sample_count(self):
        whole = small_scenario(sequences=8)
        quarter = small_scenario(sequences=2)
        merged = sweep(quarter, [1, 2, 3, 4])
        assert merged.toggles == run(whole, 1).toggles

    def test_results_of_different_scenarios_do_not_merge(self):
        sc = small_scenario(sequences=2)
        more_air = dataclasses.replace(sc, ret=sc.ret + ["air"])
        with pytest.raises(ValueError, match="different scenarios"):
            run(sc, 1).merge(run(more_air, 1))

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_scenario(), [])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            sweep(small_scenario(), [1, 1])
        with pytest.raises(ValueError, match="distinct"):
            sweep(small_scenario(), [3, 1, 2, 1], parallel=2)

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_parallel_below_one_rejected(self, parallel):
        with pytest.raises(ValueError, match="parallel"):
            sweep(small_scenario(), [1, 2], parallel=parallel)

    def test_parallel_matches_serial(self, monkeypatch):
        # the seeds run one after another on the calling thread, whatever
        # parallel asks for
        sc = small_scenario(sequences=2)
        serial = sweep(sc, [5, 1, 4, 2, 3], parallel=1)

        def refuse(self):
            raise AssertionError("sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for parallel in (2, 4, 8):
            merged = sweep(sc, [5, 1, 4, 2, 3], parallel=parallel)
            assert merged == serial and merged.per_seed == serial.per_seed


class TestDominance:
    def test_sum_of_component_maxima_bounds_max_sample(self):
        rnd = random.Random(2024)
        for i in range(20):
            sc = random_scenario(rnd)
            result = run(sc, seed=i)
            if result.end_to_end.count == 0:
                continue
            assert result.observed_worst_case_us() >= result.end_to_end.max_us

    def test_observed_maxima_within_derived_bounds(self):
        # each component stays within the largest bound among its
        # traversals, and a toggle within the sum of all of them: the
        # bounds the loader holds the [safety] budgets to
        rnd = random.Random(25)
        for sc in [random_scenario(rnd) for _ in range(30)] + [mixed_scenario()]:
            result = run(sc, seed=1)
            bounds: dict[str, int] = {}
            stage_bounds = [stage.upper_bound_us() for stage in sc.stages()]
            for name, bound in zip(sc.components(), stage_bounds):
                bounds[name] = max(bounds.get(name, 0), bound)
            for name, stats in result.segment_stats.items():
                assert stats.max_us is None or stats.max_us <= bounds[name], (name, sc)
            assert result.end_to_end.max_us <= sum(stage_bounds), sc


# Acceptance 04 targets an end-to-end mean of 66.8 ms +/- 10 %, and the
# shipped scenario passes on that tolerance alone. Its mean over the clock
# phases (seeds 0-199, pooled) is 63 618 us, about 3.2 ms short, and no
# seed's mean reaches the target. The component means its comments state
# sum to 62.5 ms, so the gap is in no stated number: a known difference,
# not a parameter to tune. The per-seed means have an sd of 502 us.
ACCEPTANCE_04_TARGET_US = 66_800
KNOWN_E2E_MEAN_US = 63_618
KNOWN_E2E_GAP_US = 3_200
BETWEEN_SEED_SD_US = 502


def test_shipped_end_to_end_mean_is_a_known_difference_from_acceptance_04(default_scenario):
    seeds = list(range(200, 240))  # none of the seeds that gave the mean
    result = sweep(default_scenario, seeds)
    se = BETWEEN_SEED_SD_US / math.sqrt(len(seeds))
    mean = result.end_to_end.mean_us
    assert abs(mean - KNOWN_E2E_MEAN_US) <= 5 * se
    assert abs(ACCEPTANCE_04_TARGET_US - mean - KNOWN_E2E_GAP_US) <= 5 * se
    per_seed = [r.end_to_end.mean_us for r in result.per_seed]
    assert 0.9 * ACCEPTANCE_04_TARGET_US <= min(per_seed) <= max(per_seed) < ACCEPTANCE_04_TARGET_US
