import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from iolw5gsim.config import load_scenario
from iolw5gsim.fiveg import Constant, Empirical, TruncNormal, Uniform
from iolw5gsim.iolw import IolwCellConfig, IolwTransferModel
from iolw5gsim.kernel import rng_stream
from iolw5gsim import scenario as scenario_mod
from iolw5gsim.plc import PlcConfig
from iolw5gsim.scenario import (
    Scenario,
    SegmentSpec,
    SignalSource,
    run,
    sweep,
)
from iolw5gsim.stats import SafetyParams
from tests import scalar_reference as ref
from tests.fresh import toggle_times
from tests.scalar_reference import trace_matrix
from tests.test_config import MINIMAL


def small_scenario(**source_kw):
    sc = load_scenario(MINIMAL)
    if source_kw:
        sc.source = dataclasses.replace(sc.source, **source_kw)
    return sc


def random_scenario(rnd: random.Random) -> Scenario:
    """Structurally valid scenario with randomized models and paths."""
    cell = IolwCellConfig()
    segments = {
        "wire": SegmentSpec("wire", "iol-wire", model=Uniform(
            rnd.randrange(0, 500), rnd.randrange(500, 2000))),
        "air": SegmentSpec("air", "iolw-air", transfer=IolwTransferModel(
            completion_offset_us=rnd.randrange(0, 1664),
            per_subcycle_error_prob=rnd.choice([0.0, 0.001, 0.05]),
            max_attempts=3)),
        "eth": SegmentSpec("eth", "ethernet", model=TruncNormal(
            float(rnd.randrange(500, 3000)), float(rnd.randrange(1, 500)),
            0, 6000)),
        "nr": SegmentSpec("nr", "fiveg", model=TruncNormal(
            float(rnd.randrange(2000, 15_000)), float(rnd.randrange(100, 4000)),
            1000, 40_000)),
        "plc": SegmentSpec("plc", "plc"),
    }
    return Scenario(
        cell=cell,
        segments=segments,
        forward=["wire", "air", "eth", "nr", "nr", "eth", "plc"],
        ret=["eth", "nr", "nr", "eth", "air", "wire"],
        source=SignalSource(
            toggle_period_us=100_000, sequences=1, sequence_length_us=1_000_000,
            dither_us=50_000,
        ),
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
    segments = {sid: SegmentSpec(sid, kind, model=model) for sid, (kind, model) in links.items()}
    segments.update({
        "air_up": SegmentSpec("air_up", "iolw-air", transfer=air),
        "air_down": SegmentSpec("air_down", "iolw-air", transfer=air),
        "plc": SegmentSpec("plc", "plc"),
    })
    return Scenario(
        cell=IolwCellConfig(),
        segments=segments,
        forward=["wire", "air_up", "eth", "nr_up", "plc"],
        ret=["nr_down", "air_down"],
        source=SignalSource(
            toggle_period_us=300_000, sequences=sequences, sequence_length_us=5_200_000,
            dither_us=10_000,
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
        plc_cfg = dataclasses.replace(sc.plc, phase_us=1700)
        diagnostic = dataclasses.replace(sc, forward=[s for s in sc.forward if s != "plc"])
        t0 = np.arange(0, 1_000_000, 37_003, dtype=np.int64)
        totals = []
        for scenario in (sc, diagnostic):
            rngs = {sid: rng_stream(9, i) for i, sid in enumerate(sorted(sc.segments))}
            parts, lost_at = trace_matrix(scenario, t0, plc_cfg, 1234, rngs)
            assert (lost_at < 0).all()
            totals.append(parts.sum(axis=0))
        full, diag = totals
        assert (full - diag >= sc.plc.task_cycle_us).all()

    def test_duration_past_int32_range_is_recorded_exactly(self):
        sc = small_scenario()
        big = 2**31 + 5
        sc.segments["eth"].model = Constant(big)
        result = run(sc, seed=1)
        eth = result.segment_stats["eth"]
        assert eth.min_us == eth.max_us == big
        assert eth.total_us == eth.count * big
        component_total = sum(s.total_us for s in result.segment_stats.values())
        assert result.end_to_end.total_us == component_total

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
        assert result.losses == result.toggles
        assert result.end_to_end.count == 0
        assert result.segment_stats["air"].losses == result.toggles


class TestBlocks:
    def test_blocks_draw_what_one_block_draws(self, monkeypatch):
        # 8 500 toggles: eight blocks of 1 000 and a short one, none on a
        # sequence boundary; every link is crossed once and no hop loses, so
        # each stream is drawn in one order whatever the blocks
        sc = mixed_scenario()
        whole = run(sc, seed=3)
        assert whole == ref.run_via_matrix(sc, seed=3)
        monkeypatch.setattr(scenario_mod, "BLOCK", 1000)
        assert run(sc, seed=3) == whole

    def test_peak_memory_does_not_grow_with_the_blocks(self, monkeypatch):
        # constant links: the histograms fill the same bins either way, so
        # the peaks compare the run's own buffers
        monkeypatch.setattr(scenario_mod, "BLOCK", 1000)
        peaks = []
        for blocks in (1, 8):
            sc = small_scenario(sequences=200 * blocks)  # five toggles a sequence
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

    def test_interleaved_threaded_sweeps_keep_their_results(self, default_scenario, monkeypatch):
        monkeypatch.setattr(scenario_mod.os, "cpu_count", lambda: 8)
        lossy = lossy_small_scenario(sequences=7)
        seeds = [1, 2, 3, 4, 5]
        first = {id(sc): sweep(sc, seeds, parallel=3) for sc in (default_scenario, lossy)}
        for sc in (default_scenario, lossy):
            assert first[id(sc)].per_seed == tuple(run(sc, s) for s in seeds)
        for sc in (lossy, default_scenario, lossy):
            merged = sweep(sc, seeds, parallel=3)
            assert merged == first[id(sc)] and merged.per_seed == first[id(sc)].per_seed

    def test_run_raising_part_way_leaves_the_next_run_correct(self, monkeypatch):
        sc = small_scenario(sequences=3)
        expected = run(sc, seed=4)

        def negative(self, rng, out, u, mask):
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
        # enough CPUs that every pool size below is used as asked
        monkeypatch.setattr(scenario_mod.os, "cpu_count", lambda: 8)
        sc = small_scenario(sequences=2)
        assert sweep(sc, [1, 2], parallel=2) == sweep(sc, [1, 2], parallel=1)
        # the calling thread's share and the pool's, for several pool sizes
        serial = sweep(sc, [1, 2, 3, 4, 5], parallel=1)
        for parallel in (2, 3, 8):
            merged = sweep(sc, [1, 2, 3, 4, 5], parallel=parallel)
            assert merged == serial and merged.per_seed == serial.per_seed

    def test_threads_capped_at_cpu_count(self, monkeypatch):
        requested, started = [], []

        class RecordingPool(scenario_mod.ThreadPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers=min(max_workers, 1))

            def shutdown(self, *args, **kwargs):
                started.append(len(self._threads))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(scenario_mod.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(scenario_mod, "ThreadPoolExecutor", RecordingPool)
        sc = small_scenario(sequences=2)
        seeds = [1, 2, 3, 4, 5, 6]
        assert sweep(sc, seeds, parallel=10**6) == sweep(sc, seeds)
        # two CPUs: the calling thread and one pool thread; the serial sweep
        # builds a pool too, but hands it no seed, so it starts no thread
        assert requested == [1, 1]
        assert started == [1, 0]
        sweep(sc, [1], parallel=2)
        assert requested[-1] == 1 and started[-1] == 0


class TestDominance:
    def test_sum_of_component_maxima_bounds_max_sample(self):
        rnd = random.Random(2024)
        for i in range(20):
            sc = random_scenario(rnd)
            result = run(sc, seed=i)
            if result.end_to_end.count == 0:
                continue
            assert result.observed_worst_case_us() >= result.end_to_end.max_us
