import dataclasses
import random

import numpy as np
import pytest

from iolw5gsim.kernel import rng_stream
from iolw5gsim.plc import PlcConfig
from tests.fresh import align_to_task_cycle, grid_wait, next_poll

CFG = PlcConfig()  # 5 ms task cycle, 10 ms query cycle


class TestAlignToTaskCycle:
    def test_arrival_on_cycle_start_completes_one_cycle_later(self):
        assert align_to_task_cycle(0, CFG) == 5000

    def test_arrival_just_after_start_waits_an_extra_cycle(self):
        assert align_to_task_cycle(100, CFG) == 10_000

    def test_off_boundary_delay_in_one_to_two_cycles(self):
        for arrival in range(1, 3 * CFG.task_cycle_us, 7):
            delay = align_to_task_cycle(arrival, CFG) - arrival
            if arrival % CFG.task_cycle_us == 0:
                assert delay == CFG.task_cycle_us
            else:
                assert CFG.task_cycle_us < delay <= 2 * CFG.task_cycle_us

    def test_mean_added_delay_uniform_arrivals(self):
        rng = rng_stream(1, 0)
        arrivals = rng.integers(0, CFG.task_cycle_us, size=100_000)
        mean = (align_to_task_cycle(arrivals, CFG) - arrivals).mean()
        assert mean == pytest.approx(1.5 * CFG.task_cycle_us, abs=100)

    def test_completions_non_decreasing_in_arrival(self):
        completions = [align_to_task_cycle(a, CFG) for a in range(0, 20_000, 3)]
        assert completions == sorted(completions)

    def test_phase_offset_shifts_grid(self):
        assert align_to_task_cycle(1000, CFG, phase=1000) == 6000
        assert align_to_task_cycle(1001, CFG, phase=1000) == 11_000

    def test_jitter_delays_every_publication(self):
        assert align_to_task_cycle(100, PlcConfig(jitter_us=300)) == 10_300

    def test_query_cycle_must_be_multiple_of_task_cycle(self):
        assert PlcConfig(task_cycle_us=5000, query_cycle_us=12_000).validate()
        assert PlcConfig(task_cycle_us=5000, query_cycle_us=10_000).validate() == []


class TestPolling:
    def test_change_at_poll_time_is_picked_up_by_that_poll(self):
        assert next_poll(10_000, CFG) == 10_000

    def test_change_between_polls_waits(self):
        assert next_poll(10_001, CFG) == 20_000

    def test_pickup_wait_bounded_by_query_cycle(self):
        for t in range(0, 50_000, 11):
            wait = next_poll(t, CFG) - t
            assert 0 <= wait < CFG.query_cycle_us

    def test_mean_pickup_wait_uniform_changes(self):
        rng = rng_stream(2, 0)
        changes = rng.integers(0, CFG.query_cycle_us, size=100_000)
        mean = (next_poll(changes, CFG) - changes).mean()
        assert mean == pytest.approx(CFG.query_cycle_us / 2, abs=100)

    def test_poll_grid_respects_phase(self):
        t = np.array([0, 3000, 3001, 13_000, 23_000])
        assert next_poll(t, CFG, phase=3000).tolist() == [3000, 3000, 13_000, 13_000, 23_000]


class TestDerivedBounds:
    def test_largest_waits_over_one_period_are_the_derived_bounds(self, default_scenario):
        # at the phases a run draws, below the task cycle: the poll wait's
        # bound is the kernel's largest wait on the query grid, the plc's
        # the largest on the task grid plus the task cycle and jitter
        rnd = random.Random(11)
        for _ in range(200):
            task = rnd.randint(1, 2000)
            cfg = PlcConfig(task, task * rnd.randint(1, 4), rnd.randint(0, 500))
            phase = rnd.randrange(task)
            scenario = dataclasses.replace(default_scenario, plc=cfg)
            bounds = dict(zip(scenario.components(), scenario.upper_bounds_us()))
            start = rnd.randrange(10**6)
            poll = grid_wait(np.arange(start, start + cfg.query_cycle_us), cfg.query_cycle_us, phase)
            assert int(poll.max()) == bounds["poll_wait"], (cfg, phase)
            wait = grid_wait(np.arange(start, start + task), task, phase)
            assert int(wait.max()) + task + cfg.jitter_us == bounds["plc"], (cfg, phase)
