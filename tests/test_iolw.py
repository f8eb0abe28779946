import random

import numpy as np
import pytest

from iolw5gsim.iolw import (
    MAX_ATTEMPTS,
    MAX_CHANNELS,
    MAX_SUBCYCLES,
    IolwCellConfig,
    IolwTransferModel,
    residual_error_prob,
    validate_cell,
)
from iolw5gsim.kernel import rng_stream
from tests.fresh import draw_retries, stages, transfer_latencies
from tests.scalar_reference import mean_boundary_wait_us, usable_channels

CELL = IolwCellConfig()
WAIT_MODEL = IolwTransferModel(completion_offset_us=667)


def air(model, cell=CELL, phase=0):
    """The Air stage of a hop's plan step, placed on phase."""
    return stages(cell, transfer=model, iolw_phase=phase)[0]


def next_subcycle_start(t, cell=CELL):
    """Earliest sub-cycle boundary >= t, as transfer_latencies places a
    transfer's first attempt: its latency without the completion offset."""
    t = np.atleast_1d(t)
    latency = transfer_latencies(t, np.zeros(t.shape, dtype=np.intp), WAIT_MODEL, cell)
    return t + latency - WAIT_MODEL.completion_offset_us


def boundary_set(cell, t_max):
    """Brute-force oracle: all sub-cycle boundaries up to t_max."""
    out = []
    k = 0
    while k * cell.cycle_us <= t_max:
        for j in range(cell.subcycles_per_cycle):
            b = k * cell.cycle_us + j * cell.subcycle_us
            if b <= t_max:
                out.append(b)
        k += 1
    return out


class TestValidateCell:
    def test_full_cell_is_ok_at_120_devices(self):
        cfg = IolwCellConfig(masters=3, tracks_per_master=5, slots_per_track=8)
        assert validate_cell(cfg) == []
        assert validate_cell(cfg._replace(devices=120)) == []
        assert cfg.capacity == 120

    # the largest topology holds exactly 120 devices, so a cell cannot
    # exceed the limit except through `devices`
    @pytest.mark.parametrize(
        "masters, expected",
        [
            (3, ["devices 121 exceed cell capacity 120", "devices must be <= 120, got 121"]),
            (4, ["masters must be 1..3, got 4", "devices must be <= 120, got 121"]),
        ],
        ids=["full-topology", "four-masters"],
    )
    def test_devices_past_120_violate(self, masters, expected):
        cfg = IolwCellConfig(masters=masters, tracks_per_master=5, slots_per_track=8, devices=121)
        assert validate_cell(cfg) == expected

    def test_six_tracks_violates(self):
        cfg = IolwCellConfig(masters=1, tracks_per_master=6)
        assert any("tracks_per_master" in v for v in validate_cell(cfg))

    def test_zero_slots_violates(self):
        cfg = IolwCellConfig(masters=1, tracks_per_master=1, slots_per_track=0)
        assert any("slots_per_track" in v for v in validate_cell(cfg))

    def test_devices_beyond_capacity_violates(self):
        cfg = IolwCellConfig(masters=1, tracks_per_master=1, slots_per_track=8, devices=9)
        assert any("capacity" in v for v in validate_cell(cfg))

    def test_subcycles_must_fit_cycle(self):
        cfg = IolwCellConfig(cycle_us=4000, subcycle_us=1664, subcycles_per_cycle=3)
        assert any("do not fit" in v for v in validate_cell(cfg))

    def test_subcycle_count_ceiling(self):
        # the slot tables hold subcycles_per_cycle + max_attempts entries
        cfg = IolwCellConfig(cycle_us=10**6, subcycle_us=1, subcycles_per_cycle=MAX_SUBCYCLES)
        assert validate_cell(cfg) == []
        assert validate_cell(cfg._replace(subcycles_per_cycle=MAX_SUBCYCLES + 1)) == [
            f"subcycles_per_cycle must be <= 1000, got {MAX_SUBCYCLES + 1}"
        ]


class TestNextSubcycleStart:
    def test_zero_is_a_boundary(self):
        assert next_subcycle_start(0).tolist() == [0]

    def test_mid_first_subcycle(self):
        assert next_subcycle_start(100).tolist() == [1664]

    def test_after_last_subcycle_rolls_to_next_cycle(self):
        # 3 * 1664 = 4992 < 5000, so 4993 waits for the next cycle start
        assert next_subcycle_start(4993).tolist() == [5000]

    def test_matches_brute_force_enumeration(self):
        boundaries = boundary_set(CELL, 30_000)
        t = np.arange(0, 20_000, 7)
        expected = [min(b for b in boundaries if b >= x) for x in t.tolist()]
        assert next_subcycle_start(t).tolist() == expected

    def test_wait_bounded_by_cycle(self):
        t = np.arange(0, 2 * CELL.cycle_us)
        wait = next_subcycle_start(t) - t
        assert ((0 <= wait) & (wait < CELL.cycle_us)).all()
        early = t % CELL.cycle_us < (CELL.subcycles_per_cycle - 1) * CELL.subcycle_us
        assert (wait[early] < CELL.subcycle_us).all()


def draw_latencies(t, model, rng):
    """Latencies and losses of transfers starting at t."""
    retries, lost = draw_retries(len(t), model, rng)
    return transfer_latencies(t, retries, model, CELL), lost


class TestTransferLatency:
    def test_on_boundary_no_errors_gives_completion_offset(self):
        model = IolwTransferModel(completion_offset_us=667)
        latency, lost = draw_latencies(np.array([0, 1664]), model, rng_stream(1, 0))
        assert latency.tolist() == [667, 667]
        assert not lost.any()

    def test_kernel_maps_cycle_waits_to_latencies(self):
        # t 0, on a cycle start (wait 0), rides that start's slot; t 1, 1 us
        # past it (wait 4 999), the sub-cycle at 1 664 us; durations writes
        # into out and returns it
        t = np.array([0, 1, 0], dtype=np.int64)
        retries = np.array([0, 0, 1], dtype=np.intp)
        out = np.empty_like(t)
        assert air(WAIT_MODEL).durations(t, retries, out, np.empty_like(t), None) is out
        assert out.tolist() == [667, 2330, 2331]

    def test_certain_error_always_loses(self):
        model = IolwTransferModel(
            completion_offset_us=0, per_subcycle_error_prob=1.0, max_attempts=3
        )
        _, lost = draw_latencies(np.arange(0, 5000, 97), model, rng_stream(1, 0))
        assert lost.all()

    def test_retransmission_rides_following_boundaries(self):
        # with a high error probability many transfers succeed only on a
        # retry; every success must still land on a sub-cycle boundary
        model = IolwTransferModel(
            completion_offset_us=0, per_subcycle_error_prob=0.9, max_attempts=3
        )
        t = np.arange(0, 10_000, 211)
        latency, lost = draw_latencies(t, model, rng_stream(5, 0))
        boundaries = boundary_set(CELL, 40_000)
        assert set((t + latency)[~lost].tolist()) <= set(boundaries)
        assert (latency[~lost] >= next_subcycle_start(t)[~lost] - t[~lost]).all()

    def test_deterministic_in_arrival_phase_without_errors(self):
        model = IolwTransferModel(completion_offset_us=667)
        t = np.arange(0, 5000, 13)
        a, _ = draw_latencies(t, model, rng_stream(1, 0))
        b, _ = draw_latencies(t + 3 * CELL.cycle_us, model, rng_stream(2, 0))
        assert (a == b).all()

    def test_max_attempts_ceiling(self):
        cell = IolwCellConfig()
        assert IolwTransferModel(0, 0.5, MAX_ATTEMPTS).validate(cell) == []
        assert IolwTransferModel(0, 0.5, MAX_ATTEMPTS + 1).validate(cell) == [
            f"max_attempts must be 1..{MAX_ATTEMPTS}, got {MAX_ATTEMPTS + 1}"
        ]

    def test_upper_bound_is_the_largest_latency_over_one_cycle(self):
        # k - 1 retries at every offset into one cycle of small random cells,
        # or none on a hop with error_prob = 0, which never retries; the
        # bound does not depend on the cell's phase
        assert air(IolwTransferModel(667, 0.001, 3)).upper_bound_us() == 5666  # the shipped hop
        assert air(IolwTransferModel(667, 0.0, 3)).upper_bound_us() == 2338
        rnd = random.Random(7)
        for _ in range(300):
            per_cycle, sub = rnd.randint(1, 4), rnd.randint(1, 6)
            cell = IolwCellConfig(
                cycle_us=per_cycle * sub + rnd.randint(0, 8),
                subcycles_per_cycle=per_cycle, subcycle_us=sub,
            )
            p = rnd.choice((0.0, 0.5))
            model = IolwTransferModel(rnd.randrange(sub), p, rnd.randint(1, 7))
            t = np.arange(cell.cycle_us)
            retries = np.full(len(t), model.max_attempts - 1 if p else 0, dtype=np.intp)
            worst = int(transfer_latencies(t, retries, model, cell).max())
            phase = rnd.randrange(cell.cycle_us)
            assert air(model, cell, phase).upper_bound_us() == worst, (cell, model, phase)

    def test_mean_over_uniform_arrivals_matches_enumeration_oracle(self):
        model = IolwTransferModel(completion_offset_us=667)
        draws = rng_stream(3, 0).integers(0, CELL.cycle_us, size=100_000)
        latency, _ = draw_latencies(draws, model, rng_stream(3, 1))
        expected = mean_boundary_wait_us(CELL) + 667
        assert latency.mean() == pytest.approx(expected, rel=0.01)


class TestResidualErrorProb:
    def test_zero_error_prob(self):
        assert residual_error_prob(0.0, 3) == 0.0

    def test_certain_error(self):
        assert residual_error_prob(1.0, 3) == 1.0

    def test_power_law(self):
        assert residual_error_prob(1e-3, 3) == pytest.approx(1e-9, abs=1e-24)

    def test_monotone_in_p_and_k(self):
        probs = [residual_error_prob(p / 10, 3) for p in range(11)]
        assert probs == sorted(probs)
        by_k = [residual_error_prob(0.3, k) for k in range(1, 6)]
        assert by_k == sorted(by_k, reverse=True)

    @pytest.mark.parametrize(
        "p, k, message",
        [(1.5, 3, "error_prob must be within"), (0.1, 0, "max_attempts must be >= 1")],
        ids=["p-above-1", "no-attempts"],
    )
    def test_bad_arguments_rejected(self, p, k, message):
        with pytest.raises(ValueError, match=message):
            residual_error_prob(p, k)


class TestHopPlan:
    """A hop plan exists iff usable_channels finds at least two channels."""

    def test_single_allowed_channel_is_infeasible(self):
        assert usable_channels(40, set(range(39)), 0) == []
        assert usable_channels(40, set(range(38)), 0) == [38, 39]

    def test_infeasible_distance_raises(self):
        # the loader raises on such a cell; no two of 10 channels are 15 apart
        assert usable_channels(10, set(), 15) == []
        assert usable_channels(16, set(), 15) == [0, 15]

    def test_validate_cell_verdict_matches_enumeration(self):
        rnd = random.Random(5)
        for channels in range(1, MAX_CHANNELS + 1):
            # no channel blocked, a random share blocked, and all but a few
            blocklists = [frozenset()] + [
                frozenset(rnd.sample(range(channels), rnd.randint(lo, channels)))
                for lo in (channels // 2, max(channels - 3, 0))
            ]
            for blocklist in blocklists:
                for distance in range(MAX_CHANNELS + 2):
                    cfg = IolwCellConfig(
                        channel_count=channels, blocklist=blocklist, min_hop_distance=distance
                    )
                    infeasible = any("no valid hop pair" in v for v in validate_cell(cfg))
                    assert infeasible == (len(usable_channels(channels, blocklist, distance)) < 2)


def test_mean_boundary_wait_oracle_value():
    # direct enumeration: two 1664 us gaps and one closing 1672 us gap
    expected = (sum(range(1, 1664)) * 2 + sum(range(1, 1672))) / 5000
    assert mean_boundary_wait_us(CELL) == pytest.approx(expected, abs=1e-9)


def test_monte_carlo_wait_converges_to_enumeration():
    rng = rng_stream(11, 0)
    draws = rng.integers(0, CELL.cycle_us, size=100_000)
    mc = (next_subcycle_start(draws) - draws).mean()
    assert mc == pytest.approx(mean_boundary_wait_us(CELL), rel=0.01)
