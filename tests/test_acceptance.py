"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines.
"""

import json
import math
import random

import numpy as np
import pytest

from iolw5gsim.cli import default_scenario_path, main
from iolw5gsim.fiveg import NumerologyConfig, symbol_bandwidth_khz
from iolw5gsim.iolw import IolwCellConfig, IolwTransferModel, residual_error_prob, validate_cell
from iolw5gsim.kernel import rng_stream
from iolw5gsim.plc import PlcConfig
from iolw5gsim.scenario import run, sweep
from iolw5gsim.stats import LatencyStats, safety_distance, worst_case_sfrt
from tests.fresh import align_to_task_cycle, draw_retries, transfer_latencies
from tests.test_scenario import random_scenario, small_scenario


def verdict(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS: {text}")


def test_01_numerology_exactness():
    expected = {15: 180, 30: 360, 60: 720, 120: 1440, 240: 2880}
    for scs, bw in expected.items():
        got = symbol_bandwidth_khz(NumerologyConfig(scs))
        assert got == bw and isinstance(got, int)
    verdict(1, "symbol bandwidth is exactly 180/360/720/1440/2880 kHz for SCS 15..240")


def test_02_iolw_calibration(default_scenario):
    cell = default_scenario.cell
    shipped = default_scenario.segments["air_up"].transfer
    model = IolwTransferModel(
        completion_offset_us=shipped.completion_offset_us,
        per_subcycle_error_prob=0.0,
        max_attempts=shipped.max_attempts,
    )
    arrivals = rng_stream(202, 0).integers(0, cell.cycle_us, size=100_000)
    retries, _ = draw_retries(len(arrivals), model, rng_stream(202, 1))
    latency = transfer_latencies(arrivals, retries, model, cell)
    mean = latency.mean()
    assert abs(mean - 1500.0) <= 50.0
    verdict(2, f"mean wireless transfer latency {mean:.1f} us within 1500 +/- 50 us")


def test_03_plc_alignment_suite():
    cfg = PlcConfig()
    for arrival in range(0, 3 * cfg.task_cycle_us, 13):
        delay = align_to_task_cycle(arrival, cfg) - arrival
        if arrival % cfg.task_cycle_us == 0:
            assert delay == cfg.task_cycle_us
        else:
            assert cfg.task_cycle_us < delay <= 2 * cfg.task_cycle_us
    arrivals = rng_stream(303, 0).integers(0, cfg.task_cycle_us, size=100_000)
    mean = sum(
        align_to_task_cycle(int(a), cfg) - int(a) for a in arrivals
    ) / len(arrivals)
    assert abs(mean - 7500.0) <= 100.0
    verdict(3, f"task-cycle alignment in (5,10] ms off-boundary, mean {mean:.1f} us")


def test_04_end_to_end_reproduction(default_scenario):
    result = run(default_scenario, seed=1)
    assert result.toggles == 540 * 25
    mean_ms = result.end_to_end.mean_us / 1000
    assert abs(mean_ms - 66.8) <= 6.68
    p99 = result.end_to_end.percentile(99)
    assert p99 <= 99_000
    budget = worst_case_sfrt(default_scenario.safety)
    assert result.end_to_end.max_us <= budget
    verdict(
        4,
        f"end-to-end mean {mean_ms:.1f} ms (target 66.8 +/- 10%), "
        f"p99 {p99 / 1000:.1f} ms <= 99 ms, max {result.end_to_end.max_us / 1000:.1f} ms "
        f"<= worst case {budget / 1000:.1f} ms",
    )


def test_05_worst_case_calculus(default_scenario):
    sfrt = worst_case_sfrt(default_scenario.safety)
    assert sfrt == 149_600
    d = safety_distance(sfrt, 2.0)
    assert d.exact_m == pytest.approx(0.2992, abs=1e-12)
    assert d.presented_m == pytest.approx(0.3)
    verdict(5, "worst-case SFRT 149.6 ms; safety distance 0.2992 m, presented 0.3 m")


def test_06_dominance_property():
    rnd = random.Random(606)
    checked = 0
    for i in range(100):
        sc = random_scenario(rnd)
        result = run(sc, seed=i)
        if result.end_to_end.count == 0:
            continue
        assert result.observed_worst_case_us() >= result.end_to_end.max_us
        checked += 1
    assert checked >= 90
    verdict(6, f"sum of component maxima >= max end-to-end sample on {checked} random scenarios")


def test_07_determinism(tmp_path):
    config = str(default_scenario_path())
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "run", config, "--seed", "9", "--out", str(out), "--deterministic",
        ]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]

    sc = small_scenario(sequences=2)
    seeds = [4, 5, 6]
    merged = [sweep(sc, list(order)) for order in ([4, 5, 6], [6, 4, 5], [5, 6, 4])]
    assert merged[0] == merged[1] == merged[2]
    blobs = {
        json.dumps(
            {n: s.bins for n, s in m.segment_stats.items()}, sort_keys=True
        )
        for m in merged
    }
    assert len(blobs) == 1
    verdict(7, "deterministic reports byte-identical; sweep merge order-independent")


def test_08_residual_error():
    r = residual_error_prob(1e-3, 3)
    assert abs(r - 1e-9) <= math.ulp(1e-9)
    n = 1_000_000
    draws = rng_stream(808, 0).random((n, 3))
    losses = int((draws < 0.3).all(axis=1).sum())
    p_hat = losses / n
    sigma = math.sqrt(0.027 * (1 - 0.027) / n)
    assert abs(p_hat - 0.027) <= 3 * sigma
    verdict(8, f"residual error 1e-9 within 1 ulp; MC estimate {p_hat:.5f} vs 0.027")


def test_09_capacity_gate():
    cases = [
        (IolwCellConfig(masters=3, tracks_per_master=5, slots_per_track=8), True),
        (IolwCellConfig(masters=4, tracks_per_master=5, slots_per_track=8), False),
        (IolwCellConfig(masters=3, tracks_per_master=5, slots_per_track=8,
                        devices=120), True),
        (IolwCellConfig(masters=3, tracks_per_master=6, slots_per_track=8), False),
        (IolwCellConfig(masters=3, tracks_per_master=5, slots_per_track=9), False),
        (IolwCellConfig(masters=1, tracks_per_master=1, slots_per_track=1), True),
    ]
    for cfg, ok in cases:
        assert (validate_cell(cfg) == []) is ok
    verdict(9, "all capacity boundary configs accept/reject per the 120-device limits")


def test_10_statistics_merge():
    rng = np.random.default_rng(1010)
    values = [int(v) for v in rng.integers(0, 150_000, size=20_000)]
    whole = LatencyStats()
    for v in values:
        whole.add(v)
    parts = []
    for chunk in np.array_split(np.array(values), 10):
        s = LatencyStats()
        for v in chunk:
            s.add(int(v))
        parts.append(s)
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    assert merged.count == whole.count
    assert merged.min_us == whole.min_us
    assert merged.max_us == whole.max_us
    assert merged.bins == whole.bins
    assert abs(merged.mean_us - whole.mean_us) < 1.0
    verdict(10, "10-way partition merges to whole-set statistics exactly")
