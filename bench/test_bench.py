"""Tests of the benchmark itself: run with ``python3 -m pytest -q bench``."""

import json
import pickle

import numpy as np
import pytest

import run as bench
import workloads
from tracer import Tracer, self_times

import iolw5gsim.config
import iolw5gsim.kernel
import iolw5gsim.scenario
from iolw5gsim.config import load_scenario
from iolw5gsim.report import build_report

SMALL = {"sequences = 540": "sequences = 8"}  # 200 toggles


def small_lossy(seed=7):
    text = workloads.lossy_scenario_text(seed)
    for old, new in SMALL.items():
        text = text.replace(old, new)
    return text, load_scenario(text)


def traced_run(scenario, seed=3):
    counters = dict.fromkeys(bench.COUNTERS, 0)
    tracer = Tracer()
    tracer.install(bench.entry_points(tracer, counters), bench.PACKAGE)
    tracer.active = True
    try:
        result = iolw5gsim.scenario.run(scenario, seed)
    finally:
        tracer.active = False
        tracer.uninstall()
    return tracer, counters, result


def test_self_time_subtracts_child_spans():
    # a[0,100] holds b[10,30] and c[40,90]; c holds d[50,60]
    names = np.array([0, 1, 2, 3])
    parents = np.array([-1, 0, 0, 2])
    dur = np.array([100, 20, 50, 10]) * 1e9
    totals = self_times(names, parents, dur, ["a", "b", "c", "d"])
    assert totals == {"a": (1, 30.0), "b": (1, 20.0), "c": (1, 40.0), "d": (1, 10.0)}


def test_traced_run_counts_every_layer_and_restores_the_package():
    original_transfer = iolw5gsim.scenario.transfer_latency
    _, scenario = small_lossy()
    tracer, counters, result = traced_run(scenario)
    layer = bench.layer_metrics(tracer.totals(), counters)
    assert tracer.absent == []
    assert layer["kernel.events"] == 2 * result.toggles
    assert layer["plc.poll_calls"] == result.toggles - result.segment_stats["air_up"].losses
    assert counters["lost"] == result.losses
    assert layer["fiveg.truncnorm_calls"] == 0 and layer["fiveg.empirical_calls"] > 0
    assert 1.0 < layer["iolw.attempts_per_transfer"] < workloads.LOSSY_MAX_ATTEMPTS
    assert counters["underived"] == 0
    # the attempt derivation is a span of its own, so scenario.action's self time excludes it
    assert tracer.totals()["trace.hook"][0] == layer["iolw.transfer_calls"]
    assert layer["scenario.self_s"] > 0
    assert iolw5gsim.scenario.transfer_latency is original_transfer
    assert "traced" not in iolw5gsim.kernel.Simulator.__dict__["schedule"].__code__.co_name


def test_missing_entry_point_reports_zero_calls(monkeypatch):
    # the planned vectorised run() deletes the event kernel
    monkeypatch.delattr(iolw5gsim.kernel, "Simulator")
    counters = dict.fromkeys(bench.COUNTERS, 0)
    tracer = Tracer()
    tracer.install(bench.entry_points(tracer, counters), bench.PACKAGE)
    tracer.active = True
    try:
        text, _ = small_lossy()
        iolw5gsim.config.load_scenario(text)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert set(tracer.absent) == {"kernel.schedule", "kernel.run_until"}
    layer = bench.layer_metrics(tracer.totals(), counters)
    assert layer["kernel.events"] == 0 and layer["kernel.self_s"] == 0
    assert layer["config.load_s"] > 0


def test_wrapped_run_still_pickles_for_the_process_pool():
    tracer = Tracer()
    tracer.install(bench.entry_points(tracer, dict.fromkeys(bench.COUNTERS, 0)), bench.PACKAGE)
    try:
        assert pickle.loads(pickle.dumps(iolw5gsim.scenario.run)) is iolw5gsim.scenario.run
    finally:
        tracer.uninstall()


def test_lossy_scenario_is_a_function_of_the_seed():
    assert workloads.lossy_scenario_text(5) == workloads.lossy_scenario_text(5)
    assert workloads.lossy_scenario_text(5) != workloads.lossy_scenario_text(6)
    scenario = load_scenario(workloads.lossy_scenario_text(5))
    kinds = {type(seg.model).__name__ for seg in scenario.segments.values() if seg.model}
    assert kinds == {"Constant", "Uniform", "Empirical"}
    assert len(scenario.segments["nr_up"].model.bins) == workloads.LOSSY_EMPIRICAL_BINS
    air = scenario.segments["air_up"].transfer
    assert (air.per_subcycle_error_prob, air.max_attempts) == (0.3, 5)


def test_gates_ignore_extra_keys_and_catch_broken_counts():
    _, scenario = small_lossy()
    result = iolw5gsim.scenario.run(scenario, 3)
    doc = json.loads(json.dumps(build_report(result, scenario, b"", deterministic=True)))
    doc["schema_version"] = 99
    doc["run"]["timings_us"] = {"simulate": 1}
    doc["extra"] = {"anything": 1}
    lossy = workloads.WORKLOADS["lossy-empirical"]
    assert workloads.check_report(lossy, doc, result.toggles) == []
    doc["end_to_end"]["count"] += 1
    assert workloads.check_report(lossy, doc, result.toggles)
    doc["end_to_end"]["mean_us"] = 2 * workloads.PAPER_MEAN_US
    paper = workloads.WORKLOADS["paper-default"]
    assert any("paper" in f for f in workloads.check_report(paper, doc, result.toggles))


def test_sweep_result_may_come_with_per_seed_results():
    _, scenario = small_lossy()
    merged = iolw5gsim.scenario.sweep(scenario, [1, 2])
    assert workloads.merged_result(merged) is merged
    assert workloads.merged_result((merged, ["per-seed"])) is merged
    with pytest.raises(TypeError):
        workloads.merged_result(("no", "result"))


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        n: w.why for n, w in workloads.WORKLOADS.items()
    }
