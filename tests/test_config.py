import json

import pytest

from iolw5gsim import config
from iolw5gsim.cli import EXIT_INVALID, EXIT_OK, main
from iolw5gsim.config import Diagnostic, ScenarioError, load_scenario
from iolw5gsim.fiveg import _AliasTable
from iolw5gsim.iolw import IolwCellConfig
from iolw5gsim.plc import PlcConfig
from iolw5gsim.scenario import MAX_TOGGLES, SignalSource
from iolw5gsim.stats import BIN_WIDTH_US, DENSE_BIN_CAP

MINIMAL = """
[cell]
masters = 1
tracks = 2
slots_per_track = 8
devices = 8

[segment.wire]
kind = iol-wire
model = constant
value = 700 us

[segment.air]
kind = iolw-air
completion_offset = 667 us

[segment.eth]
kind = ethernet
model = constant
value = 1200 us

[segment.plc]
kind = plc

[path]
forward = wire, air, eth, plc
return = eth, air, wire

[source]
toggle_period = 200 ms
sequences = 1
sequence_length = 1 s

[plc]
task_cycle = 5 ms
query_cycle = 10 ms

[safety]
approach_speed = 2.0
budget.wire = 2 ms
"""


PATH_ON = MINIMAL[MINIMAL.index("[path]"):]


def patch(text, old, new):
    assert old in text
    return text.replace(old, new)


def diagnostics_of(text):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(text)
    return exc.value.diagnostics


def test_minimal_scenario_loads():
    sc = load_scenario(MINIMAL)
    assert set(sc.segments) == {"wire", "air", "eth", "plc"}
    assert sc.forward == ("wire", "air", "eth", "plc")
    assert sc.approach_speed_mps == 2.0


def test_default_scenario_is_the_testbed(default_scenario):
    sc = default_scenario
    assert sc.cell.devices == 8
    assert sc.cell.tracks_per_master == 2
    assert sc.cell.cycle_us == 5000
    assert sc.plc.task_cycle_us == 5000
    assert sc.plc.query_cycle_us == 10_000
    assert sc.source.toggle_period_us == 200_000
    assert sc.source.sequences == 540
    assert sc.source.sequence_length_us == 5_000_000
    assert sum(m for _, m in sc.maxima) == 149_600


def test_loader_builds_each_distinct_link_model_once(default_config_text, monkeypatch):
    # the testbed's twin Ethernet hops and 5G legs have equal parameters
    tables = []
    from_pmf = _AliasTable.from_pmf
    monkeypatch.setattr(_AliasTable, "from_pmf", lambda p: tables.append(p) or from_pmf(p))
    seg = load_scenario(default_config_text).segments
    assert seg["nr_up"].model is seg["nr_down"].model
    assert seg["eth_shop"].model is seg["eth_edge"].model
    assert len({id(seg[sid].model) for sid in ("wire", "eth_shop", "nr_up")}) == 3
    assert len(tables) == 3


def test_unresolved_segment_id_reported():
    bad = patch(MINIMAL, "forward = wire, air, eth, plc", "forward = wire, air, ether9, plc")
    diags = diagnostics_of(bad)
    assert any("ether9" in d.message for d in diags)


def test_bad_segment_gives_one_diagnostic():
    # eth sits on both paths; its bad bin weight must not make it unresolved
    # there, nor reject the budget of the poll wait that would precede it
    bad = patch(MINIMAL, "model = constant\nvalue = 1200 us", "model = empirical\nbins = 1 ms:x")
    bad = patch(bad, "budget.wire = 2 ms", "budget.wire = 2 ms\nbudget.poll_wait = 10 ms")
    diags = diagnostics_of(bad)
    lines = enumerate(bad.splitlines(), 1)
    path_lines = {i for i, text in lines if text.startswith(("forward", "return"))}
    assert not [d for d in diags if d.line in path_lines]
    assert len(diags) == 1 and "invalid number" in diags[0].message


def test_capacity_violation_surfaced():
    bad = patch(MINIMAL, "tracks = 2", "tracks = 6")
    diags = diagnostics_of(bad)
    assert any("tracks_per_master" in d.message for d in diags)


# a segment may not take the name of a component a run adds itself
RESERVED = "kind = ethernet\nmodel = constant\nvalue = 1 ms\n\n[segment.plc]"


def test_unknown_key_rejected_with_location():
    for old, new, key in [
        ("toggle_period = 200 ms", "togle_period = 200 ms", "togle_period"),
        # a budget must name a component of the paths
        ("budget.wire = 2 ms", "budget.wire = 2 ms\nbudget.nr_upp = 2 ms", "nr_upp"),
        # link throughput and RSSI are not part of the model
        ("kind = ethernet", "kind = fiveg\ndownlink_mbps = 912", "downlink_mbps"),
        ("forward = wire, air, eth, plc", "forward =", "forward"),
        # without a network segment on the forward path there is no poll wait
        (PATH_ON, PATH_ON.replace("eth, plc", "plc") + "budget.poll_wait = 10 ms\n",
         "poll_wait"),
        ("[segment.plc]", "[segment.poll_wait]\n" + RESERVED, "poll_wait"),
        ("[segment.plc]", "[segment.end_to_end]\n" + RESERVED, "end_to_end"),
    ]:
        bad = patch(MINIMAL, old, new)
        d = next(d for d in diagnostics_of(bad) if key in d.message)
        line = next(i for i, text in enumerate(bad.splitlines(), 1) if key in text)
        assert (d.line, d.col) == (line, 1)


# 9 stddevs either side of the mean: some 18 M integers, above the 2**20 cap
WIDE_TRUNCNORM = "model = truncnorm\nmean = 5 ms\nstddev = 1 s\nlow = 0 us\nhigh = 100 s"
WIDE_TRUNCNORM_OLD = "model = constant\nvalue = 1200 us"

NO_PATH = "[path]\nforward = wire, air, eth, plc\nreturn = eth, air, wire\n"


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("masters = 1", "masters = 9", id="cell-capacity"),
        pytest.param(NO_PATH, "", id="missing-path"),
        pytest.param("return = eth, air, wire\n", "", id="missing-return"),
        pytest.param("kind = ethernet\n", "", id="segment-without-kind"),
        pytest.param("model = constant\nvalue = 1200 us\n", "", id="segment-without-model"),
        pytest.param("[segment.plc]", "[segment.]\n[segment.plc]", id="empty-segment-id"),
        pytest.param("[safety]", "[bogus]\n[safety]", id="unknown-section"),
        pytest.param("query_cycle = 10 ms", "jitter = -9 ms", id="negative-plc-jitter"),
        pytest.param("sequences = 1", "sequences = 0", id="bad-source"),
        pytest.param("approach_speed = 2.0", "approach_speed = -1", id="bad-safety"),
        pytest.param("[cell]", "[cell]\nchannels = 10\nmin_hop_distance = 15", id="hop-plan"),
        pytest.param("[cell]", "[cell]\nchannels = 1000000000", id="channels-past-ism-band"),
        pytest.param("forward = wire, air, eth, plc", "forward =", id="empty-forward"),
        pytest.param("[cell]", "[cell]\nmin_hop_distance = -5", id="negative-hop-distance"),
        pytest.param("[cell]", "[cell]\nblocklist = 99, -3", id="blocklist-out-of-range"),
        pytest.param(
            "[cell]", "[cell]\nchannels = 40\nblocklist = 40, 41, 42",
            id="blocklist-past-last-channel",
        ),
        pytest.param(WIDE_TRUNCNORM_OLD, WIDE_TRUNCNORM, id="truncnorm-too-wide"),
        pytest.param(
            PATH_ON, PATH_ON.replace("eth, plc", "plc") + "budget.poll_wait = 10 ms\n",
            id="poll-wait-without-network",
        ),
        pytest.param("[segment.plc]", "[segment.poll_wait]\n" + RESERVED, id="reserved-poll-wait"),
        pytest.param("[segment.plc]", "[segment.end_to_end]\n" + RESERVED, id="reserved-end-to-end"),
    ],
)
def test_every_diagnostic_has_a_location(old, new):
    diags = diagnostics_of(patch(MINIMAL, old, new))
    assert all(d.line >= 1 and d.col >= 1 for d in diags), diags


LINK_ETH = "model = constant\nvalue = 1200 us"


@pytest.mark.parametrize(
    "old, new, at, message",
    [
        ("task_cycle = 5 ms", "task_cycle = 0", "[plc]", "[plc]: task_cycle must be > 0"),
        ("query_cycle = 10 ms", "query_cycle = 0", "[plc]", "[plc]: query_cycle must be > 0"),
        ("[cell]", "[cell]\ncycle = 0", "[cell]", "[cell]: cycle must be > 0"),
        ("[cell]", "[cell]\nsubcycle = 0", "[cell]", "[cell]: subcycle must be > 0"),
        ("[cell]", "[cell]\nsubcycles = 0", "[cell]", "[cell]: subcycles_per_cycle must be >= 1"),
        ("[cell]", "[cell]\ncycle = 1 s\nsubcycle = 1 us\nsubcycles = 1001", "[cell]",
         "[cell]: subcycles_per_cycle must be <= 1000, got 1001"),
        ("devices = 8", "devices = 0", "[cell]", "[cell]: devices must be >= 1"),
        ("masters = 1", "masters = x", "masters = x", "invalid integer 'x'"),
        ("[cell]", "[cell]\nblocklist = a", "blocklist = a", "invalid blocklist 'a'"),
        ("[segment.wire]", "[cell]\n[segment.wire]", "[cell]", "duplicate section [cell]"),
        ("toggle_period = 200 ms", "toggle_period = 0", "[source]",
         "[source]: toggle_period must be > 0"),
        ("sequence_length = 1 s", "sequence_length = 100 ms", "[source]",
         "[source]: sequence_length must be >= toggle_period"),
        ("toggle_period = 200 ms", "toggle_period = 10 ms", "[source]",
         "[source]: toggle_period must exceed the [plc] query_cycle"),
        (LINK_ETH, "model = uniform\nlow = -1 us\nhigh = 2 ms", "kind = ethernet",
         "segment 'eth': uniform low must be >= 0"),
        (LINK_ETH, "model = truncnorm\nmean = 1 ms\nstddev = 1 ms\nlow = 3 ms\nhigh = 2 ms",
         "kind = ethernet", "segment 'eth': truncnorm low must be <= high"),
        (LINK_ETH, "model = empirical\nbins = -1 ms:1, 2 ms:3", "kind = ethernet",
         "segment 'eth': empirical durations must be >= 0"),
        (LINK_ETH, "model = empirical\nbins = 5 ms", "bins = 5 ms", "invalid empirical bin '5 ms'"),
        (LINK_ETH, "model = gamma", "model = gamma", "unknown model kind 'gamma'"),
        (LINK_ETH, "model = truncnorm\nmean = 1 ms", "model = truncnorm",
         "segment 'eth': model 'truncnorm' is missing keys ['high', 'low', 'stddev']"),
        ("completion_offset = 667 us", "completion_offset = 667 us\nerror_prob = 1.5",
         "kind = iolw-air", "segment 'air': error_prob must be within [0, 1]"),
        ("completion_offset = 667 us", "completion_offset = 2 ms", "kind = iolw-air",
         "segment 'air': completion_offset 2000 us must lie in [0, 1664)"),
        ("[cell]", "bogus = 1\n[cell]", "bogus = 1", "key outside any section"),
    ],
    ids=["task-cycle-0", "query-cycle-0", "cycle-0", "subcycle-0", "subcycles-0",
         "subcycles-past-ceiling", "devices-0", "masters-not-int", "blocklist-not-int", "duplicate-cell", "toggle-period-0",
         "sequence-shorter-than-period", "period-equals-query-cycle", "uniform-negative-low",
         "truncnorm-low-above-high", "empirical-negative-duration", "bin-without-weight",
         "unknown-model", "truncnorm-missing-keys", "error-prob-above-1",
         "completion-offset-past-subcycle", "key-before-any-section"],
)
def test_diagnostic_at_its_location(old, new, at, message):
    bad = patch(MINIMAL, old, new)
    lines = bad.splitlines()
    line = len(lines) - lines[::-1].index(at)  # the last line reading `at`
    assert Diagnostic(line, 1, message) in diagnostics_of(bad)


@pytest.mark.parametrize(
    "settings, message",
    [
        ("min_hop_distance = -5", "min_hop_distance must be >= 0, got -5"),
        ("blocklist = 99, -3", "blocklist channels [-3, 99] lie outside 0..39"),
        ("channels = 40\nblocklist = 40, 41, 42", "blocklist channels [40, 41, 42] lie outside 0..39"),
        ("channels = 1000000000", "channels must be 1..83, got 1000000000"),
        ("channels = 0", "channels must be 1..83, got 0"),
        ("channels = -5\nblocklist = 3", "channels must be 1..83, got -5"),
    ],
    ids=["negative-hop-distance", "blocklist-out-of-range", "blocklist-past-last-channel",
         "channels-past-ism-band", "channels-0", "channels-negative"],
)
def test_bad_channel_settings_rejected_at_cell(settings, message):
    bad = patch(MINIMAL, "[cell]", "[cell]\n" + settings)
    line = bad.splitlines().index("[cell]") + 1
    assert [(d.line, d.col, d.message) for d in diagnostics_of(bad)] == [
        (line, 1, f"[cell]: {message}")
    ]


def test_capacity_checked_when_only_the_channel_count_is_bad():
    # the channel count does not change the topology's capacity
    bad = patch(patch(MINIMAL, "devices = 8", "devices = 20"), "[cell]", "[cell]\nchannels = 0")
    assert [d.message for d in diagnostics_of(bad)] == [
        "[cell]: channels must be 1..83, got 0",
        "[cell]: devices 20 exceed cell capacity 16",
    ]


def test_truncnorm_wider_than_its_table_cap_rejected_at_segment(tmp_path, capsys):
    bad = patch(MINIMAL, WIDE_TRUNCNORM_OLD, WIDE_TRUNCNORM)
    lines = bad.splitlines()
    line = lines.index("kind = ethernet", lines.index("[segment.eth]")) + 1
    diags = diagnostics_of(bad)
    assert [(d.line, d.col) for d in diags] == [(line, 1)], diags
    assert "exceeds 1048576" in diags[0].message
    path = tmp_path / "wide.scenario"
    path.write_text(bad)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert f"{path}:{line}:1:" in capsys.readouterr().err


def test_max_attempts_past_ceiling_rejected_at_segment(default_config_text, tmp_path, capsys):
    # a billion attempts made run allocate a slot table of 8 GB and loop
    # over a billion retry rounds
    text = default_config_text
    at = text.index("max_attempts = 3", text.index("[segment.air_up]"))
    bad = text[:at] + "max_attempts = 1000000000" + text[at + len("max_attempts = 3"):]
    lines = bad.splitlines()
    line = lines.index("kind = iolw-air", lines.index("[segment.air_up]")) + 1
    diags = diagnostics_of(bad)
    assert [(d.line, d.col) for d in diags] == [(line, 1)], diags
    assert "max_attempts must be 1..1000, got 1000000000" in diags[0].message
    path = tmp_path / "retries.scenario"
    path.write_text(bad)
    for command in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path / "o")]):
        assert main(command) == EXIT_INVALID
        assert f"{path}:{line}:1:" in capsys.readouterr().err


EMPIRICAL_ETH = "model = empirical\nbins = 1 ms:1, 2 ms:3"


@pytest.mark.parametrize(
    "old, new",
    [
        ("approach_speed = 2.0", "approach_speed = nan"),
        ("approach_speed = 2.0", "approach_speed = inf"),
        ("approach_speed = 2.0", "approach_speed = -Infinity"),
        ("approach_speed = 2.0", "approach_speed = 1e999"),
        ("completion_offset = 667 us", "completion_offset = 667 us\nerror_prob = nan"),
        ("model = constant\nvalue = 1200 us", EMPIRICAL_ETH.replace("1 ms:1", "1 ms:nan")),
        ("model = constant\nvalue = 1200 us", EMPIRICAL_ETH.replace("1 ms:1", "1 ms:inf")),
        ("value = 1200 us", "value = " + "9" * 400 + " us"),
    ],
    ids=["speed-nan", "speed-inf", "speed-minus-infinity", "speed-1e999", "error-prob-nan",
         "bin-weight-nan", "bin-weight-inf", "duration-400-digits"],
)
def test_non_finite_number_rejected_at_its_location(old, new, tmp_path, capsys):
    bad = patch(MINIMAL, old, new)
    line = bad.splitlines().index(new.splitlines()[-1]) + 1
    diags = diagnostics_of(bad)
    assert [(d.line, d.col) for d in diags] == [(line, 1)], diags
    path = tmp_path / "bad.scenario"
    path.write_text(bad)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert f"{path}:{line}:1:" in capsys.readouterr().err


# 2e19 us, past int64; 3e18 us, within int64 but past 2**53; and 2**53 itself
BIG = "20000000000000 s"


@pytest.mark.parametrize(
    "old, new",
    [
        ("value = 1200 us", f"value = {BIG}"),
        ("value = 1200 us", "value = 3000000000000 s"),
        ("value = 1200 us", f"value = {2**53} us"),
        ("value = 1200 us", f"value = -{2**53} us"),
        ("model = constant\nvalue = 1200 us", EMPIRICAL_ETH.replace("2 ms:3", f"{BIG}:3")),
        ("model = constant\nvalue = 1200 us", f"model = uniform\nlow = 1 ms\nhigh = {BIG}"),
        (
            "model = constant\nvalue = 1200 us",
            "model = truncnorm\nmean = 5 ms\nstddev = 1 ms\nlow = 0 us\nhigh = 3000000000000 s",
        ),
        ("query_cycle = 10 ms", f"query_cycle = {BIG}"),
    ],
    ids=["constant", "constant-past-2**53", "constant-2**53", "constant-minus-2**53",
         "empirical-bin", "uniform-high", "truncnorm-high", "query-cycle"],
)
def test_duration_a_double_cannot_hold_rejected_at_its_key(old, new, tmp_path, capsys):
    # a double holds every whole microsecond only below 2**53; larger
    # durations wrote wrong means or crashed the run with a traceback
    bad = patch(MINIMAL, old, new)
    line = bad.splitlines().index(new.splitlines()[-1]) + 1
    diags = diagnostics_of(bad)
    assert [(d.line, d.col) for d in diags] == [(line, 1)], diags
    assert "is out of range" in diags[0].message
    path = tmp_path / "big.scenario"
    path.write_text(bad)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert f"{path}:{line}:1: " in capsys.readouterr().err


def test_duration_just_below_2_53_loads():
    # a budget, as a path's durations must sum to less than one histogram's span
    budget = f"budget.wire = 2 ms\nbudget.eth = {2**53 - 1} us"
    sc = load_scenario(patch(MINIMAL, "budget.wire = 2 ms", budget))
    assert dict(sc.maxima)["eth"] == 2**53 - 1


HUGE_SOURCE = (
    "toggle_period = 4000000000000000 us\nsequences = 5000\n"
    "sequence_length = 4000000000000000 us"
)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_source_spanning_2_53_rejected_at_source(default_config_text, command, tmp_path, capsys):
    # every duration is below 2**53, but 5000 sequences of 4e15 us once
    # wrapped the toggle times past int64 and crashed the run
    bad = patch(default_config_text, "toggle_period = 200 ms\nsequences = 540\nsequence_length = 5 s",
                HUGE_SOURCE)
    line = bad.splitlines().index("[source]") + 1
    message = "[source]: sequences * sequence_length must be < 2**53 us"
    assert diagnostics_of(bad) == [Diagnostic(line, 1, message)]
    path = tmp_path / "huge.scenario"
    path.write_text(bad)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *out]) == EXIT_INVALID
    assert f"{path}:{line}:1: {message}" in capsys.readouterr().err


def test_source_span_just_below_2_53_loads():
    length = f"{(2**53 - 1) // 3} us"
    sc = load_scenario(patch(MINIMAL, "toggle_period = 200 ms\nsequences = 1\nsequence_length = 1 s",
                             f"toggle_period = {length}\nsequences = 3\nsequence_length = {length}"))
    assert sc.source.sequences * sc.source.sequence_length_us == 2**53 - 2


@pytest.mark.parametrize("sequences", [20_000_000, 20_000_001])
def test_toggle_count_past_the_cap_rejected_at_source(sequences):
    # 50 toggles a sequence: 10**9 toggles load, 10**9 + 50 do not
    text = patch(MINIMAL, "toggle_period = 200 ms\nsequences = 1",
                 f"toggle_period = 20 ms\nsequences = {sequences}")
    toggles = 50 * sequences
    if toggles <= MAX_TOGGLES:
        assert load_scenario(text).source.toggles == toggles
    else:
        line = text.splitlines().index("[source]") + 1
        message = f"[source]: toggles must be <= {MAX_TOGGLES}, got {toggles}"
        assert diagnostics_of(text) == [Diagnostic(line, 1, message)]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_dither_key_rejected_as_unknown(command, tmp_path, capsys):
    # the dither is always one [plc] query cycle
    bad = patch(MINIMAL, "sequence_length = 1 s", "sequence_length = 1 s\ndither = 3 ms")
    line = bad.splitlines().index("dither = 3 ms") + 1
    message = "unknown key 'dither' in section [source]"
    assert diagnostics_of(bad) == [Diagnostic(line, 1, message)]
    path = tmp_path / "dither.scenario"
    path.write_text(bad)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *out]) == EXIT_INVALID
    assert f"{path}:{line}:1: {message}" in capsys.readouterr().err


def long_eth_path(traversals):
    """MINIMAL with eth a constant of 2**53 - 1 us crossed traversals times
    on the forward path."""
    text = patch(MINIMAL, "value = 1200 us", f"value = {2**53 - 1} us")
    return patch(text, "forward = wire, air, eth, plc",
                 "forward = wire, air, " + "eth, " * traversals + "plc")


def worst_case_message(worst_us):
    return (f"[path]: the paths' derived worst case of {worst_us} us must be below "
            f"{DENSE_BIN_CAP * BIN_WIDTH_US} us, the span of one histogram")


def assert_rejected_at_path(text, message, command, tmp_path, capsys):
    """text fails to load, and command to run, with message at its [path] header."""
    line = text.splitlines().index("[path]") + 1
    assert diagnostics_of(text) == [Diagnostic(line, 1, message)]
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *out]) == EXIT_INVALID
    assert f"{path}:{line}:1: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_path_past_int64_rejected_at_path(command, tmp_path, capsys):
    # each duration is below 2**53, but 1 100 of them once wrapped the
    # int64 times and crashed the run with a traceback; the eth constant
    # replaces two of 1200 us, and the path now crosses it 1 101 times
    base = sum(step.stage.upper_bound_us() for step in load_scenario(MINIMAL).plan)
    worst = base - 2 * 1200 + 1101 * (2**53 - 1)
    message = worst_case_message(worst)
    assert_rejected_at_path(long_eth_path(1100), message, command, tmp_path, capsys)


def shipped_with_plc_jitter(text, jitter_us):
    """The shipped scenario with jitter_us of PLC jitter and no plc budget:
    its derived worst case is 148 930 us plus the jitter."""
    text = patch(text, "query_cycle = 10 ms", f"query_cycle = 10 ms\njitter = {jitter_us} us")
    return patch(text, "budget.plc = 10 ms\n", "")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_worst_case_just_below_the_histogram_span_loads(command, default_config_text, tmp_path):
    text = shipped_with_plc_jitter(default_config_text, 6_404_669)
    scenario = load_scenario(text)
    worst = sum(step.stage.upper_bound_us() for step in scenario.plan)
    assert worst == DENSE_BIN_CAP * BIN_WIDTH_US - 1
    path = tmp_path / "jitter.scenario"
    path.write_text(text)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *out]) == EXIT_OK


@pytest.mark.parametrize("command", ["validate", "run"])
def test_worst_case_at_the_histogram_span_rejected_at_path(
    command, default_config_text, tmp_path, capsys
):
    text = shipped_with_plc_jitter(default_config_text, 6_404_670)
    message = worst_case_message(DENSE_BIN_CAP * BIN_WIDTH_US)
    assert_rejected_at_path(text, message, command, tmp_path, capsys)


def test_shipped_component_bounds_sum_to_the_derived_figure(default_scenario):
    stage_bounds = [step.stage.upper_bound_us() for step in default_scenario.plan]
    bounds = dict(zip((step.name for step in default_scenario.plan), stage_bounds))
    assert (bounds["air_up"], bounds["poll_wait"], bounds["plc"]) == (5666, 9999, 9999)
    assert sum(stage_bounds) == 148_930


def test_empirical_weight_sum_must_not_overflow():
    huge = EMPIRICAL_ETH.replace(":1,", ":1e308,").replace(":3", ":1e308")
    bad = patch(MINIMAL, "model = constant\nvalue = 1200 us", huge)
    assert any("finite sum" in d.message for d in diagnostics_of(bad))


def test_unknown_segment_kind_rejected():
    bad = patch(MINIMAL, "kind = ethernet", "kind = tokenring")
    assert any("tokenring" in d.message for d in diagnostics_of(bad))


def test_forward_path_must_end_in_plc():
    bad = patch(MINIMAL, "forward = wire, air, eth, plc", "forward = wire, air, eth")
    assert any("must end in a plc" in d.message for d in diagnostics_of(bad))


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("forward", ["wire, plc, air, eth, plc", "wire, air, eth, plc, plc"])
def test_plc_before_the_end_of_the_forward_path_rejected(forward, command, tmp_path, capsys):
    # such a path once ran the PLC stage twice per toggle
    bad = patch(MINIMAL, "forward = wire, air, eth, plc", f"forward = {forward}")
    line = bad.splitlines().index(f"forward = {forward}") + 1
    message = "forward path may hold a plc segment only at its end"
    assert diagnostics_of(bad) == [Diagnostic(line, 1, message)]
    path = tmp_path / "plc.scenario"
    path.write_text(bad)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *out]) == EXIT_INVALID
    assert f"{path}:{line}:1: {message}" in capsys.readouterr().err


def test_return_path_must_not_contain_plc():
    bad = patch(MINIMAL, "return = eth, air, wire", "return = eth, plc, wire")
    assert any("must not contain a plc" in d.message for d in diagnostics_of(bad))


def test_return_path_plc_reported_once():
    bad = patch(MINIMAL, "return = eth, air, wire", "return = eth, plc, plc, wire")
    line = bad.splitlines().index("return = eth, plc, plc, wire") + 1
    message = "return path must not contain a plc segment"
    assert diagnostics_of(bad) == [Diagnostic(line, 1, message)]


def test_all_problems_reported_together():
    bad = patch(MINIMAL, "tracks = 2", "tracks = 6")
    bad = patch(bad, "value = 700 us", "value = banana")
    diags = diagnostics_of(bad)
    assert len(diags) >= 2


def test_bad_approach_speed_reported_with_the_first_batch(default_config_text):
    # a bad speed once waited for every other fault of the file to be fixed
    bad = patch(default_config_text, "approach_speed = 2.0", "approach_speed = -1")
    bad = patch(bad, "channels = 40", "channels = 0")
    lines = bad.splitlines()
    diags = diagnostics_of(bad)
    assert [(d.line, d.col, d.message) for d in diags] == [
        (lines.index("[cell]") + 1, 1, "[cell]: channels must be 1..83, got 0"),
        (lines.index("approach_speed = -1") + 1, 1, "approach_speed must be > 0, got -1"),
    ]


@pytest.mark.parametrize("argv", [["validate"], ["run", "--out", "o"]], ids=["validate", "run"])
def test_approach_speed_whose_safety_distance_overflows_rejected_at_its_key(
    default_config_text, argv, tmp_path, monkeypatch, capsys
):
    # 1e308 m/s over the 149.6 ms worst case is past the float range; the
    # report's rounding once raised OverflowError with a traceback
    bad = patch(default_config_text, "approach_speed = 2.0", "approach_speed = 1e308")
    line = bad.splitlines().index("approach_speed = 1e308") + 1
    message = "approach_speed 1e308 over 149600 us gives a safety distance past the float range"
    assert [(d.line, d.col, d.message) for d in diagnostics_of(bad)] == [(line, 1, message)]
    path = tmp_path / "fast.scenario"
    path.write_text(bad)
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert f"{path}:{line}:1: {message}" in err and "Traceback" not in err
    # ten times 1.496e301 m, the distance at 1e302 m/s, is finite
    fast = patch(default_config_text, "approach_speed = 2.0", "approach_speed = 1e302")
    assert load_scenario(fast).approach_speed_mps == 1e302


# str.splitlines() breaks lines at these too; editors and the loader do not
NOT_LINE_ENDS = ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=[f"U+{ord(c):04X}" for c in NOT_LINE_ENDS])
def test_only_cr_and_lf_end_a_line(default_config_text, default_scenario, char):
    text = patch(default_config_text, "# Default scenario: one", f"# Default scenario:{char} one")
    assert load_scenario(text) == default_scenario
    bad = patch(text, "channels = 40", "channels = 0")
    line = bad.split("\n").index("[cell]") + 1
    assert [(d.line, d.col, d.message) for d in diagnostics_of(bad)] == [
        (line, 1, "[cell]: channels must be 1..83, got 0")
    ]


@pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "bare-cr"])
def test_crlf_and_bare_cr_files_load_and_count_lines_alike(eol):
    assert load_scenario(MINIMAL.replace("\n", eol)) == load_scenario(MINIMAL)
    # a bad byte is reported at the line:col where the parser reports a
    # fault in the same place
    line = MINIMAL.split("\n").index("value = 700 us") + 1
    unparsable = patch(MINIMAL, "value = 700 us", "value = banana")
    assert [(d.line, d.col) for d in diagnostics_of(unparsable.replace("\n", eol))] == [(line, 1)]
    data = MINIMAL.replace("\n", eol).encode().replace(b"value = 700 us", b"value = \xff700 us")
    with pytest.raises(ScenarioError) as exc:
        config.decode_scenario(data)
    assert exc.value.diagnostics == [Diagnostic(line, 9, "invalid UTF-8 byte 0xff")]


def test_duration_suffixes():
    # digits are read exactly, however many leading zeros they carry
    cases = [("1.2 ms", 1200), ("1.1 ms", 1100), ("10.2 ms", 10200), ("0.000001 s", 1),
             ("0" * 5000 + "7 us", 7)]
    for value, us in cases:
        sc = load_scenario(patch(MINIMAL, "value = 1200 us", f"value = {value}"))
        assert sc.segments["eth"].model.value_us == us, value


def test_empirical_bins_allow_a_trailing_comma():
    sc = load_scenario(patch(MINIMAL, "model = constant\nvalue = 1200 us",
                             "model = empirical\nbins = 5 ms:1, 7 ms:4,"))
    assert sc.segments["eth"].model.bins == ((5000, 1.0), (7000, 4.0))


def test_fractional_microseconds_rejected():
    # all but 1200.5 us and 0.0000015 s were once read as a double and
    # rounded to a whole microsecond
    values = ["1200.5 us", "1.0000000001 ms", "4503599627370497.5 us",
              "1." + "0" * 5000 + "1 ms", "0.0000015 s"]
    for value in values:
        bad = patch(MINIMAL, "value = 1200 us", f"value = {value}")
        line = bad.splitlines().index(f"value = {value}") + 1
        message = f"duration {value!r} is not a whole microsecond"
        assert diagnostics_of(bad) == [Diagnostic(line, 1, message)], value


def test_duplicate_key_rejected():
    bad = MINIMAL.replace("task_cycle = 5 ms", "task_cycle = 5 ms\ntask_cycle = 6 ms")
    assert any("duplicate key" in d.message for d in diagnostics_of(bad))


def test_syntax_error_reported():
    bad = MINIMAL.replace("masters = 1", "masters 1")
    assert any("cannot parse" in d.message for d in diagnostics_of(bad))


def test_infeasible_hop_config_rejected():
    for keys, count, distance in [
        ("channels = 10\nmin_hop_distance = 15", 10, 15),  # no two channels 15 apart
        ("blocklist = " + ", ".join(map(str, range(39))) + "\nmin_hop_distance = 0", 40, 0),
    ]:
        bad = patch(MINIMAL, "[cell]", "[cell]\n" + keys)
        msg = f"[cell]: no valid hop pair among {count} channels with min hop distance {distance}"
        assert diagnostics_of(bad) == [Diagnostic(bad.splitlines().index("[cell]") + 1, 1, msg)]


def test_role_key_rejected_as_unknown(tmp_path, capsys):
    bad = patch(MINIMAL, "kind = iol-wire", "kind = iol-wire\nrole = forward")
    line = bad.splitlines().index("role = forward") + 1
    assert diagnostics_of(bad) == [
        Diagnostic(line, 1, "unknown key 'role' in section [segment.wire]")
    ]
    path = tmp_path / "role.scenario"
    path.write_text(bad)
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert f"{path}:{line}:1: unknown key 'role'" in capsys.readouterr().err


def test_negative_plc_jitter_rejected(tmp_path, capsys):
    bad = patch(MINIMAL, "query_cycle = 10 ms", "query_cycle = 10 ms\njitter = -9 ms")
    assert any("jitter" in d.message for d in diagnostics_of(bad))
    path = tmp_path / "bad.scenario"
    path.write_text(bad)
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "jitter" in capsys.readouterr().err


def test_negative_budget_rejected_at_its_key(default_config_text, tmp_path, capsys):
    bad = patch(default_config_text, "budget.wire = 2600 us", "budget.wire = -2600 us")
    line = bad.splitlines().index("budget.wire = -2600 us") + 1
    assert diagnostics_of(bad) == [Diagnostic(line, 1, "budget 'wire' must be >= 0")]
    path = tmp_path / "budget.scenario"
    path.write_text(bad)
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert f"{path}:{line}:1: budget 'wire' must be >= 0" in capsys.readouterr().err


PLC_JITTER = ("query_cycle = 10 ms", "query_cycle = 10 ms\njitter = 100 ms")
# above one traversal's 1 300 us, below both traversals' 2 600 us
WIRE_ONE_TRAVERSAL = ("budget.wire = 2600 us", "budget.wire = 2000 us")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "old, new, key, message",
    [
        pytest.param(*PLC_JITTER, "budget.plc = 10 ms",
                     "budget 'plc' of 10000 us is below its derived bound of 109999 us",
                     id="plc-jitter"),
        pytest.param(*WIRE_ONE_TRAVERSAL, "budget.wire = 2000 us",
                     "budget 'wire' of 2000 us is below its derived bound of 2600 us",
                     id="wire-one-traversal"),
    ],
)
def test_budget_below_its_derived_bound_rejected_at_its_key(
    default_config_text, old, new, key, message, command, tmp_path, capsys
):
    # a hand-typed budget below what the component can take made the
    # reported SFRT and safety distance unsafe
    bad = patch(default_config_text, old, new)
    line = bad.splitlines().index(key) + 1
    assert diagnostics_of(bad) == [Diagnostic(line, 1, message)]
    path = tmp_path / "budget.scenario"
    path.write_text(bad)
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, str(path), *out]) == EXIT_INVALID
    assert f"{path}:{line}:1: {message}" in capsys.readouterr().err


def test_budgets_below_their_bounds_reported_together(default_config_text):
    bad = patch(patch(default_config_text, *PLC_JITTER), *WIRE_ONE_TRAVERSAL)
    lines = bad.splitlines()
    diags = diagnostics_of(bad)
    assert [(d.line, d.col) for d in diags] == [
        (lines.index("budget.wire = 2000 us") + 1, 1), (lines.index("budget.plc = 10 ms") + 1, 1)
    ]


def test_budget_at_a_truncnorm_bound_below_its_high_loads(default_config_text):
    # the wire's table ends 9 sd above its mean, at 2 050 us a traversal,
    # far below a high of 100 ms
    text = patch(default_config_text, "high = 1300 us", "high = 100 ms")
    sc = load_scenario(patch(text, "budget.wire = 2600 us", "budget.wire = 4100 us"))
    assert sc.segments["wire"].model.upper_bound_us() == 2050
    bad = patch(text, "budget.wire = 2600 us", "budget.wire = 4099 us")
    line = bad.splitlines().index("budget.wire = 4099 us") + 1
    message = "budget 'wire' of 4099 us is below its derived bound of 4100 us"
    assert diagnostics_of(bad) == [Diagnostic(line, 1, message)]


def test_component_without_a_budget_takes_its_derived_bound(default_config_text):
    # the wire once dropped out of the sum, for a worst case of 147 000 us
    sc = load_scenario(patch(default_config_text, "budget.wire = 2600 us\n", ""))
    maxima = dict(sc.maxima)
    assert set(maxima) == {step.name for step in sc.plan}
    assert maxima["wire"] == 2600  # 1 300 us on each of its two traversals
    assert sc.worst_case_sfrt_us == 149_600
    # a budget above its derived bound still overrides it
    air_up = next(step.stage for step in sc.plan if step.name == "air_up")
    assert (air_up.upper_bound_us(), maxima["air_up"]) == (5666, 6000)


def test_scenario_without_budgets_reports_the_derived_sum(default_config_text, tmp_path):
    text = "".join(
        line for line in default_config_text.splitlines(keepends=True)
        if not line.startswith("budget.")
    )
    path = tmp_path / "unbudgeted.scenario"
    path.write_text(text)
    assert main(["run", str(path), "--deterministic", "--out", str(tmp_path / "o")]) == EXIT_OK
    safety = json.loads((tmp_path / "o" / "report.json").read_text())["safety"]
    assert set(safety["budget_us"]) == {step.name for step in load_scenario(text).plan}
    assert safety["worst_case_sfrt_us"] == 148_930
    assert safety["observed_max_us"] <= 148_930


@pytest.mark.parametrize(
    "cls, table",
    [
        (PlcConfig, config._PLC_FIELDS),
        (SignalSource, config._SOURCE_FIELDS),
        (IolwCellConfig, config._CELL_FIELDS),
    ],
    ids=["plc", "source", "cell"],
)
def test_section_types_hold_only_what_a_file_sets(cls, table):
    assert set(cls._fields) == {kw for kw, _ in table.values()}
