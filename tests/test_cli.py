import codecs
import hashlib
import json
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import iolw5gsim
from iolw5gsim.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    default_scenario_path,
    main,
)
from iolw5gsim.config import load_scenario
from iolw5gsim.report import build_report, write_report
from iolw5gsim.scenario import BLOCK, RunResult, run
from tests.test_config import MINIMAL, assert_rejected_at_path, patch, worst_case_message
from tests.test_digests import LOSSY_EMPIRICAL


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.scenario"
    path.write_text(MINIMAL)
    return path


def test_validate_default_scenario_ok(capsys):
    assert main(["validate", str(default_scenario_path())]) == EXIT_OK


def test_validate_capacity_violation(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text(patch(MINIMAL, "tracks = 2", "tracks = 6"))
    assert main(["validate", str(bad)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "tracks_per_master" in err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/x.scenario"]) == EXIT_IO


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_sweep_zero_seeds_is_usage_error(small_config, tmp_path, capsys):
    # every out-of-range count or seed is a usage error, never a traceback
    for argv in (
        ["sweep", "--seeds", "0"],
        ["run", "--seed", "-1"],
        ["sweep", "--seed", "-3", "--seeds", "2"],
        ["sweep", "--parallel", "0"],
        ["sweep", "--parallel", "-3"],
    ):
        out = tmp_path / "o"
        assert main([argv[0], str(small_config), *argv[1:], "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert "must be >=" in capsys.readouterr().err


def test_run_writes_json_report(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([
        "run", str(small_config), "--seed", "3", "--out", str(out),
        "--format", "json", "--deterministic",
    ]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["run"]["seeds"] == [3]
    assert report["run"]["timestamp"] is None
    assert report["end_to_end"]["count"] == report["run"]["toggles"]
    assert "cdf" in report


def test_run_invalid_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text(patch(MINIMAL, "tracks = 2", "tracks = 6"))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == EXIT_INVALID


def test_csv_format_writes_panel_tables(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([
        "run", str(small_config), "--out", str(out), "--format", "csv",
        "--deterministic",
    ]) == EXIT_OK
    hist = out / "hist_end_to_end.csv"
    assert hist.read_text().splitlines()[0] == "time_us,frequency"
    cdf = out / "cdf_end_to_end.csv"
    assert cdf.read_text().splitlines()[0] == "time_us,cumulative_fraction"
    assert (out / "hist_wire.csv").exists()
    assert (out / "summary.json").exists()


def test_deterministic_reports_are_byte_identical(small_config, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "run", str(small_config), "--seed", "11", "--out", str(out),
            "--deterministic",
        ]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_sweep_parallelism_does_not_change_merged_report(small_config, tmp_path, capsys):
    outs = []
    for i, par in enumerate(("1", "3")):
        out = tmp_path / f"s{i}"
        outs.append(out)
        assert main([
            "sweep", str(small_config), "--seeds", "3", "--parallel", par,
            "--out", str(out), "--deterministic",
        ]) == EXIT_OK
    assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    per_seed = json.loads((outs[0] / "per_seed.json").read_text())
    assert sorted(per_seed) == ["1", "2", "3"]


def test_report_config_hash_matches_input_bytes(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(small_config), "--out", str(out), "--deterministic"])
    report = json.loads((out / "report.json").read_text())
    expected = hashlib.sha256(small_config.read_bytes()).hexdigest()
    assert report["run"]["config_sha256"] == expected


@pytest.mark.parametrize("argv", [["validate"], ["run", "--out", "o"]])
def test_non_utf8_config_exits_2_with_location(argv, tmp_path, monkeypatch, capsys):
    # a Latin-1 micro sign (0xb5) after a two-byte UTF-8 character: the
    # column counts characters, so the bad byte is in column 21, not byte 22
    bad = tmp_path / "latin1.scenario"
    good, rest = MINIMAL.split("value = 700 us", 1)
    bad.write_bytes(good.encode() + "value = 700 us # é, ".encode() + b"\xb5" + rest.encode())
    monkeypatch.chdir(tmp_path)
    assert main([argv[0], str(bad), *argv[1:]]) == EXIT_INVALID
    line = good.count("\n") + 1
    assert f"{bad}:{line}:21: invalid UTF-8 byte 0xb5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["validate"], ["run", "--out", "o"]])
def test_utf8_bom_is_skipped(argv, tmp_path, monkeypatch, capsys):
    # a BOM-prefixed scenario loads, and its hash is of the raw bytes, BOM
    # included; columns count from after the BOM
    monkeypatch.chdir(tmp_path)
    ok = tmp_path / "bom.scenario"
    ok.write_bytes(codecs.BOM_UTF8 + MINIMAL.encode())
    assert main([argv[0], str(ok), *argv[1:]]) == EXIT_OK
    if argv[0] == "run":
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["run"]["config_sha256"] == hashlib.sha256(ok.read_bytes()).hexdigest()
    bad = tmp_path / "bom-latin1.scenario"
    bad.write_bytes(codecs.BOM_UTF8 + "# é, ".encode() + b"\xb5\n" + MINIMAL.encode())
    assert main([argv[0], str(bad), *argv[1:]]) == EXIT_INVALID
    assert f"{bad}:1:6: invalid UTF-8 byte 0xb5" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_run_is_the_one_seed_sweep(fmt, small_config, tmp_path, capsys):
    outs = {}
    for command, extra in (("run", []), ("sweep", ["--seeds", "1"])):
        outs[command] = tmp_path / command
        assert main([
            command, str(small_config), "--seed", "3", *extra, "--format", fmt,
            "--out", str(outs[command]), "--deterministic",
        ]) == EXIT_OK
        stdout = json.loads(capsys.readouterr().out)
        if command == "run":
            assert sorted(stdout) == ["end_to_end_mean_us", "files", "losses", "p99_us"]
    files = {c: sorted(p.name for p in out.iterdir()) for c, out in outs.items()}
    assert files["sweep"] == sorted(files["run"] + ["per_seed.json"])
    for name in files["run"]:
        assert (outs["run"] / name).read_bytes() == (outs["sweep"] / name).read_bytes()


def test_cli_import_leaves_multiprocessing_out():
    # sweeps run their seeds one after another, so no command pays for the
    # imports of a process or thread pool
    code = (
        "import sys, iolw5gsim.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    src = str(Path(iolw5gsim.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_package_root_holds_only_its_version():
    # every name is imported from the module that defines it
    code = (
        "import sys, iolw5gsim as m; "
        "print([n for n in vars(m) if not n.startswith('__')], "
        "sorted(k for k in sys.modules if k.startswith('iolw5gsim')), m.__version__)"
    )
    src = str(Path(iolw5gsim.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == f"[] ['iolw5gsim'] {iolw5gsim.__version__}"


# The copy of the shipped scenario that CI's smoke test also replays, as
# (old, new) line edits: 6000 sequences (150 000 toggles, three blocks of run()).
REPLAY_COPIES = {
    "long": [("sequences = 540\n", "sequences = 6000\n")],
}


def replay_copy(text, copy):
    for old, new in REPLAY_COPIES[copy]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    return text


@pytest.mark.parametrize("copy", sorted(REPLAY_COPIES))
def test_replay_copies_are_deterministic_and_merge_in_any_order(
    copy, default_config_text, tmp_path, capsys
):
    text = replay_copy(default_config_text, copy)
    path = tmp_path / f"{copy}.scenario"
    path.write_text(text)

    def files(out):
        """The report's files (CSV tables and summary.json) by name."""
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "per_seed.json"}

    def report(command, name, *extra):
        out = tmp_path / name
        argv = [command, str(path), *extra, "--format", "csv", "--out", str(out), "--deterministic"]
        assert main(argv) == EXIT_OK
        return files(out)

    first = report("run", "run")
    assert report("run", "replay") == first
    assert report("sweep", "sweep1", "--seeds", "1") == first
    swept = report("sweep", "sweep3", "--seeds", "3")
    scenario = load_scenario(text)
    merged = reduce(RunResult.merge, [run(scenario, seed) for seed in (3, 2, 1)])
    built = build_report(merged, scenario, path.read_bytes(), deterministic=True)
    write_report(built, merged, tmp_path / "reversed", fmt="csv")
    assert files(tmp_path / "reversed") == swept
    if copy == "long":
        assert 2 * BLOCK < scenario.source.toggles <= 3 * BLOCK


@pytest.mark.parametrize("command", ["validate", "run"])
def test_wide_copy_rejected_at_path(command, default_config_text, tmp_path, capsys):
    # nr_down uniform over 5 ms..10 s, its budget line deleted: its latencies
    # would span more than one histogram, so the loader rejects the paths
    nr_down = ("[segment.nr_down]\nkind = fiveg\nmodel = truncnorm\n"
               "mean = 10200 us\nstddev = 3 ms\nlow = 5 ms\nhigh = 26750 us\n")
    text = patch(default_config_text, nr_down,
                 "[segment.nr_down]\nkind = fiveg\nmodel = uniform\nlow = 5 ms\nhigh = 10 s\n")
    text = patch(text, "budget.nr_down = 53500 us\n", "")
    message = worst_case_message(148_930 + 2 * (10_000_000 - 26_750))  # both paths cross it
    assert_rejected_at_path(text, message, command, tmp_path, capsys)


@pytest.mark.parametrize("name", ["shipped", "lossy-empirical"])
def test_csv_files_are_the_reports_tables(name, default_config_text, tmp_path):
    # the CSV writer reads the report alone: its files hold the report's
    # histograms and cdf, and a result of None writes the same bytes
    text = {
        "shipped": default_config_text,
        "lossy-empirical": LOSSY_EMPIRICAL,
    }[name]
    scenario = load_scenario(text)
    result = run(scenario, 1)
    report = build_report(result, scenario, text.encode(), deterministic=True)
    if name == "lossy-empirical":
        assert report["segments"]["air_up"]["losses"] and report["segments"]["air_down"]["losses"]
    written = write_report(report, result, tmp_path / "result", fmt="csv")
    hists = {n: table for n, table in report["histograms"].items() if table}
    assert [p.name for p in written] == [
        "summary.json", *(f"hist_{n}.csv" for n in hists), "cdf_end_to_end.csv"
    ]
    for n, table in hists.items():
        header, *rows = (tmp_path / "result" / f"hist_{n}.csv").read_text().splitlines()
        assert header == "time_us,frequency"
        assert [tuple(map(int, row.split(","))) for row in rows] == [tuple(r) for r in table]
    header, *rows = (tmp_path / "result" / "cdf_end_to_end.csv").read_text().splitlines()
    assert header == "time_us,cumulative_fraction"
    assert rows == [f"{edge},{frac:.9f}" for edge, frac in report["cdf"]]
    unread = write_report(report, None, tmp_path / "none", fmt="csv")
    assert [p.name for p in unread] == [p.name for p in written]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(written, unread))
