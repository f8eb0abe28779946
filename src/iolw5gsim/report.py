"""Report bundles: summaries, histogram tables and CDFs for run results."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from .scenario import RunResult, Scenario
from .stats import safety_distance

SCHEMA_VERSION = 1
TOOL_NAME = "iolw5gsim"


def _stats_summary(stats) -> dict:
    d: dict = {"count": stats.count, "losses": stats.losses}
    if stats.count:
        d.update(
            mean_us=stats.mean_us,
            min_us=stats.min_us,
            max_us=stats.max_us,
        )
    return d


def build_report(
    result: RunResult,
    scenario: Scenario,
    config_bytes: bytes,
    deterministic: bool = False,
) -> dict:
    """Assemble the full report; every number traces to a RunResult field."""
    from . import __version__

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "run": {
            "seeds": list(result.seeds),
            "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
            "timestamp": None if deterministic else time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "toggles": result.toggles,
            "losses": result.losses,
        },
        "segments": {
            name: _stats_summary(result.segment_stats[name])
            for name in sorted(result.segment_stats)
        },
        "end_to_end": _stats_summary(result.end_to_end),
        "histograms": {
            name: result.segment_stats[name].histogram()
            for name in sorted(result.segment_stats)
        },
    }
    if result.end_to_end.count:
        report["end_to_end"]["p50_us"] = result.end_to_end.percentile(50)
        report["end_to_end"]["p99_us"] = result.end_to_end.percentile(99)
        report["histograms"]["end_to_end"] = result.end_to_end.histogram()
        report["cdf"] = result.end_to_end.cdf()
    if scenario.maxima:
        sfrt = scenario.worst_case_sfrt_us
        dist = safety_distance(sfrt, scenario.approach_speed_mps)
        report["safety"] = {
            "approach_speed_mps": scenario.approach_speed_mps,
            "budget_us": dict(scenario.maxima),
            "worst_case_sfrt_us": sfrt,
            "safety_distance_m": dist.exact_m,
            "safety_distance_presented_m": dist.presented_m,
            "observed_max_us": result.end_to_end.max_us,
            "observed_worst_case_us": result.observed_worst_case_us(),
        }
    return report


def write_json(path: Path, obj) -> Path:
    """The one layout of every JSON file a run writes: sorted keys, 2-space indent."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def _write_csv(path: Path, header: str, rows) -> Path:
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def write_report(
    report: dict, result: RunResult | None, out_dir: Path, fmt: str = "json"
) -> list[Path]:
    """Write report.json, or for CSV summary.json (the report without its
    histograms and cdf) and one file per table of those two keys, skipping
    empty histograms; returns the paths. result is unread, kept for callers."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        return [write_json(out_dir / "report.json", report)]

    summary = {k: v for k, v in report.items() if k not in ("histograms", "cdf")}
    written = [write_json(out_dir / "summary.json", summary)]
    for name, table in report["histograms"].items():
        if table:
            rows = (f"{edge},{freq}" for edge, freq in table)
            written.append(_write_csv(out_dir / f"hist_{name}.csv", "time_us,frequency", rows))
    if "cdf" in report:
        rows = (f"{edge},{frac:.9f}" for edge, frac in report["cdf"])
        written.append(
            _write_csv(out_dir / "cdf_end_to_end.csv", "time_us,cumulative_fraction", rows)
        )
    return written
