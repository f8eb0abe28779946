"""Workload definitions, the seeded scenario generator and the correctness gates.

Every workload is closed-loop with a single driver: the benchmark issues one
command, waits for it, checks its outputs and only then issues the next.

The gates read only documented report keys (``run``, ``segments``,
``end_to_end``, ``safety``), so extra keys and a bumped ``schema_version``
are ignored. Simulated latencies are gates here, never regression metrics:
a vectorised sampler legitimately changes the draw order once.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The paper's measured end-to-end mean and 99th percentile limit.
PAPER_MEAN_US = 66_800
PAPER_MEAN_TOLERANCE = 0.10
PAPER_P99_LIMIT_US = 99_000

# 540 sequences x (5 s / 200 ms) toggles, as in the shipped scenario.
TOGGLES_PER_SEED = 13_500

# Loss gate: observed losses may differ from n * p^k by this many binomial
# standard deviations (plus one for tiny expectations). Five sigma keeps the
# false-alarm rate below 1e-6 per check.
LOSS_SIGMA = 5.0

LOSSY_ERROR_PROB = 0.3
LOSSY_MAX_ATTEMPTS = 5
LOSSY_EMPIRICAL_BINS = 120


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI sub-command: "run" or "sweep"
    fmt: str  # report format: "json" or "csv"
    paper_testbed: bool  # the shipped scenario, gated against the paper
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-default", "run", "json", True,
            "shipped testbed scenario: per-toggle glue, truncnorm draws and "
            "stats.add dominate; near-zero retries and no losses",
        ),
        Workload(
            "lossy-empirical", "run", "csv", False,
            "seeded scenario with lossy iolw-air (p=0.3, k=5) and empirical 5G "
            "tables: retry loop, loss path, empirical sampling, CSV report",
        ),
        Workload(
            "sweep", "sweep", "json", True,
            "multi-seed sweep over nproc workers: the only workload that runs "
            "the process pool, pickling and LatencyStats.merge",
        ),
    )
}


def lossy_scenario_text(seed: int) -> str:
    """Scenario for ``lossy-empirical``, a pure function of ``seed``.

    Topology, source and PLC grid are those of the shipped scenario. The
    iolw-air legs retry up to five times at p = 0.3, both 5G legs draw from
    120-bin empirical tables, Ethernet is uniform and the wire hop and PLC
    jitter are constant, so no truncnorm sampling happens at all. The
    budgets are true upper bounds of every component, so observed maxima
    must stay below them.
    """
    rnd = random.Random(seed)
    wire_us = rnd.randrange(500, 901)
    eth = [(lo, lo + rnd.randrange(800, 1401)) for lo in (rnd.randrange(500, 801) for _ in range(2))]
    jitter_us = rnd.randrange(0, 501)
    tables = []
    for _ in range(2):
        first_us = rnd.randrange(4000, 6001)
        step_us = 200
        shape = rnd.uniform(2.0, 4.0)
        scale = rnd.uniform(0.08, 0.15)
        weights = [
            x ** (shape - 1.0) * math.exp(-x / scale) + 1e-4
            for x in ((i + 0.5) / LOSSY_EMPIRICAL_BINS for i in range(LOSSY_EMPIRICAL_BINS))
        ]
        total = sum(weights)
        tables.append([(first_us + i * step_us, w / total) for i, w in enumerate(weights)])

    cycle_us, task_us, query_us = 5000, 5000, 10_000
    budgets = {
        "wire": 2 * wire_us,
        "air_up": LOSSY_MAX_ATTEMPTS * cycle_us,
        "air_down": LOSSY_MAX_ATTEMPTS * cycle_us,
        "eth_shop": 2 * eth[0][1],
        "eth_edge": 2 * eth[1][1],
        "nr_up": 2 * tables[0][-1][0],
        "nr_down": 2 * tables[1][-1][0],
        "poll_wait": query_us,
        "plc": 2 * task_us + jitter_us,
    }

    def empirical(table):
        return ", ".join(f"{d} us:{w:.6g}" for d, w in table)

    air = f"completion_offset = 667 us\nerror_prob = {LOSSY_ERROR_PROB}\nmax_attempts = {LOSSY_MAX_ATTEMPTS}\n"
    lines = [
        f"# lossy-empirical benchmark scenario, generated from seed {seed}",
        "[cell]",
        "masters = 1\ntracks = 2\nslots_per_track = 8\ndevices = 8\ncycle = 5 ms",
        "subcycles = 3\nsubcycle = 1664 us\nchannels = 40\nmin_hop_distance = 12",
        "[segment.wire]",
        f"kind = iol-wire\nmodel = constant\nvalue = {wire_us} us",
        "[segment.air_up]", "kind = iolw-air\n" + air,
        "[segment.air_down]", "kind = iolw-air\n" + air,
        "[segment.eth_shop]",
        f"kind = ethernet\nmodel = uniform\nlow = {eth[0][0]} us\nhigh = {eth[0][1]} us",
        "[segment.eth_edge]",
        f"kind = ethernet\nmodel = uniform\nlow = {eth[1][0]} us\nhigh = {eth[1][1]} us",
        "[segment.nr_up]",
        f"kind = fiveg\nmodel = empirical\nbins = {empirical(tables[0])}",
        "[segment.nr_down]",
        f"kind = fiveg\nmodel = empirical\nbins = {empirical(tables[1])}",
        "[segment.plc]", "kind = plc",
        "[path]",
        "forward = wire, air_up, eth_shop, nr_up, nr_down, eth_edge, plc",
        "return = eth_edge, nr_down, nr_up, eth_shop, air_down, wire",
        "[source]",
        "toggle_period = 200 ms\nsequences = 540\nsequence_length = 5 s",
        "[plc]",
        f"task_cycle = {task_us} us\nquery_cycle = {query_us} us\njitter = {jitter_us} us",
        "[safety]",
        "approach_speed = 2.0",
        *(f"budget.{name} = {us} us" for name, us in budgets.items()),
    ]
    return "\n".join(lines) + "\n"


# Traversal order of the iolw-air legs in the lossy scenario: a transfer
# reaches a leg only if no earlier leg lost it.
LOSSY_AIR_ORDER = ("air_up", "air_down")


def report_doc(out_dir: Path, fmt: str) -> dict:
    """The report's summary document: report.json, or summary.json for CSV."""
    name = "report.json" if fmt == "json" else "summary.json"
    return json.loads((out_dir / name).read_text())


def check_report(workload: Workload, doc: dict, toggles: int) -> list[str]:
    """Gate one report summary; returns the failed checks, empty when correct."""
    failures = []
    run, e2e, segments = doc["run"], doc["end_to_end"], doc["segments"]
    if run["toggles"] != toggles:
        failures.append(f"toggles {run['toggles']} != expected {toggles}")
    if e2e["count"] + e2e["losses"] != run["toggles"]:
        failures.append(
            f"end-to-end count {e2e['count']} + losses {e2e['losses']} != toggles {run['toggles']}"
        )
    seg_losses = sum(s["losses"] for s in segments.values())
    if e2e["losses"] != seg_losses or run["losses"] != e2e["losses"]:
        failures.append(
            f"end-to-end losses {e2e['losses']} != segment losses {seg_losses} (run {run['losses']})"
        )
    safety = doc.get("safety")
    if safety is not None and e2e["count"] and e2e["max_us"] > safety["worst_case_sfrt_us"]:
        failures.append(
            f"observed max {e2e['max_us']} us exceeds worst-case SFRT {safety['worst_case_sfrt_us']} us"
        )
    if workload.paper_testbed:
        err = mean_error(doc)
        if err > PAPER_MEAN_TOLERANCE:
            failures.append(f"mean {e2e['mean_us']:.0f} us is {err:.1%} off the paper's {PAPER_MEAN_US} us")
        if e2e["p99_us"] >= PAPER_P99_LIMIT_US:
            failures.append(f"p99 {e2e['p99_us']} us is not below {PAPER_P99_LIMIT_US} us")
        if safety is None:
            failures.append("shipped scenario report has no safety block")
    else:
        failures += check_air_losses(segments, run["toggles"])
    return failures


def mean_error(doc: dict) -> float:
    """Relative distance of the end-to-end mean from the paper's 66.8 ms."""
    return abs(doc["end_to_end"]["mean_us"] - PAPER_MEAN_US) / PAPER_MEAN_US


def check_air_losses(segments: dict, toggles: int) -> list[str]:
    """Each lossy iolw-air leg loses a share p^k of the transfers reaching it."""
    q = LOSSY_ERROR_PROB**LOSSY_MAX_ATTEMPTS
    failures, reaching = [], toggles
    for sid in LOSSY_AIR_ORDER:
        lost = segments[sid]["losses"]
        tol = LOSS_SIGMA * math.sqrt(reaching * q * (1 - q)) + 1
        if abs(lost - reaching * q) > tol:
            failures.append(
                f"{sid}: {lost} losses of {reaching} transfers, expected {reaching * q:.1f} +/- {tol:.1f}"
            )
        reaching -= lost
    return failures


def check_per_seed(out_dir: Path, seeds: list[int], doc: dict) -> list[str]:
    """per_seed.json names every seed and its toggles sum to the merged count."""
    per_seed = json.loads((out_dir / "per_seed.json").read_text())
    failures = []
    if sorted(int(s) for s in per_seed) != sorted(seeds):
        failures.append(f"per_seed.json seeds {sorted(per_seed)} != {seeds}")
    total = sum(v["toggles"] for v in per_seed.values())
    if total != doc["run"]["toggles"]:
        failures.append(f"per_seed.json toggles sum {total} != merged {doc['run']['toggles']}")
    return failures


def same_files(a: Path, b: Path) -> list[str]:
    """Byte-identical directory contents; returns the differences."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"files differ: {names_a} vs {names_b}"]
    return [
        f"{name} differs between the CLI run and the in-process replay"
        for name in names_a
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]


def merged_result(value):
    """The merged RunResult of a sweep() call.

    Accepts a RunResult, or a tuple/list holding one next to the per-seed
    results.
    """
    if hasattr(value, "end_to_end"):
        return value
    for item in value:
        if hasattr(item, "end_to_end"):
            return item
    raise TypeError(f"sweep() returned no merged result: {type(value).__name__}")
