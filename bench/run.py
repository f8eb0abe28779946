#!/usr/bin/env python3
"""Benchmark of the iolw5gsim simulator: host time end to end and per layer.

Run from the repository root (numpy is the only requirement):

    python3 bench/run.py --workload paper-default --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --out bench/baseline.json

A run repeats its workload until ``--seconds`` have passed and reports
medians of host times scaled to a reference host speed, which
calibrate.py measures next to each of them. Each repetition drives the
``iolw5gsim`` CLI in a fresh subprocess, replays the same seeds in process
through ``run``/``sweep`` and ``build_report``/``write_report``, times a
fresh ``import`` plus ``load_scenario``, and gates every output (see
workloads.py). With ``--trace 0`` nothing is wrapped and the last stdout
line carries the end-to-end metrics. With ``--trace 1`` each repetition
additionally runs with the layers' public entry points wrapped, and the
last line carries the per-layer metrics. ``--workload all`` runs every
workload both ways in subprocesses and prints one table.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record (environment,
sample counts, quartiles, gate failures) and the spans of a traced run are
written under ``.bench_out/``. The program is taken from ``src/`` next to
this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median

import calibrate
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "iolw5gsim"
sys.path.insert(0, str(SRC))
OUT = ROOT / ".bench_out"
DEFAULT_SCENARIO = SRC / PACKAGE / "data" / "default.scenario"

# A single-workload run must end within 180 s; stop starting repetitions and
# kill stuck commands so that it does.
DEADLINE_S = 165.0
MIN_REPS = {0: 3, 1: 1}
REPORT_REPEATS = 5  # report build+write takes a few ms, so take several per repetition
SIM_REPEATS = 2  # timed in-process simulations per repetition
CLI_REPEATS = 2  # timed CLI runs per repetition; each output is gated
SETUP_REPEATS = 2
SPAN_REPS_KEPT = 2  # a traced repetition records 0.5-2 M spans; later ones are only totalled

# Each end-to-end value is the median of its samples, every sample scaled
# to the reference host speed: simulate times by calibrate.loop() run before
# and after, wall_s by the wall time of calibrate.py children run before and
# after, setup_s by an `import numpy` child run just before and the loop (see
# repetition()). The loop and calibrate.py run on as many CPUs at once as
# the workload: one per worker.
# The record keeps the unscaled samples too. report_s (build_report +
# write_report, 2-4 ms) is summarised the same way but is a per-layer
# metric: its ten-run spread on CSV output reached 0.2, too close to the
# largest regression bound (0.25) a benchmark metric may have.
END_TO_END = {
    "toggles_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenario.self_s": "s",
    "kernel.events": "count",
    "kernel.self_s": "s",
    "fiveg.truncnorm_calls": "count",
    "fiveg.truncnorm_s": "s",
    "fiveg.truncnorm_clamp_events": "count",
    "fiveg.empirical_calls": "count",
    "fiveg.empirical_s": "s",
    "fiveg.uniform_calls": "count",
    "fiveg.uniform_s": "s",
    "fiveg.constant_calls": "count",
    "fiveg.constant_s": "s",
    "fiveg.self_s": "s",
    "iolw.transfer_calls": "count",
    "iolw.transfer_s": "s",
    "iolw.attempts_per_transfer": "ratio",
    "iolw.useful_ratio": "ratio",
    "iolw.loss_ratio": "ratio",
    "plc.align_calls": "count",
    "plc.align_s": "s",
    "plc.poll_calls": "count",
    "plc.poll_s": "s",
    "plc.self_s": "s",
    "stats.add_calls": "count",
    "stats.add_s": "s",
    "stats.merge_calls": "count",
    "stats.merge_s": "s",
    "stats.percentile_s": "s",
    "stats.cdf_s": "s",
    "stats.bins": "count",
    "stats.self_s": "s",
    "report.build_s": "s",
    "report.write_s": "s",
    "report.bytes": "bytes",
    "report.self_s": "s",
    "report_s": "s",
    "config.load_s": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "scenario.sweep_serial_s": "s",
    "scenario.parallel_speedup": "ratio",
    "scenario.pool_overhead_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# Public entry points wrapped in the traced run, resolved by name at run
# time: (span name, "module:qualname"). Self time of a layer is the self time
# of its spans; scenario.action is the kernel callback (per-toggle glue).
ENTRY_POINTS = (
    ("scenario.run", "scenario:run"),
    ("scenario.sweep", "scenario:sweep"),
    ("kernel.schedule", "kernel:Simulator.schedule"),
    ("kernel.run_until", "kernel:Simulator.run_until"),
    ("fiveg.truncnorm", "fiveg:TruncNormal.sample"),
    ("fiveg.empirical", "fiveg:Empirical.sample"),
    ("fiveg.uniform", "fiveg:Uniform.sample"),
    ("fiveg.constant", "fiveg:Constant.sample"),
    ("iolw.transfer", "iolw:transfer_latency"),
    ("plc.align", "plc:align_to_task_cycle"),
    ("plc.poll", "plc:next_poll"),
    ("stats.add", "stats:LatencyStats.add"),
    ("stats.merge", "stats:LatencyStats.merge"),
    ("stats.percentile", "stats:LatencyStats.percentile"),
    ("stats.cdf", "stats:LatencyStats.cdf"),
    ("stats.histogram", "stats:LatencyStats.histogram"),
    ("report.build", "report:build_report"),
    ("report.write", "report:write_report"),
    ("config.load", "config:load_scenario"),
)

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import iolw5gsim
from iolw5gsim.config import load_scenario
with open(sys.argv[1], encoding="utf-8") as fh:
    load_scenario(fh.read())
print(time.perf_counter() - t0)
"""

IMPORT_CHILD = """
import sys, time
from importlib import import_module
t0 = time.perf_counter()
import_module(sys.argv[1])
print(time.perf_counter() - t0)
"""

CLI_MODULE = f"{PACKAGE}.cli"  # has a __main__ guard, so `python -m` runs the CLI


# iolw-air transfers seen by the traced run; attempts are derived outside the
# package from each returned latency and the public next_subcycle_start.
COUNTERS = ("transfers", "lost", "attempts", "underived")


def entry_points(tracer: Tracer, counters: dict[str, int]) -> list[tuple]:
    """ENTRY_POINTS as Tracer.install targets, with the two hooks they need."""
    iolw = importlib.import_module(f"{PACKAGE}.iolw")
    next_start = getattr(iolw, "next_subcycle_start", None)

    def after_transfer(args, latency):
        counters["transfers"] += 1
        try:
            t, model, cell = args[0], args[1], args[2]
            if latency is None:
                counters["lost"] += 1
                counters["attempts"] += model.max_attempts
                return
            boundary = next_start(t, cell)
            for k in range(1, model.max_attempts + 1):
                if boundary - t + model.completion_offset_us == latency:
                    counters["attempts"] += k
                    return
                boundary = next_start(boundary + 1, cell)
        except (IndexError, AttributeError, TypeError):
            pass
        counters["underived"] += 1

    def adapt_schedule(schedule):
        # charge the kernel's callbacks (per-toggle glue) to the scenario layer
        def traced_schedule(sim, due, action, *rest, **kw):
            return schedule(sim, due, tracer.span("scenario.action", action), *rest, **kw)
        return traced_schedule

    # a span of its own, mapped to no layer, keeps the derivation out of the
    # enclosing scenario.action's self time
    after_transfer = tracer.span("trace.hook", after_transfer)

    return [
        (
            name,
            f"{PACKAGE}.{where}",
            adapt_schedule if name == "kernel.schedule" else None,
            after_transfer if name == "iolw.transfer" else None,
        )
        for name, where in ENTRY_POINTS
    ]


def layer_metrics(totals: dict[str, tuple[int, float]], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition from its span totals and counters.

    An entry point that was absent has no totals and so reports 0.
    """
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    c = counters
    layer = {
        "scenario.self_s": secs("scenario.run", "scenario.action"),
        "kernel.events": calls("kernel.schedule"),
        "kernel.self_s": secs("kernel.schedule", "kernel.run_until"),
        "fiveg.self_s": secs("fiveg.truncnorm", "fiveg.empirical", "fiveg.uniform", "fiveg.constant"),
        "iolw.transfer_calls": calls("iolw.transfer"),
        "iolw.transfer_s": secs("iolw.transfer"),
        "iolw.attempts_per_transfer": c["attempts"] / c["transfers"] if c["transfers"] else 0.0,
        "iolw.useful_ratio": (c["transfers"] - c["lost"]) / c["attempts"] if c["attempts"] else 0.0,
        "iolw.loss_ratio": c["lost"] / c["transfers"] if c["transfers"] else 0.0,
        "iolw.underived_attempts": c["underived"],
        "plc.align_calls": calls("plc.align"),
        "plc.align_s": secs("plc.align"),
        "plc.poll_calls": calls("plc.poll"),
        "plc.poll_s": secs("plc.poll"),
        "plc.self_s": secs("plc.align", "plc.poll"),
        "stats.add_calls": calls("stats.add"),
        "stats.add_s": secs("stats.add"),
        "stats.merge_calls": calls("stats.merge"),
        "stats.merge_s": secs("stats.merge"),
        "stats.percentile_s": secs("stats.percentile"),
        "stats.cdf_s": secs("stats.cdf"),
        "stats.self_s": secs("stats.add", "stats.merge", "stats.percentile", "stats.cdf", "stats.histogram"),
        "report.build_s": secs("report.build"),
        "report.write_s": secs("report.write"),
        "report.self_s": secs("report.build", "report.write"),
        "config.load_s": secs("config.load"),
    }
    for kind in ("truncnorm", "empirical", "uniform", "constant"):
        layer[f"fiveg.{kind}_calls"] = calls(f"fiveg.{kind}")
        layer[f"fiveg.{kind}_s"] = secs(f"fiveg.{kind}")
    return layer


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def between_references(measure, reference, count: int) -> list[tuple]:
    """Call ``measure`` ``count`` times between ``count + 1`` calls of
    ``reference``; pair each result with the mean of its neighbouring
    references."""
    refs = [reference()]
    results = []
    for _ in range(count):
        results.append(measure())
        refs.append(reference())
    return [(result, (refs[i] + refs[i + 1]) / 2) for i, result in enumerate(results)]


class CommandTimeout(RuntimeError):
    """A subprocess outlived the run's deadline and was killed."""


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Bench:
    """One workload, one seed, one trace mode."""

    def __init__(self, workload, seed: int, trace: bool, run_dir: Path) -> None:
        import iolw5gsim.config
        import iolw5gsim.report
        import iolw5gsim.scenario

        self.w = workload
        self.seed = seed
        self.trace = trace
        self.run_dir = run_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.config_mod = iolw5gsim.config
        self.report_mod = iolw5gsim.report
        self.scenario_mod = iolw5gsim.scenario
        self.workers = len(os.sched_getaffinity(0))
        self.seeds_per_rep = self.workers if workload.command == "sweep" else 1
        self.ref_workers = self.workers if workload.command == "sweep" else 1
        self.toggles = workloads.TOGGLES_PER_SEED * self.seeds_per_rep
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cli_argv = [sys.executable, "-m", CLI_MODULE]
        self.samples: dict[str, list[float]] = {}
        self.layers: list[dict[str, float]] = []
        self.failures: list[str] = []
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.mean_errors: list[float] = []
        self.absent: list[str] = []
        self.tracer = None
        self.scale: dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)

    # -- plumbing ---------------------------------------------------------

    def add(self, name: str, value: float, scale: float | None = None) -> None:
        """Record a sample; a time is stored scaled, and unscaled as ``raw name``."""
        if scale is not None:
            self.samples.setdefault("raw " + name, []).append(value)
            value *= scale
        self.samples.setdefault(name, []).append(value)

    def reference_children(self) -> float:
        """Wall seconds of calibrate.py run by one child per worker of the
        workload, all at once."""
        argv = [sys.executable, str(BENCH_DIR / "calibrate.py")]
        logs = [self.run_dir / f"calibrate{i}.log" for i in range(self.ref_workers)]
        t0 = time.perf_counter()
        with ThreadPoolExecutor(len(logs)) as threads:
            codes = list(threads.map(lambda log: self.spawn(argv, log)[0], logs))
        wall = time.perf_counter() - t0
        if any(codes):
            raise RuntimeError(f"calibrate.py exited {codes}: {logs[0].read_text()[-500:]}")
        return wall

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Run a child to completion: (exit code, wall seconds, peak RSS in MB).

        The peak RSS comes from wait4 and covers the child and the children
        it reaped, such as the workers of a process pool.
        """
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise CommandTimeout("run deadline reached")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise CommandTimeout(f"{argv[-1]} killed by signal {-proc.returncode}")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def child_seconds(self, code: str, arg: str, log_name: str) -> float:
        rc, _, _ = self.spawn([sys.executable, "-c", code, arg], self.run_dir / log_name)
        text = (self.run_dir / log_name).read_text()
        if rc != 0:
            raise RuntimeError(f"timing child exited {rc}: {text[-500:]}")
        return float(text.split()[-1])

    def cli(self, args: list[str], log_name: str = "cli.log") -> tuple[int, float, float, str]:
        rc, wall, rss = self.spawn(self.cli_argv + args, self.run_dir / log_name)
        return rc, wall, rss, (self.run_dir / log_name).read_text()[-2000:]

    def fresh(self, name: str) -> Path:
        path = self.run_dir / name
        shutil.rmtree(path, ignore_errors=True)
        return path

    def rep_seeds(self, rep: int) -> list[int]:
        base = self.seed * 10_000 + rep * self.seeds_per_rep
        return list(range(base, base + self.seeds_per_rep))

    def cli_args(self, seeds: list[int], out: Path) -> list[str]:
        args = [self.w.command, str(self.config_path), "--seed", str(seeds[0])]
        if self.w.command == "sweep":
            args += ["--seeds", str(len(seeds)), "--parallel", str(self.workers)]
        return args + ["--out", str(out), "--format", self.w.fmt, "--deterministic"]

    # -- the program's public API, looked up at call time so wrappers apply --

    def simulate(self, seeds: list[int], parallel: int | None = None):
        if self.w.command == "sweep":
            sweep = self.scenario_mod.sweep
            return workloads.merged_result(sweep(self.scenario, seeds, parallel or self.workers))
        return self.scenario_mod.run(self.scenario, seeds[0])

    def report(self, result, out: Path) -> dict:
        doc = self.report_mod.build_report(result, self.scenario, self.config_bytes, deterministic=True)
        self.report_mod.write_report(doc, result, out, fmt=self.w.fmt)
        return doc

    def timed(self, fn, *args):
        gc.collect()
        t0 = time.perf_counter()
        value = fn(*args)
        return time.perf_counter() - t0, value

    # -- phases -----------------------------------------------------------

    def prepare(self) -> None:
        """Write and validate the workload's input, then warm every path once."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        if self.w.name == "lossy-empirical":
            self.config_path = self.run_dir / "lossy-empirical.scenario"
            self.config_path.write_text(workloads.lossy_scenario_text(self.seed))
        else:
            self.config_path = DEFAULT_SCENARIO
        rc, _, _, log = self.cli(["validate", str(self.config_path)], "validate.log")
        if rc != 0:
            raise RuntimeError(f"iolw5gsim validate exited {rc}: {log}")
        self.config_bytes = self.config_path.read_bytes()
        self.config_text = self.config_bytes.decode("utf-8")
        self.scenario = self.config_mod.load_scenario(self.config_text)
        warm = [self.seed * 10_000 + 9_999]  # no repetition reaches this seed
        rc, _, _, log = self.cli(["run", str(self.config_path), "--seed", str(warm[0]),
                                  "--out", str(self.fresh("warm")), "--format", self.w.fmt])
        if rc != 0:
            raise RuntimeError(f"warm-up run exited {rc}: {log}")
        self.report(self.scenario_mod.run(self.scenario, warm[0]), self.fresh("warm"))
        self.child_seconds(SETUP_CHILD, str(self.config_path), "setup.log")

    def measure(self, seconds: float) -> None:
        start = time.monotonic()
        longest = 0.0
        rep = 0
        # start no repetition expected to end more than half a repetition past the budget
        while rep < MIN_REPS[self.trace] or time.monotonic() - start + longest / 2 < seconds:
            if rep and time.monotonic() + longest > self.deadline:
                self.notes.append(f"stopped after {rep} repetitions to end before the deadline")
                break
            t0 = time.monotonic()
            self.attempted += 1
            try:
                problems = self.repetition(rep)
            except CommandTimeout:
                raise
            except Exception:  # the program failed: count it and keep measuring
                problems = ["exception: " + traceback.format_exc(limit=4)]
            if problems:
                self.failed += 1
                self.failures += [f"rep {rep}: {p}" for p in problems]
            longest = max(longest, time.monotonic() - t0)
            rep += 1

    def repetition(self, rep: int) -> list[str]:
        seeds = self.rep_seeds(rep)
        api_out = self.fresh("api")
        sims = between_references(lambda: self.timed(self.simulate, seeds),
                                  lambda: calibrate.loop_seconds(self.ref_workers), SIM_REPEATS)
        result = sims[-1][0][1]
        report_s = []
        for _ in range(REPORT_REPEATS):
            shutil.rmtree(api_out, ignore_errors=True)
            seconds, doc = self.timed(self.report, result, api_out)
            report_s.append(seconds)

        cli_outs = [self.fresh(f"cli{i}") for i in range(CLI_REPEATS)]
        next_out = iter(cli_outs).__next__
        clis = between_references(lambda: self.cli(self.cli_args(seeds, next_out())),
                                  self.reference_children, CLI_REPEATS)
        for (rc, _, _, log), _ in clis:
            if rc != 0:
                return [f"CLI exited {rc}: {log}"]
        # a fresh import runs up to 2x faster right after another one, so each
        # setup child follows its own `import numpy` reference child
        setups = []
        for _ in range(SETUP_REPEATS):
            ref = self.child_seconds(IMPORT_CHILD, "numpy", "import.log")
            setups.append((self.child_seconds(SETUP_CHILD, str(self.config_path), "setup.log"), ref))

        self.scale = {"loop": calibrate.REF_LOOP_S / median(ref for _, ref in sims),
                      "child": calibrate.REF_CHILD_S / median(ref for _, ref in clis),
                      "import": calibrate.REF_IMPORT_S / median(ref for _, ref in setups)}
        for name, value in self.scale.items():
            self.add(f"speed.{name}", value)
        for (sim_s, _), ref in sims:
            self.add("sim_s", sim_s, calibrate.REF_LOOP_S / ref)
        for seconds in report_s:
            self.add("report_s", seconds, self.scale["loop"])
        for (_, wall, rss, _), ref in clis:
            self.add("wall_s", wall, calibrate.REF_CHILD_S / ref)
            self.add("peak_rss_mb", rss)
        for seconds, ref in setups:
            # numpy's import, most of set-up, has spells of its own (2-3x slower
            # while the loop runs at full speed), so it is scaled by its own
            # reference and the rest, the package's imports and parsing, like
            # the loop
            self.add("setup_s", calibrate.REF_IMPORT_S + (seconds - ref) * self.scale["loop"])
            self.add("raw setup_s", seconds)

        problems = [p for out in cli_outs for p in self.check(seeds, out, api_out)]
        if self.w.command == "sweep":
            problems += self.check_merge(seeds, doc)
        if self.trace:
            self.traced(rep, seeds)
        return problems

    def check(self, seeds: list[int], cli_out: Path, api_out: Path) -> list[str]:
        try:
            cli_doc = workloads.report_doc(cli_out, self.w.fmt)
            problems = workloads.check_report(self.w, cli_doc, self.toggles)
            if self.w.paper_testbed:
                self.mean_errors.append(workloads.mean_error(cli_doc))
            if self.w.command == "sweep":
                problems += workloads.check_per_seed(cli_out, seeds, cli_doc)
                (cli_out / "per_seed.json").unlink()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable CLI report: {exc!r}"]
        return problems + workloads.same_files(cli_out, api_out)

    def check_merge(self, seeds: list[int], doc: dict) -> list[str]:
        """Merging is order independent: fold the per-seed runs backwards."""
        runs = [self.scenario_mod.run(self.scenario, s) for s in reversed(seeds)]
        folded = runs[0]
        for r in runs[1:]:
            folded = folded.merge(r)
        rebuilt = self.report_mod.build_report(folded, self.scenario, self.config_bytes, deterministic=True)
        if json.dumps(rebuilt, sort_keys=True) != json.dumps(doc, sort_keys=True):
            return ["sweep result differs from the reverse-order merge of its per-seed runs"]
        return []

    # -- traced run -------------------------------------------------------

    def clamp_events(self) -> int:
        return sum(
            getattr(getattr(seg, "model", None), "clamp_events", 0)
            for seg in self.scenario.segments.values()
        )

    def traced(self, rep: int, seeds: list[int]) -> None:
        """Repeat the repetition's in-process work with every entry point wrapped."""
        self.add("import_s", self.child_seconds(IMPORT_CHILD, CLI_MODULE, "import.log"), self.scale["import"])
        loop_s = calibrate.timed_loop()
        if self.w.command == "sweep":
            serial_s, _ = self.timed(self.simulate, seeds, 1)
        if self.tracer is None:
            self.tracer = Tracer()
        tracer = self.tracer
        self.counters = dict.fromkeys(COUNTERS, 0)
        clamps = self.clamp_events()
        tracer.install(entry_points(tracer, self.counters), PACKAGE)
        self.absent = list(tracer.absent)
        tracer.begin_rep(rep)
        first = tracer.span_count
        out = self.fresh("traced")
        tracer.active = True
        try:
            self.config_mod.load_scenario(self.config_text)
            traced_s, result = self.timed(self.simulate, seeds)
            if self.w.command == "sweep":
                # pool workers lose their spans: trace a serial pass as well
                traced_s, _ = self.timed(self.simulate, seeds, 1)
            doc = self.report(result, out)
        finally:
            tracer.active = False
            tracer.uninstall()
        scale = calibrate.REF_LOOP_S / ((loop_s + calibrate.timed_loop()) / 2)
        if self.w.command == "sweep":
            self.add("serial_s", serial_s, scale)
        untraced_s = self.samples["serial_s" if self.w.command == "sweep" else "sim_s"][-1]
        layer = {name: value * scale if name.endswith("_s") else value
                 for name, value in layer_metrics(tracer.totals(first), self.counters).items()}
        layer.update({
            "fiveg.truncnorm_clamp_events": self.clamp_events() - clamps,
            "stats.bins": len(doc.get("histograms", {}).get("end_to_end", [])),
            "report.bytes": sum(p.stat().st_size for p in out.iterdir()),
            "trace.overhead_s": traced_s * scale - untraced_s,
            "trace.spans": tracer.span_count - first,
        })
        self.layers.append(layer)
        if len(tracer.rep_starts) > SPAN_REPS_KEPT:
            tracer.drop_rep()

    # -- results ----------------------------------------------------------

    def end_to_end(self) -> dict[str, dict]:
        """Median (the value), quartiles, best, sample count and unscaled median of each end-to-end metric."""
        out = {}
        for name, unit in {**END_TO_END, "report_s": "s"}.items():
            if name == "toggles_per_s":
                values = [self.toggles / x for x in self.samples["sim_s"]]
                raw = [self.toggles / x for x in self.samples["raw sim_s"]]
                best = max(values)
            else:
                values = self.samples[name]
                raw = self.samples.get("raw " + name, values)
                best = min(values)
            q1, q3 = quartiles(values)
            out[name] = {"value": median(values), "unit": unit, "samples": len(values), "q1": q1, "q3": q3,
                         "best": best, "unscaled_median": median(raw)}
        return out

    def per_layer(self) -> dict[str, float]:
        values = {name: median([layer[name] for layer in self.layers]) for name in self.layers[0]}
        s = self.samples
        parts = median(s["setup_s"]) + median(s["sim_s"]) + median(s["report_s"])
        values["report_s"] = median(s["report_s"])
        values["cli.import_s"] = median(s["import_s"])
        values["cli.overhead_s"] = median(s["wall_s"]) - parts
        if self.w.command == "sweep":
            values["scenario.sweep_serial_s"] = median(s["serial_s"])
            # unscaled: the serial pass runs on one CPU and the parallel one on
            # all of them, so their references differ, but a repetition runs
            # both at the same host speed
            serial, parallel = median(s["raw serial_s"]), median(s["raw sim_s"])
            values["scenario.parallel_speedup"] = serial / parallel
            values["scenario.pool_overhead_s"] = parallel - serial / min(self.workers, self.seeds_per_rep)
        else:
            values.update({"scenario.sweep_serial_s": 0.0, "scenario.parallel_speedup": 0.0,
                           "scenario.pool_overhead_s": 0.0})
        return values

    def record(self, env: dict) -> dict:
        rec = {
            "workload": self.w.name,
            "why": self.w.why,
            "seed": self.seed,
            "trace": int(self.trace),
            "loop": "closed, single driver",
            "environment": env,
            "toggles_per_repetition": self.toggles,
            "seeds_per_repetition": self.seeds_per_rep,
            "workers": self.workers if self.w.command == "sweep" else 1,
            "speed": {name[6:]: median(v) for name, v in self.samples.items() if name.startswith("speed.")},
            "repetitions": self.attempted,
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_ratio": self.failed / self.attempted,
            "failures": self.failures,
            "notes": self.notes,
            "end_to_end": self.end_to_end(),
            "samples": self.samples,
        }
        if self.mean_errors:
            rec["model.e2e_mean_err_pct"] = 100 * median(self.mean_errors)
        if self.trace:
            values = self.per_layer()
            rec["per_layer"] = {
                name: {"value": values.pop(name), "unit": unit} for name, unit in PER_LAYER.items()
            }
            rec["per_layer"].update({name: {"value": v, "unit": "count"} for name, v in values.items()})
            rec["absent_entry_points"] = self.absent
            rec["notes"] += [
                "per-layer values are medians over repetitions of each repetition's total",
                f"the spans file holds the first {SPAN_REPS_KEPT} traced repetitions",
                "end-to-end metrics come from unwrapped code; trace.overhead_s is traced minus untraced time",
            ]
            if self.w.command == "sweep":
                rec["notes"].append(
                    "pool workers lose their spans: per-layer values cover the parent side of the "
                    "parallel sweep plus a traced serial sweep of the same seeds"
                )
        return rec


def print_record(rec: dict) -> None:
    print(f"iolw5gsim benchmark: workload {rec['workload']}, seed {rec['seed']}, trace {rec['trace']}, "
          f"{rec['repetitions']} repetitions of {rec['toggles_per_repetition']} toggles "
          f"({rec['seeds_per_repetition']} seeds, {rec['workers']} workers)")
    print("  environment: " + ", ".join(f"{k} {v}" for k, v in rec["environment"].items()))
    print("  host speed against the reference (median): "
          + ", ".join(f"{k} {v:.3f}" for k, v in rec["speed"].items()))
    for name, m in rec["end_to_end"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6} median of {m['samples']} samples; "
              f"IQR {m['q1']:.6g}..{m['q3']:.6g}, best {m['best']:.6g}, unscaled median {m['unscaled_median']:.6g}")
    print(f"  {'failed_ratio':<30} {rec['failed_ratio']:>14.6g} {'ratio':<6} "
          f"{rec['failed']} failed of {rec['attempted']} repetitions")
    if "model.e2e_mean_err_pct" in rec:
        print(f"  {'model.e2e_mean_err_pct':<30} {rec['model.e2e_mean_err_pct']:>14.6g} {'%':<6} "
              f"vs the paper's {workloads.PAPER_MEAN_US / 1000} ms")
    for name, m in rec.get("per_layer", {}).items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    if rec.get("absent_entry_points"):
        print(f"  absent entry points (0 calls): {', '.join(rec['absent_entry_points'])}")
    for note in rec.get("notes", []):
        print(f"  note: {note}")
    for failure in rec["failures"]:
        print(f"  FAILED {failure}")


def bench_one(workload, seed: int, seconds: float, trace: bool) -> int:
    import iolw5gsim

    if Path(iolw5gsim.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {iolw5gsim.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    run_dir = OUT / f"{workload.name}-{os.getpid()}"
    bench = Bench(workload, seed, trace, run_dir)
    try:
        bench.prepare()
        bench.measure(seconds)
        if bench.tracer is not None:
            bench.tracer.write(OUT / f"{workload.name}-spans.npz")
    except (CommandTimeout, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if "sim_s" not in bench.samples or (trace and not bench.layers):
        print("error: no repetition completed; failures:\n" + "\n".join(bench.failures), file=sys.stderr)
        return 1
    rec = bench.record(env)
    (OUT / f"{workload.name}-trace{int(trace)}.json").write_text(json.dumps(rec, indent=2) + "\n")
    print_record(rec)
    metrics = rec["per_layer"] if trace else rec["end_to_end"]
    names = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in names.items()},
    }))
    return 0


def bench_all(seed: int, seconds: float, out: Path | None) -> int:
    """Every workload untraced and traced, each in its own process."""
    runs = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"error: {name} trace {trace} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            rec = json.loads((OUT / f"{name}-trace{trace}.json").read_text())
            runs.setdefault(name, {})[f"trace{trace}"] = rec
    summary = {
        "seed": seed,
        "seconds": seconds,
        "environment": environment(),
        "workloads": {
            name: {
                "why": r["trace0"]["why"],
                "toggles_per_repetition": r["trace0"]["toggles_per_repetition"],
                "repetitions": r["trace0"]["repetitions"],
                "failed_ratio": f"{r['trace0']['failed'] + r['trace1']['failed']}/"
                                f"{r['trace0']['attempted'] + r['trace1']['attempted']}",
                "speed": r["trace0"]["speed"],
                "end_to_end": r["trace0"]["end_to_end"],
                "per_layer": {k: v["value"] for k, v in r["trace1"]["per_layer"].items()},
                "absent_entry_points": r["trace1"]["absent_entry_points"],
                **({"model.e2e_mean_err_pct": r["trace0"]["model.e2e_mean_err_pct"]}
                   if "model.e2e_mean_err_pct" in r["trace0"] else {}),
            }
            for name, r in runs.items()
        },
    }
    text = json.dumps(summary, indent=2) + "\n"
    if out is not None:
        out.write_text(text)
    print(json.dumps({
        "correct": all(not r[t]["failures"] for r in runs.values() for t in r),
        "attempted": sum(r[t]["attempted"] for r in runs.values() for t in r),
        "failed": sum(r[t]["failed"] for r in runs.values() for t in r),
        "workloads": {n: {k: v["value"] for k, v in s["end_to_end"].items()}
                      for n, s in summary["workloads"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write the combined record here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return bench_all(args.seed, args.seconds, args.out)
    return bench_one(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
