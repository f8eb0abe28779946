"""Mutation checks: every named one-line mutant of the package must fail tier-1.

Run from the repository root:

    python -m tests.mutants

Each mutant replaces one line of a module under src/iolw5gsim, which must
be found exactly once, in a temporary copy of src/, tests/ and
pyproject.toml. The tier-1 tests then run on that copy with -x and
tests/test_digests.py deselected, so a mutant has to die on a test that
states a rule, not on a pinned digest. The unmutated copy runs first and
must pass. The runner prints each mutant's killing test and exits 1 if a
mutant survives, if its line is not found exactly once, or if the tests
stop for another reason (a collection error, an unmutated failure).

A rule a change adds gets its mutant here. An equivalent mutant, one no
input can tell apart, does not belong: `side="left"` in draw_retries, for
one, differs only when a uniform equals p**j exactly.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/iolw5gsim")
PYTEST = ("-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
          "--deselect", "tests/test_digests.py")


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/iolw5gsim
    old: str  # the whole line, without its indentation
    new: str
    why: str


MUTANTS = (
    Mutant("grid-bound", "scenario.py",
           "return self.period - 1 + self.extra",
           "return self.period - 2 + self.extra",
           "a Grid's bound 1 us short of its largest wait"),
    Mutant("air-bound", "scenario.py",
           "t = self.phase + np.arange(self.cell.subcycles_per_cycle) * self.cell.subcycle_us + 1",
           "t = self.phase + np.arange(self.cell.subcycles_per_cycle) * self.cell.subcycle_us + 2",
           "the Air bound's latest arrival 1 us late for each slot"),
    Mutant("plc-phase-range", "scenario.py",
           "periods = [scenario.cell.cycle_us, scenario.plc.task_cycle_us]",
           "periods = [scenario.cell.cycle_us, scenario.plc.query_cycle_us]",
           "the PLC phase drawn over the query cycle, not the task cycle"),
    Mutant("dither-range", "scenario.py",
           "t0 += floor_draws(dither_rng, scenario.plc.query_cycle_us, ints, u)",
           "t0 += floor_draws(dither_rng, scenario.plc.query_cycle_us - 1, ints, u)",
           "the dither 1 us short of one query cycle"),
    Mutant("idle-tail", "scenario.py",
           "scratch //= per_seq",
           "scratch //= per_seq + 1",
           "toggle times add the idle tail of the wrong sequences"),
    Mutant("air-slot-cap", "scenario.py",
           "np.minimum(ints, per_cycle, out=ints)",
           "np.minimum(ints, per_cycle - 1, out=ints)",
           "an arrival after a cycle's last sub-cycle rides that sub-cycle"),
    Mutant("retry-cap", "iolw.py",
           "retries[failing] = np.minimum(fails, k - 1)",
           "retries[failing] = np.minimum(fails, k - 2)",
           "a transfer's retries capped one attempt early"),
    Mutant("percentile-reach", "stats.py",
           "return self._upper_edges(np.searchsorted(cumulative * 100, [p * self.count]))[0]",
           "return self._upper_edges(np.searchsorted(cumulative * 100, [p * self.count], "
           "side=\"right\"))[0]",
           "a percentile's bin must pass p percent, not reach it"),
    Mutant("stream-id", "scenario.py",
           "stream = None if isinstance(stage, Grid) else 1 + ids.index(name)",
           "stream = None if isinstance(stage, Grid) else 2 + ids.index(name)",
           "each segment reads the stream of the next sorted id"),
    Mutant("traversal-ignored", "scenario.py",
           "rngs[-1].bit_generator.advance(step.traversal * scenario.source.toggles)",
           "rngs[-1].bit_generator.advance(0 * scenario.source.toggles)",
           "every traversal of a segment replays the first one's draws"),
    Mutant("poll-after-network", "scenario.py",
           "names.insert(first, POLL_WAIT)",
           "names.insert(first + 1, POLL_WAIT)",
           "the poll wait after the forward path's first network segment"),
    Mutant("budget-floor", "scenario.py",
           "maxima = tuple((name, max(b, self.budgets.get(name, 0))) for name, b in bounds.items())",
           "maxima = tuple((name, self.budgets.get(name, b)) for name, b in bounds.items())",
           "a budget below its component's bound lowers the safety maximum"),
    Mutant("budgets-aliased", "scenario.py",
           'object.__setattr__(self, "budgets", MappingProxyType(dict(self.budgets)))',
           'object.__setattr__(self, "budgets", self.budgets)',
           "a scenario holds the caller's budgets dict, open to edits in place"),
)


def locate(mutant: Mutant, root: Path) -> tuple[Path, list[str], int]:
    """The mutant's module under root, its lines, and the index of the one
    line equal to mutant.old; exits if there is not exactly one."""
    path = root / PACKAGE / mutant.module
    lines = path.read_text().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.strip() == mutant.old]
    if len(at) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} found {len(at)} times in {path.name}")
    return path, lines, at[0]


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's line in the copy at root, keeping its indentation."""
    path, lines, i = locate(mutant, root)
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + mutant.new + "\n"
    path.write_text("".join(lines))


def run_tests(root: Path) -> tuple[int, str]:
    """Exit code of tier-1 on the copy at root, and its first failing test."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, *PYTEST], cwd=root, env=env,
                          capture_output=True, text=True)
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return done.returncode, failed[0] if failed else (done.stdout.splitlines() or [""])[-1]


def main() -> int:
    for mutant in MUTANTS:  # every line is found before any test runs
        locate(mutant, ROOT)
    survivors = 0
    for mutant in [None, *MUTANTS]:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, root / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            shutil.copy(ROOT / "pyproject.toml", root)
            if mutant is not None:
                apply(mutant, root)
            start = time.perf_counter()
            code, first = run_tests(root)
        took = f"{time.perf_counter() - start:5.1f} s"
        if mutant is None:
            print(f"unmutated: exit {code} in {took}", flush=True)
            if code != 0:
                print(f"  the unmutated tests must pass: {first}")
                return 1
        elif code == 1:
            print(f"killed   {mutant.name:20} {took}  {first}", flush=True)
        else:
            survivors += 1
            state = "SURVIVED" if code == 0 else f"exit {code}"
            print(f"{state:8} {mutant.name:20} {took}  {mutant.why}: {first}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
