"""Software-PLC timing model.

The PLC executes its program every task_cycle (default 5 ms) and polls the
W-Master process image every query_cycle (default 10 ms, an integer multiple
of the task cycle). Task cycles and polls start on one grid, offset by a
phase the caller passes. grid_wait, the wait from an arrival to the first
grid point at or after it, is the loop's one clock rule: the run takes the
W-Master cycle wait, the task-cycle wait and the poll wait from it, each on
its own grid and phase. A change waits that long for the next poll. An
input waits that long for the next cycle start, as one arriving mid-cycle
is processed in the following cycle; its output publishes at the end of
that cycle, plus a fixed jitter, so the caller adds task_cycle + jitter to
the wait. The kernel maps arrays of arrival times element-wise, into an
array the caller passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TASK_CYCLE_US = 5000
DEFAULT_QUERY_CYCLE_US = 10000


@dataclass
class PlcConfig:
    task_cycle_us: int = DEFAULT_TASK_CYCLE_US
    query_cycle_us: int = DEFAULT_QUERY_CYCLE_US
    jitter_us: int = 0  # fixed delay added to every publication

    def validate(self) -> list[str]:
        v = []
        if self.task_cycle_us <= 0:
            v.append("task_cycle must be > 0")
        if self.query_cycle_us <= 0:
            v.append("query_cycle must be > 0")
        if (
            self.task_cycle_us > 0
            and self.query_cycle_us > 0
            and self.query_cycle_us % self.task_cycle_us != 0
        ):
            v.append(
                f"query_cycle {self.query_cycle_us} us must be an integer "
                f"multiple of task_cycle {self.task_cycle_us} us"
            )
        if self.jitter_us < 0:
            v.append("jitter must be >= 0")
        return v


def grid_wait(
    t: np.ndarray, period: int, phase: int, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Waits from each t to the first grid point phase + k*period at or
    after it, (phase - t) mod period, into the int64 out; scratch is int64
    of t's length."""
    # taken as x - x // period * period: the same for a positive period at
    # a fraction of np.remainder's cost on int64
    np.subtract(phase, t, out=scratch)
    np.floor_divide(scratch, period, out=out)
    out *= period
    np.subtract(scratch, out, out=out)
    return out
