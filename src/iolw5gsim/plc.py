"""Software-PLC timing model.

The PLC executes its program every task_cycle (default 5 ms) and polls the
W-Master process image every query_cycle (default 10 ms, an integer multiple
of the task cycle). Inputs are sampled at cycle start: a value arriving
mid-cycle is processed in the following cycle, and outputs publish at the
end of the processing cycle, plus a fixed jitter added to every
publication. Task cycles and polls start on one grid, offset by a phase
the caller passes. Both timing rules map arrays of arrival times
element-wise, into an array the caller passes.
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


def align_to_task_cycle(
    arrival: np.ndarray, cfg: PlcConfig, phase: int, out: np.ndarray
) -> np.ndarray:
    """Output publication times for inputs arriving at `arrival`, into the
    int64 out, on the task grid whose cycles start at phase + k*task_cycle.

    An arrival exactly on a cycle start is processed in that cycle and
    publishes one task cycle later; any later arrival waits for the next
    cycle start and publishes at its end (two task cycles after the
    preceding start). Every publication is then delayed by the fixed
    jitter_us. So a publication is one task cycle plus the jitter after the
    first cycle start at or after the arrival.
    """
    task = cfg.task_cycle_us
    # the first cycle start at or after arrival: phase - (phase - arrival) // task * task
    np.subtract(phase, arrival, out=out)
    out //= task
    out *= -task
    out += phase + task + cfg.jitter_us
    return out


def next_poll(t: np.ndarray, cfg: PlcConfig, phase: int, out: np.ndarray) -> np.ndarray:
    """First poll times >= t, into the int64 out; polls occur at
    phase + k*query_cycle, k >= 0."""
    np.subtract(phase, t, out=out)
    out //= cfg.query_cycle_us
    np.minimum(out, 0, out=out)  # k >= 0
    out *= -cfg.query_cycle_us
    out += phase
    return out
