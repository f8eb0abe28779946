"""Software-PLC timing model.

The PLC executes its program every task_cycle (default 5 ms) and polls the
W-Master process image every query_cycle (default 10 ms, an integer multiple
of the task cycle). Inputs are sampled at cycle start: a value arriving
mid-cycle is processed in the following cycle, and outputs publish at the
end of the processing cycle. Both timing rules map arrays of arrival times
element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fiveg import Constant, LatencyModel

DEFAULT_TASK_CYCLE_US = 5000
DEFAULT_QUERY_CYCLE_US = 10000


@dataclass
class PlcConfig:
    task_cycle_us: int = DEFAULT_TASK_CYCLE_US
    query_cycle_us: int = DEFAULT_QUERY_CYCLE_US
    phase_us: int = 0  # offset of the first cycle start; polls share the grid
    jitter: LatencyModel = field(default_factory=lambda: Constant(0))

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
        if self.phase_us < 0:
            v.append("phase must be >= 0")
        v += [f"jitter: {msg}" for msg in self.jitter.validate()]
        return v


def align_to_task_cycle(
    arrival: np.ndarray, cfg: PlcConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Output publication times for inputs arriving at `arrival`.

    An arrival exactly on a cycle start is processed in that cycle and
    publishes one task cycle later; any later arrival waits for the next
    cycle start and publishes at its end (two task cycles after the
    preceding start). Adds one jitter draw per arrival when an RNG is
    supplied.
    """
    task = cfg.task_cycle_us
    # the cycle start at or before arrival: arrival - (arrival - phase) % task,
    # with the remainder taken as x - x // task * task, half the cost on int64
    start = arrival - cfg.phase_us
    start //= task
    start *= task
    start += cfg.phase_us
    completion = start + task + (arrival != start) * task
    if rng is not None:
        completion = completion + cfg.jitter.sample(rng, len(arrival))
    return completion


def next_poll(t: np.ndarray, cfg: PlcConfig) -> np.ndarray:
    """First poll time >= t; polls occur at phase + k*query_cycle, k >= 0."""
    k = np.maximum(-((cfg.phase_us - t) // cfg.query_cycle_us), 0)
    return cfg.phase_us + k * cfg.query_cycle_us
