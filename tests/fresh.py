"""The package's kernels on fresh arrays.

Every kernel writes into arrays its caller passes, so that a run reuses one
set of buffers for all its blocks. These wrappers allocate those arrays and
return the result, for tests that check a kernel on its own.
"""

from __future__ import annotations

import numpy as np

from iolw5gsim import iolw, plc


def sample(model, rng, n):
    """n delays drawn from a latency model."""
    return model.sample(rng, np.empty(n, dtype=np.int64), np.empty(n), np.empty(n, dtype=bool))


def draw_retries(n, model, rng):
    """Retries used by n transfers, and which of them were lost (a mask)."""
    retries = np.empty(n, dtype=np.intp)
    lost = np.zeros(n, dtype=bool)
    lost[iolw.draw_retries(model, rng, retries, np.empty(n), np.empty(n, dtype=bool))] = True
    return retries, lost


def transfer_latencies(t_change, retries, model, cell, phase=0):
    """Latencies of transfers starting at t_change, in a cell whose cycles
    start at phase + k*cycle: run()'s grid wait, then the kernel."""
    wait = grid_wait(t_change, cell.cycle_us, phase)
    return iolw.transfer_latencies(wait, retries, model, cell, wait, np.empty_like(wait))


def grid_wait(t, period, phase=0):
    t = np.asarray(t, dtype=np.int64)
    return plc.grid_wait(t, period, phase, np.empty_like(t), np.empty_like(t))


def next_poll(t, cfg, phase=0):
    """First poll times at or after t, on the grid phase + k*query_cycle."""
    return t + grid_wait(t, cfg.query_cycle_us, phase)


def align_to_task_cycle(arrival, cfg, phase=0):
    """Output publication times for inputs arriving at `arrival`, on the task
    grid phase + k*task_cycle: one task cycle plus the jitter after the
    first cycle start at or after the arrival."""
    wait = grid_wait(arrival, cfg.task_cycle_us, phase)
    return arrival + wait + cfg.task_cycle_us + cfg.jitter_us


def toggle_times(source, first=0, n=None):
    """Times of toggles first .. first + n - 1, by default all of them."""
    n = source.toggles - first if n is None else n
    ramp = np.arange(n, dtype=np.int64)
    return source.toggle_times(first, np.empty_like(ramp), ramp, np.empty_like(ramp))
