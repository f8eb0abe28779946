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


def transfer_latencies(t_change, retries, model, cell):
    t_change = np.asarray(t_change, dtype=np.int64)
    return iolw.transfer_latencies(
        t_change, retries, model, cell, np.empty_like(t_change), np.empty_like(t_change)
    )


def next_poll(t, cfg):
    t = np.asarray(t, dtype=np.int64)
    return plc.next_poll(t, cfg, np.empty_like(t))


def align_to_task_cycle(arrival, cfg):
    arrival = np.asarray(arrival, dtype=np.int64)
    return plc.align_to_task_cycle(arrival, cfg, np.empty_like(arrival))


def toggle_times(source, first=0, n=None):
    """Times of toggles first .. first + n - 1, by default all of them."""
    n = source.toggles - first if n is None else n
    ramp = np.arange(n, dtype=np.int64)
    return source.toggle_times(first, np.empty_like(ramp), ramp, np.empty_like(ramp))
