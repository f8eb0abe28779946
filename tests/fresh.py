"""The package's kernels on fresh arrays.

Every kernel writes into arrays its caller passes, so that a run reuses one
set of buffers for all its blocks. These wrappers allocate those arrays and
return the result, for tests that check a kernel on its own. The grid
waits and the iolw-air latencies go through the stages Scenario.stages()
builds, so the tests run the code run() runs.
"""

from __future__ import annotations

import numpy as np

from iolw5gsim import iolw, plc
from iolw5gsim.fiveg import Constant
from iolw5gsim.iolw import IolwCellConfig, IolwTransferModel
from iolw5gsim.plc import PlcConfig
from iolw5gsim.scenario import Scenario, SegmentSpec, SignalSource
from iolw5gsim.stats import SafetyParams


def sample(model, rng, n):
    """n delays drawn from a latency model."""
    return model.sample(rng, np.empty(n, dtype=np.int64), np.empty(n))


def draw_retries(n, model, rng):
    """Retries used by n transfers, and which of them were lost (a mask)."""
    retries = np.empty(n, dtype=np.intp)
    lost = np.zeros(n, dtype=bool)
    lost[iolw.draw_retries(model, rng, retries, np.empty(n))] = True
    return retries, lost


def stages(cell=IolwCellConfig(), plc_cfg=PlcConfig(), transfer=None, iolw_phase=0, plc_phase=0):
    """The air, poll-wait and plc stages Scenario.stages() builds for the
    forward path air, eth, plc on the given cell, PLC and phases."""
    segments = {
        "air": SegmentSpec("iolw-air", transfer=transfer or IolwTransferModel(0)),
        "eth": SegmentSpec("ethernet", Constant(0)),
        "plc": SegmentSpec("plc"),
    }
    path = ["air", "eth", "plc"]
    scenario = Scenario(cell, segments, path, [], SignalSource(), plc_cfg, SafetyParams())
    air, poll, _, plc_stage = scenario.stages(iolw_phase, plc_phase)
    return air, poll, plc_stage


def durations(stage, t, draws=None):
    """A stage's durations for arrivals at t."""
    t = np.asarray(t, dtype=np.int64)
    return stage.durations(t, draws, np.empty_like(t), np.empty_like(t), np.empty(t.shape))


def transfer_latencies(t_change, retries, model, cell, phase=0):
    """Latencies of transfers starting at t_change, in a cell whose cycles
    start at phase + k*cycle."""
    return durations(stages(cell, transfer=model, iolw_phase=phase)[0], t_change, retries)


def grid_wait(t, period, phase=0):
    t = np.asarray(t, dtype=np.int64)
    return plc.grid_wait(t, period, phase, np.empty_like(t), np.empty_like(t))


def next_poll(t, cfg, phase=0):
    """First poll times at or after t, on the grid phase + k*query_cycle."""
    return t + durations(stages(plc_cfg=cfg, plc_phase=phase)[1], t)


def align_to_task_cycle(arrival, cfg, phase=0):
    """Output publication times for inputs arriving at `arrival`, on the task
    grid phase + k*task_cycle: one task cycle plus the jitter after the
    first cycle start at or after the arrival."""
    return arrival + durations(stages(plc_cfg=cfg, plc_phase=phase)[2], arrival)


def toggle_times(source, first=0, n=None):
    """Times of toggles first .. first + n - 1, by default all of them."""
    n = source.toggles - first if n is None else n
    ramp = np.arange(n, dtype=np.int64)
    return source.toggle_times(first, np.empty_like(ramp), ramp, np.empty_like(ramp))
