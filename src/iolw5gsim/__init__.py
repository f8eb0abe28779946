"""Deterministic latency simulator for an IO-Link Wireless + 5G control loop.

Models a sensor-to-edge pipeline (wireless sensors -> W-Master -> Ethernet/5G
-> software PLC -> actuators), reproduces its latency distributions and
computes the worst-case safety function response time and the resulting
minimum safety distance.
"""

__version__ = "0.1.0"

from .config import Diagnostic, ScenarioError, load_scenario
from .fiveg import (
    Constant,
    Empirical,
    LatencyModel,
    NumerologyConfig,
    TruncNormal,
    Uniform,
    symbol_bandwidth_khz,
    symbol_duration_scaling,
)
from .iolw import (
    IolwCellConfig,
    IolwTransferModel,
    draw_retries,
    residual_error_prob,
    transfer_latencies,
    validate_cell,
)
from .kernel import rng_stream
from .plc import PlcConfig, align_to_task_cycle, next_poll
from .scenario import RunResult, Scenario, SegmentSpec, SignalSource, run, sweep
from .stats import (
    LatencyStats,
    SafetyParams,
    safety_distance,
    worst_case_sfrt,
)

__all__ = [
    "Constant",
    "Diagnostic",
    "Empirical",
    "IolwCellConfig",
    "IolwTransferModel",
    "LatencyModel",
    "LatencyStats",
    "NumerologyConfig",
    "PlcConfig",
    "RunResult",
    "SafetyParams",
    "Scenario",
    "ScenarioError",
    "SegmentSpec",
    "SignalSource",
    "TruncNormal",
    "Uniform",
    "align_to_task_cycle",
    "draw_retries",
    "load_scenario",
    "next_poll",
    "residual_error_prob",
    "rng_stream",
    "run",
    "safety_distance",
    "sweep",
    "symbol_bandwidth_khz",
    "symbol_duration_scaling",
    "transfer_latencies",
    "validate_cell",
    "worst_case_sfrt",
]
