"""Bad copies of the shipped scenario.

Each mutant changes one to three lines of the shipped file: a key's value
from a pool of edge values, a duplicated line or a dropped one (a dropped
header moves its keys into the section before it). The loader must either
accept the copy or raise ScenarioError. One it accepts must hold a maximum
for every component and a worst case of at least the sum of its stages'
bounds, whether or not its budgets were dropped. One of at most MAX_TOGGLES
toggles must run, and each component's observed maximum must stay within
its stages' largest bound, the bound the loader checks the budgets and the
span of one histogram against.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from iolw5gsim.cli import default_scenario_path
from iolw5gsim.config import ScenarioError, load_scenario
from iolw5gsim.scenario import run
from iolw5gsim.stats import worst_case_sfrt

SHIPPED = default_scenario_path().read_text().splitlines()

EDGE_VALUES = [
    "0", "-1", "1", "-0", "1.5", "nan", "inf", "-inf", "1e308", "1e3", "9" * 30,
    f"{2**63 - 1} us", f"{2**53} us", f"{2**53 - 1} us", "0x10", "3 h", "", "true",
    "0.5 us", "-5 ms", "2 s", "100 ms", "83", "84", "1000", "1001",
    "wire, wire, plc", "plc", "constant", "empirical", "iolw-air", "fiveg",
    "100:1, 200:0", "0:0",
]

# a mutant of more toggles is loaded but not run, to keep the test to seconds
MAX_TOGGLES = 20_000


@st.composite
def mutants(draw) -> str:
    lines = list(SHIPPED)
    for _ in range(draw(st.integers(1, 3))):
        keys = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
        how = draw(st.sampled_from(["value", "duplicate", "drop"]))
        if how == "value":
            i = draw(st.sampled_from(keys))
            lines[i] = lines[i].split("=", 1)[0] + "= " + draw(st.sampled_from(EDGE_VALUES))
        else:
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [lines[i]] * (2 if how == "duplicate" else 0)
    return "\n".join(lines) + "\n"


@given(mutants())
@example("\n".join(line for line in SHIPPED if line != "budget.wire = 2600 us") + "\n")
@settings(max_examples=300, deadline=None)
def test_mutant_loads_or_is_rejected_and_runs_within_its_bounds(text):
    try:
        scenario = load_scenario(text)
    except ScenarioError:
        return
    stage_bounds = [step.stage.upper_bound_us() for step in scenario.plan]
    assert worst_case_sfrt(scenario.safety) >= sum(stage_bounds), text
    assert {name for name, _ in scenario.safety.segment_maxima} == {step.name for step in scenario.plan}
    if scenario.source.toggles > MAX_TOGGLES:
        return
    result = run(scenario, 1)
    bounds: dict[str, int] = {}
    for step, bound in zip(scenario.plan, stage_bounds):
        bounds[step.name] = max(bounds.get(step.name, 0), bound)
    for name, stats in result.segment_stats.items():
        assert stats.max_us is None or stats.max_us <= bounds[name], (name, text)
