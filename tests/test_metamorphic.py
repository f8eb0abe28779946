"""Metamorphic relations of run(): changes to a scenario whose effect on the
result is known exactly, with no reference implementation to compare with.

- R1: prefixing every segment id with one string keeps their sorted order,
  so every stream and every statistic stays as it was.
- R2: a constant c us link appended to the return path, under an id that
  sorts after every other, shifts each delivered end-to-end latency by c.
- R3: at error_prob = 0.05, two attempts instead of three only lose
  toggles: each transfer takes one uniform, and its failures up to the
  second attempt do not depend on max_attempts.
- R5: at error_prob = 0, max_attempts changes nothing, loaded safety
  included.
- R6: reversing the [segment.<id>] sections and moving [plc] above
  [source] changes nothing: streams follow the sorted ids, not the order
  of the file.

R1-R5 run on the shipped scenario without its budget lines (so its
safety is the derived one, and renamed or added segments need no budget)
for seeds 0-4, and as a hypothesis property over random_scenario; R6 runs
on the shipped file and on the lossy digest scenario for seeds 0-4.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iolw5gsim.cli import default_scenario_path
from iolw5gsim.config import load_scenario
from iolw5gsim.fiveg import Constant
from iolw5gsim.scenario import POLL_WAIT, Scenario, SegmentSpec, run
from tests.test_digests import LOSSY_EMPIRICAL
from tests.test_scenario import random_scenario

SEEDS = range(5)
TAIL = "zz_tail"


def shipped_text() -> str:
    """The shipped scenario without its budget lines."""
    lines = default_scenario_path().read_text().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("budget."))


@pytest.fixture(scope="module")
def shipped() -> Scenario:
    return load_scenario(shipped_text())


def renamed(sc: Scenario, rename) -> Scenario:
    """sc with every segment id mapped through rename."""
    return dataclasses.replace(
        sc,
        segments={rename(sid): seg for sid, seg in sc.segments.items()},
        forward=[rename(sid) for sid in sc.forward],
        ret=[rename(sid) for sid in sc.ret],
    )


def with_tail(sc: Scenario, c: int) -> Scenario:
    """sc with a constant c us Ethernet link at the end of its return path."""
    assert TAIL > max(sc.segments)
    segments = {**sc.segments, TAIL: SegmentSpec("ethernet", model=Constant(c))}
    return dataclasses.replace(sc, segments=segments, ret=[*sc.ret, TAIL])


def with_air(sc: Scenario, error_prob: float, max_attempts: int) -> Scenario:
    """sc with every iolw-air hop at error_prob and max_attempts."""
    segments = dict(sc.segments)
    for sid, seg in sc.segments.items():
        if seg.kind == "iolw-air":
            transfer = dataclasses.replace(
                seg.transfer, per_subcycle_error_prob=error_prob, max_attempts=max_attempts
            )
            segments[sid] = SegmentSpec(seg.kind, transfer=transfer)
    return dataclasses.replace(sc, segments=segments)


def check_prefix(sc: Scenario, seed: int, prefix: str = "x_") -> None:
    """R1: every statistic, under the renamed keys, is as it was."""
    ids = sorted(sc.segments)
    assert sorted(prefix + sid for sid in ids) == [prefix + sid for sid in ids]
    base = run(sc, seed)
    moved = run(renamed(sc, lambda sid: prefix + sid), seed)
    assert moved.end_to_end == base.end_to_end
    key = {name: name if name == POLL_WAIT else prefix + name for name in base.components}
    assert moved.segment_stats == {key[name]: s for name, s in base.segment_stats.items()}


def check_tail(sc: Scenario, seed: int, c: int) -> None:
    """R2: each delivered end-to-end latency shifts by exactly c, and every
    other component keeps its statistics."""
    base = run(sc, seed)
    tailed = run(with_tail(sc, c), seed)
    tail = tailed.segment_stats.pop(TAIL)
    assert tailed.segment_stats == base.segment_stats
    e, f = base.end_to_end, tailed.end_to_end
    assert (f.count, f.losses) == (e.count, e.losses)
    assert f.total_us == e.total_us + c * e.count
    assert tail.max_us == (c if e.count else None)
    if e.count:
        assert (f.min_us, f.max_us) == (e.min_us + c, e.max_us + c)
    if c == 0:
        assert f == e
    elif c % 100 == 0:  # a whole number of bins
        assert f.histogram() == [(edge + c, n) for edge, n in e.histogram()]


def check_fewer_attempts(sc: Scenario, seed: int) -> int:
    """R3: max_attempts 2 instead of 3 at error_prob 0.05 only removes
    toggles; returns the losses it adds."""
    three = run(with_air(sc, 0.05, 3), seed)
    two = run(with_air(sc, 0.05, 2), seed)
    bins = dict(three.end_to_end.histogram())
    assert all(n <= bins.get(edge, 0) for edge, n in two.end_to_end.histogram())
    added = two.losses - three.losses
    assert added >= 0
    assert two.end_to_end.count == three.end_to_end.count - added
    return added


def check_lossless_attempts(sc: Scenario, seed: int) -> None:
    """R5: at error_prob 0, max_attempts 1, 3 and 7 give one result: equal
    air hop, end-to-end and every other statistics."""
    one, *others = (run(with_air(sc, 0.0, k), seed) for k in (1, 3, 7))
    assert all(other == one for other in others)


@pytest.mark.parametrize("seed", SEEDS)
def test_r1_prefixed_ids_keep_every_statistic(shipped, seed):
    check_prefix(shipped, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_r1_an_id_that_sorts_elsewhere_moves_the_streams(shipped, seed):
    # "a_wire" sorts first where "wire" sorted last, so the segments read
    # other streams: the relation above rests on the sorted order
    moved = renamed(shipped, lambda sid: "a_wire" if sid == "wire" else sid)
    assert sorted(moved.segments).index("a_wire") == 0
    assert sorted(shipped.segments).index("wire") == len(shipped.segments) - 1
    assert run(moved, seed).end_to_end != run(shipped, seed).end_to_end


@pytest.mark.parametrize("c", [0, 1200])
@pytest.mark.parametrize("seed", SEEDS)
def test_r2_a_constant_tail_shifts_end_to_end(shipped, seed, c):
    check_tail(shipped, seed, c)


@pytest.mark.parametrize("seed", SEEDS)
def test_r3_fewer_attempts_only_remove_toggles(shipped, seed):
    assert check_fewer_attempts(shipped, seed) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_r5_lossless_hops_ignore_max_attempts(shipped, seed):
    check_lossless_attempts(shipped, seed)


def test_r5_loaded_safety_ignores_max_attempts_at_error_prob_0():
    def loaded(error_prob, max_attempts):
        text = shipped_text()
        assert text.count("error_prob = 0.001\n") == text.count("max_attempts = 3\n") == 2
        text = text.replace("error_prob = 0.001\n", f"error_prob = {error_prob}\n")
        return load_scenario(text.replace("max_attempts = 3\n", f"max_attempts = {max_attempts}\n"))

    assert loaded(0, 1).maxima == loaded(0, 3).maxima == loaded(0, 7).maxima
    # with losses possible, every attempt adds to the air hops' derived bound
    assert loaded(0.001, 3).maxima != loaded(0.001, 7).maxima


def reordered(text: str) -> str:
    """text with its [segment.<id>] sections in reverse order and [plc]
    moved to just above [source]; a section runs from its header to the next."""
    assert text.endswith("\n")
    head, sections = "", []
    for line in text.splitlines(keepends=True):
        if line.startswith("["):
            sections.append(line)
        elif sections:
            sections[-1] += line
        else:
            head += line
    segments = [s for s in sections if s.startswith("[segment.")]
    sections = [segments.pop() if s.startswith("[segment.") else s for s in sections]
    headers = [s.splitlines()[0] for s in sections]
    assert headers.index("[source]") < headers.index("[plc]")
    plc = sections.pop(headers.index("[plc]"))
    sections.insert(headers.index("[source]"), plc)
    return head + "".join(sections)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("text", [default_scenario_path().read_text(), LOSSY_EMPIRICAL],
                         ids=["shipped", "lossy-empirical"])
def test_r6_section_order_changes_nothing(text, seed):
    base, moved = load_scenario(text), load_scenario(reordered(text))
    assert list(moved.segments) == list(reversed(base.segments))
    assert moved == base
    assert run(moved, seed) == run(base, seed)


scenarios = st.integers(0, 2**32 - 1).map(lambda s: random_scenario(random.Random(s)))
seeds = st.integers(0, 2**32 - 1)


@given(scenarios, seeds, st.sampled_from(["x_", "0", "air"]))
@settings(max_examples=40, deadline=None)
def test_r1_on_random_scenarios(sc, seed, prefix):
    check_prefix(sc, seed, prefix)


@given(scenarios, seeds, st.sampled_from([0, 1200, 37]))
@settings(max_examples=40, deadline=None)
def test_r2_on_random_scenarios(sc, seed, c):
    check_tail(sc, seed, c)


@given(scenarios, seeds)
@settings(max_examples=40, deadline=None)
def test_r3_on_random_scenarios(sc, seed):
    check_fewer_attempts(sc, seed)


@given(scenarios, seeds)
@settings(max_examples=40, deadline=None)
def test_r5_on_random_scenarios(sc, seed):
    check_lossless_attempts(sc, seed)
