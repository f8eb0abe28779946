"""Pinned digests of --deterministic reports.

A change meant to keep the simulated numbers must keep these digests; one
that changes them on purpose updates them here and says why. The report's
`tool` block (name and version) is left out of the hash.
"""

import hashlib
import json

import pytest

from iolw5gsim.cli import EXIT_OK, default_scenario_path, main

# Lossy iolw-air (p = 0.3, k = 5), empirical 5G and uniform Ethernet: no
# truncnorm model, so these reports do not depend on the truncnorm sampler.
LOSSY_EMPIRICAL = """
[cell]
masters = 1
tracks = 2
slots_per_track = 8
devices = 8

[segment.wire]
kind = iol-wire
model = constant
value = 700 us

[segment.air_up]
kind = iolw-air
completion_offset = 667 us
error_prob = 0.3
max_attempts = 5

[segment.air_down]
kind = iolw-air
completion_offset = 667 us
error_prob = 0.3
max_attempts = 5

[segment.eth]
kind = ethernet
model = uniform
low = 600 us
high = 2 ms

[segment.nr_up]
kind = fiveg
model = empirical
bins = 5 ms:1, 7 ms:4, 9 ms:6, 12 ms:3, 20 ms:0.5, 26 ms:0.1

[segment.nr_down]
kind = fiveg
model = empirical
bins = 6 ms:2, 8 ms:5, 10 ms:4, 15 ms:1, 24 ms:0.2

[segment.plc]
kind = plc

[path]
forward = wire, air_up, eth, nr_up, nr_down, plc
return = eth, nr_down, nr_up, air_down, wire

[source]
toggle_period = 200 ms
sequences = 40
sequence_length = 5 s

[plc]
task_cycle = 5 ms
query_cycle = 10 ms
jitter = 300 us

[safety]
approach_speed = 2.0
budget.wire = 1400 us
"""


def report_digest(config_path, seed, out):
    assert main(["run", str(config_path), "--seed", str(seed), "--deterministic",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "report.json").read_text())
    del doc["tool"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# Empirical delays are drawn from the alias table of their normalised
# weights, in place of an inverse-CDF search: the same distribution (see
# test_equivalence's chi-square against the search), but other draws.
# Re-pinned when every draw came to take one stream output: the uniform
# Ethernet delay is floor(u*K) of one double, not a bounded integer, the
# retries are inverted from one uniform a transfer, not drawn in rounds,
# and the second traversal of each link reads its own part of the stream.
# Re-pinned when a component without a budget came to take its derived
# bound: this scenario budgets only the wire, so its safety block went from
# a worst case of 1 400 us (the wire alone) to the derived sum of 143 702 us;
# nothing outside the safety block changed.
# Re-pinned when the clock phases and the dither came to be drawn as
# floor(u*K) of one double, as every other integer is, in place of numpy's
# bounded integers: each now takes exactly one stream output, so the seeds
# draw other phases and dither.
# Keyed by seed alone, so that a re-pin keeps the tests' names.
LOSSY_EMPIRICAL_DIGESTS = {
    1: "d133a566328113969fcc4f09bf916950131352ab9992c6df53434becfa0c24e8",
    2: "9039f58093c9318daf03f1831ead9f34a4ebe453fceb56c7101180ca87d3d49f",
}

# The shipped scenario at seed 1, its default; truncnorm delays drawn from
# the alias table of their integer pmf. Re-pinned when the phases and the
# dither came to be drawn as floor(u*K) of one double, with the [safety]
# comment rewritten (only the report's config_sha256 follows the comment).
# CI checks the installed package's `run --deterministic` against it too.
SHIPPED_DIGEST = "c14f2a1b6432c53f6dd70f27cde50f7296e7ce8562e05d6f832bbd074ea87384"


@pytest.mark.parametrize("seed", LOSSY_EMPIRICAL_DIGESTS)
def test_lossy_empirical_report_digest(seed, tmp_path, capsys):
    config = tmp_path / "lossy.scenario"
    config.write_text(LOSSY_EMPIRICAL)
    assert report_digest(config, seed, tmp_path / "out") == LOSSY_EMPIRICAL_DIGESTS[seed]


def test_shipped_scenario_report_digest(tmp_path, capsys):
    assert report_digest(default_scenario_path(), 1, tmp_path / "out") == SHIPPED_DIGEST
