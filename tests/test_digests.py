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


@pytest.mark.parametrize(
    "seed, digest",
    [
        (1, "f154a406efa95a2a3a452090730b5347692d4408b7e138238cd844decae33e0c"),
        (2, "f8fd431a0e429a68def2c41e56e018d39b2ef9bda30f3204bd8f07a89dca3de1"),
    ],
)
def test_lossy_empirical_report_digest(seed, digest, tmp_path, capsys):
    config = tmp_path / "lossy.scenario"
    config.write_text(LOSSY_EMPIRICAL)
    assert report_digest(config, seed, tmp_path / "out") == digest


def test_shipped_scenario_report_digest(tmp_path, capsys):
    # truncnorm delays drawn from the alias table of their integer pmf
    digest = report_digest(default_scenario_path(), 1, tmp_path / "out")
    assert digest == "8b519a65f27e4dcbaa6434ddcb5f47cde1784550d7bbaee83ea1ac5c5efe29f1"
