import numpy as np
import pytest

from iolw5gsim.config import Diagnostic, _Raw
from iolw5gsim.fiveg import (
    Constant,
    Empirical,
    LatencyModel,
    NumerologyConfig,
    TruncNormal,
    Uniform,
    _AliasTable,
)
from iolw5gsim.iolw import IolwCellConfig, IolwTransferModel
from iolw5gsim.kernel import Frozen, floor_draws, rng_stream, uniforms
from iolw5gsim.plc import PlcConfig
from iolw5gsim.scenario import Air, Grid, Scenario, SegmentSpec, SignalSource
from iolw5gsim.stats import SafetyDistance


def test_rng_stream_reproducible_and_independent():
    a1 = rng_stream(7, 0).random(1000)
    a2 = rng_stream(7, 0).random(1000)
    b = rng_stream(7, 1).random(1000)
    assert (a1 == a2).all()
    assert (a1 != b).any()


def raw_uniforms(seed: int, stream: int, n: int) -> np.ndarray:
    """The byte contract: (x >> 11) * 2**-53 of the next n 64-bit outputs x
    of a twin stream's bit generator, which numpy keeps stable."""
    raw = rng_stream(seed, stream).bit_generator.random_raw(n)
    return (raw >> np.uint64(11)) * 2.0**-53


# canary: numpy keeps bit generator streams stable across versions, not
# Generator.random, so a numpy that changes how a double is made from an
# output fails here by name before it moves every report digest
@pytest.mark.parametrize("seed,stream", [(0, 0), (1, 3), (7, 1), (2**63 + 5, 12)])
@pytest.mark.parametrize("lengths", [(1,), (1, 1, 1), (1000,), (1, 65_536, 999)])
def test_uniforms_are_the_top_53_bits_of_one_output_each(seed, stream, lengths):
    rng, drawn = rng_stream(seed, stream), []
    for n in lengths:
        u = np.empty(n)
        assert uniforms(rng, u) is u
        drawn.append(u)
    assert np.concatenate(drawn).tobytes() == raw_uniforms(seed, stream, sum(lengths)).tobytes()


@pytest.mark.parametrize("k", [1, 3, 5000, 2**53 - 1, [1, 3, 5000, 2**53 - 1] * 250])
def test_floor_draws_are_the_floor_of_one_uniform_times_k(k):
    ks = k if isinstance(k, list) else [k] * 1000
    ref = raw_uniforms(5, 2, len(ks)).tolist()
    out, u = np.empty(len(ks), np.int64), np.empty(len(ks))
    assert floor_draws(rng_stream(5, 2), k, out, u) is out
    assert out.tolist() == [int(x * kk) for x, kk in zip(ref, ks)]
    assert u.tolist() == [x * kk for x, kk in zip(ref, ks)]  # left for the alias compare
    assert all(0 <= d < kk for d, kk in zip(out.tolist(), ks))


# One value of each immutable class of the package, a field of it and
# another value for that field. The NamedTuples come first, then the Frozen
# values, which derive state on construction.
VALUES = [
    (Diagnostic(3, 1, "bad"), "line", 4),
    (_Raw("5 ms", 3, 1), "value", "6 ms"),
    (_AliasTable.from_pmf(np.ones(1)), "thr", np.array([0.5])),
    (IolwCellConfig(), "devices", 8),
    (IolwTransferModel(667), "max_attempts", 2),
    (PlcConfig(), "jitter_us", 100),
    (SegmentSpec("plc"), "kind", "ethernet"),
    (SignalSource(), "sequences", 2),
    (Grid(5000, 0), "phase", 1),
    (Air(IolwTransferModel(667), IolwCellConfig(), 0), "phase", 1),
    (SafetyDistance(0.2992, 0.3), "presented_m", 0.4),
    (NumerologyConfig(30), "scs_khz", 60),
    (Constant(5), "value_us", 6),
    (Uniform(1, 5), "high_us", 6),
    (TruncNormal(1200.0, 200.0, 600, 2000), "stddev_us", 0.0),
    (Empirical(((100, 1.0),)), "bins", ((900, 1.0),)),
    (
        Scenario(
            IolwCellConfig(),
            {"eth": SegmentSpec("ethernet", Constant(0)), "plc": SegmentSpec("plc")},
            ["eth", "plc"], [], SignalSource(), PlcConfig(),
        ),
        "approach_speed_mps",
        3.0,
    ),
]


@pytest.mark.parametrize(
    "value, field, other", VALUES, ids=[type(v).__name__ for v, _, _ in VALUES]
)
def test_a_value_is_frozen_and_replace_makes_a_new_one(value, field, other):
    # a value shared by segments, stages or threads, or holding state derived
    # from its fields, must not change in place: no field can be assigned or
    # deleted, and _replace is the one way to a changed copy
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    same, changed = value._replace(), value._replace(**{field: other})
    assert same == value and not same != value
    assert changed != value and getattr(changed, field) is other
    if isinstance(value, (Scenario, _AliasTable)):  # they hold mappings or arrays
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(same) == hash(value)


def test_frozen_values_of_different_classes_are_unequal():
    # the loader shares one model among segments of equal (class, fields)
    class Twin(Frozen):
        value_us: int

    assert Twin(5) == Twin(5) and Constant(5) != Twin(5) and Twin(5) != Constant(5)
    models = [value for value, _, _ in VALUES if isinstance(value, LatencyModel)]
    for a in models:
        assert [b for b in models if b == a] == [a]


def test_frozen_takes_its_fields_once_each():
    assert Constant(value_us=5) == Constant(5)
    assert repr(Constant(5)) == "Constant(value_us=5)"
    for args, kwargs in [((), {}), ((5, 6), {}), ((5,), {"value_us": 5}), ((), {"value": 5})]:
        with pytest.raises(TypeError):
            Constant(*args, **kwargs)
