"""Time base and the one draw rule of every model.

All simulation time is kept as integer microseconds. Floating-point time is
deliberately not supported here: every protocol quantity in this project
(1664 us sub-cycles, 5 ms cycles, 100 us histogram bins) is an exact integer
multiple of 1 us, and integer ticks make replays bit-identical.

Each model draws from a stream of its own (rng_stream). Every draw in the
package is one uniform (uniforms), or floor(u*k) of one (floor_draws), made
of one output of the PCG64 bit generator, whose streams numpy keeps stable.
Link models and a Scenario are Frozen values: what they derive cannot go stale.
"""

from __future__ import annotations

import numpy as np


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent, reproducible RNG stream.

    Identical (seed, stream_id) always yields the identical draw sequence;
    distinct stream ids are statistically independent (PCG64 seeded through
    SeedSequence spawn keys).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


def uniforms(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """Fill the float64 u with (x >> 11) * 2**-53 of one bit-generator output x each."""
    return rng.random(out=u)


def floor_draws(rng: np.random.Generator, k, out: np.ndarray, u: np.ndarray) -> np.ndarray:
    """floor(u*k) of one uniform u each into the int64 out, returned, with
    u*k left in u (float64). k is an int or one per draw; k <= 2**53 keeps
    every draw below k, as u <= 1 - 2**-53."""
    uniforms(rng, u)
    u *= k
    np.copyto(out, u, casting="unsafe")  # truncates, as astype does
    return out


class Frozen:
    """A value whose fields, _fields, are its class's annotated names, given
    by position or keyword or else the class attribute of the name. Nothing
    can be assigned, so state a subclass's __init__ derives cannot go stale;
    _replace makes a new value. Equal by type and fields, hashed by them."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = (*cls._fields, *cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs) -> None:
        # dict(**a, **b) raises TypeError for a field given by position and keyword
        values = {**self._defaults, **dict(**dict(zip(self._fields, args)), **kwargs)}
        if len(args) > len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes {self._fields}: got {args}, {kwargs}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other: object) -> bool:
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((type(self), *self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"
