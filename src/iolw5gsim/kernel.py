"""Time base and the one draw rule of every model.

All simulation time is kept as integer microseconds. Floating-point time is
deliberately not supported here: every protocol quantity in this project
(1664 us sub-cycles, 5 ms cycles, 100 us histogram bins) is an exact integer
multiple of 1 us, and integer ticks make replays bit-identical.

Each model draws from a stream of its own (rng_stream). Every draw in the
package is one uniform (uniforms), or floor(u*k) of one (floor_draws), made
of one output of the PCG64 bit generator, whose streams numpy keeps stable.
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
