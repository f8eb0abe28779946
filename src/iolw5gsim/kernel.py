"""Time base and random streams shared by every model.

All simulation time is kept as integer microseconds. Floating-point time is
deliberately not supported here: every protocol quantity in this project
(1664 us sub-cycles, 5 ms cycles, 100 us histogram bins) is an exact integer
multiple of 1 us, and integer ticks make replays bit-identical. Each model
that draws samples draws them from a stream of its own (see rng_stream).
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
