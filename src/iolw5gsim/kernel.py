"""Time base and random streams shared by every model.

All simulation time is kept as integer microseconds. Floating-point time is
deliberately not supported here: every protocol quantity in this project
(1664 us sub-cycles, 5 ms cycles, 100 us histogram bins) is an exact integer
multiple of 1 us, and integer ticks make replays bit-identical.

There is no event queue: toggles never interact, so a run streams them in
blocks of ``scenario.BLOCK`` through buffers its thread keeps from run to
run, and holds O(BLOCK) memory, not O(toggles). For each block it first
draws the retries of every iolw-air hop, then pushes the block's int64
toggle times through one path step at a time and records each step's
durations as it goes (see ``scenario.run``). Each model draws a block's
samples in one call from its own stream, into an array the run passes.
"""

from __future__ import annotations

import numpy as np

# Durations are plain ints (microseconds); the alias is kept for
# readability in signatures.
Duration = int


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent, reproducible RNG stream.

    Identical (seed, stream_id) always yields the identical draw sequence;
    distinct stream ids are statistically independent (PCG64 seeded through
    SeedSequence spawn keys).
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))
