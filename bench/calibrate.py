"""Fixed reference work that measures how fast the host runs right now.

A shared host changes speed for tens of seconds at a time (the same
simulator run took 0.35 s and 0.75 s minutes apart), and CPU time slows
down with it, so neither wall nor CPU time of one run is comparable with
the next. The benchmark therefore times this reference work next to every
measurement and reports each time scaled to a host on which the reference
takes its ``REF_*`` seconds. The work mimics the simulator's own: numpy
scalar draws, closures, a heap of pending callbacks and dict histogram
bins. It never imports the simulator, so a change to the program cannot
change the reference.

``python3 bench/calibrate.py`` is the child-process reference for the
CLI's wall time: like the CLI it imports numpy and then computes.
"""

from __future__ import annotations

import heapq
import time

# Seconds the references take on the host the benchmark was defined on
# (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4) in a fast spell.
REF_LOOP_S = 0.05  # loop() in process: scales simulate and report times
REF_IMPORT_S = 0.1  # `import numpy` timed inside a fresh process: scales setup_s
REF_CHILD_S = 0.45  # this script as a whole fresh process: scales wall_s

ITERATIONS = 15_000
CHILD_LOOPS = 3  # about the import-to-compute mix of an `iolw5gsim run`


def loop() -> int:
    import numpy as np

    rng = np.random.default_rng(7)
    heap: list = []
    bins: dict[int, int] = {}
    done: list[tuple[int, int]] = []
    for i in range(ITERATIONS):
        x = int(round(rng.normal(5000.0, 800.0)))
        y = int(rng.integers(100, 900, endpoint=True))

        def record(_t, x=x, y=y):
            done.append((x, y))

        heapq.heappush(heap, (i * 7 % 1000, i, record))
        if len(heap) > 200:
            heapq.heappop(heap)[2](0)
        k = (x + y) // 100
        bins[k] = bins.get(k, 0) + 1
    return len(done)


def timed_loop(_=None) -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def loop_seconds(workers: int = 1) -> float:
    """Seconds of loop() in the slowest of ``workers`` processes running it at once.

    One worker runs it in this process; more run it in a process pool, as
    a parallel sweep does, which also waits for its slowest worker.
    """
    if workers == 1:
        return timed_loop()
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        return max(pool.map(timed_loop, range(workers)))


if __name__ == "__main__":
    for _ in range(CHILD_LOOPS):
        loop()
