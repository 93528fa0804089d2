"""Host speed, measured with a fixed slice of interpreter work.

The host this benchmark runs on is shared, and load from other tenants slows
every instruction for stretches of seconds to minutes, by up to a factor of
two; CPU time stretches with wall time.  The benchmark times the calibration
chunk right before and right after each operation, in the same process, and
reports the operation's time multiplied by ``REFERENCE_CHUNK_S`` over the
chunk's mean cost: the time the operation would have taken at reference
speed.  Two point samples stand for the host's speed only over a short
stretch, so an operation longer than ``LONGEST_SCALED_S`` keeps its measured
time, which already averages over the host's swings.  The chunk uses nothing
from colorpartitions, so a change to the program moves the reported times in
full.
"""

from __future__ import annotations

import time

# Median CPU time of one calibration chunk on a quiet 2-core x86-64 VM with
# CPython 3.11; it defines "reference speed" and never changes.
REFERENCE_CHUNK_S = 0.0017

# Longest operation whose time is scaled.  Operations of a few seconds or
# less track the chunks around them; a 20-second one does not.
LONGEST_SCALED_S = 5.0


def calibration_chunk() -> int:
    """Partitions of 19 from a recursive generator, a dict tally, an integer series."""

    def parts(n, largest):
        if n == 0:
            yield ()
            return
        for k in range(min(n, largest), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest

    tally: dict[int, int] = {}
    acc = 1
    for p in parts(19, 19):
        tally[len(p)] = tally.get(len(p), 0) + 1
        acc = (acc * 1000003 + sum(p)) % (1 << 256)
    series = [1] + [0] * 150
    for step in range(1, 40):
        for i in range(step, 151):
            series[i] += series[i - step]
    return acc + series[-1] + len(tally)


def chunk_cost(chunks: int = 5) -> float:
    """Median CPU seconds of one calibration chunk, measured now (about 10 ms)."""
    costs = []
    for _ in range(chunks):
        started = time.thread_time()
        calibration_chunk()
        costs.append(time.thread_time() - started)
    costs.sort()
    return costs[len(costs) // 2]


def factor(seconds: float, *costs: float) -> float:
    """Factor taking ``seconds``, measured between chunk ``costs``, to reference speed."""
    if seconds > LONGEST_SCALED_S:
        return 1.0
    return REFERENCE_CHUNK_S * len(costs) / sum(costs)
