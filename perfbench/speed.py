"""Machine-speed calibration for the wall-clock metrics.

On a shared host the same study rep runs anywhere from 2.6k to 5.2k
samples/s within a minute (measured with one seed on the 2-core Xeon this
benchmark was defined on), and that drift moves whole runs.  So the
benchmark times a fixed pure-Python loop - a biased walk with table lookups,
the same kind of work as the ladder and planner, and none of rotsynth's code
- right before and after every measured block, and scales the block's
wall-clock figure to the speed the loop has at ``REFERENCE_S``:

    scaled rate    = raw rate    * loop time / REFERENCE_S
    scaled latency = raw latency * REFERENCE_S / loop time

A program change leaves the loop alone, so it still moves the scaled figures
in full; the raw figures are kept in every report.
"""
from __future__ import annotations

import bisect
import math
import random
import time

# median time of one calibrate() call on the reference machine (2-core
# Intel Xeon, Python 3.11.7)
REFERENCE_S = 0.009


def calibrate(steps: int = 12000) -> float:
    """CPU seconds taken by one fixed loop (time the host had this process
    descheduled does not count)."""
    start = time.process_time()
    rnd = random.Random(20121007).random
    table = [i * 0.001 for i in range(1000)]
    level = 0
    acc = 0.0
    for _ in range(steps):
        if rnd() < 0.6:
            level += 1
        elif level:
            level -= 1
        acc += bisect.bisect_left(table, rnd()) + math.sqrt(level)
    return time.process_time() - start
