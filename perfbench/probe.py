"""The speed probe: a fixed amount of work that runs no qgammakit code.

On a shared host the same code runs up to a third slower or faster from one
minute to the next.  The benchmark scales each time it reports by
PROBE_REFERENCE_S over a probe taken next to it, which cancels that drift.
This module imports nothing but the standard library, so a fresh
interpreter can probe before it imports anything else.
"""

import math
import time

PROBE_REFERENCE_S = 0.0015  # the speed probe's time at the reference speed


def _probe_term(k: int, x: float) -> float:
    return math.exp(-x * k) / (k + x)


def speed_probe() -> float:
    """Seconds taken by a fixed loop of float series sums, about 2 ms.

    Function calls and float arithmetic, as in the evaluators, track the
    host's drift better than an integer loop does.
    """
    t0 = time.perf_counter()
    sums = []
    for j in range(120):
        x = 0.5 + 0.01 * j
        s = 0.0
        for k in range(1, 60):
            s += _probe_term(k, x)
        sums.append(s)
    return time.perf_counter() - t0
