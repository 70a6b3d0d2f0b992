"""Host-speed calibration for the benchmark's timings.

On the shared machines the benchmark runs on, the speed granted to one
process drifts by 20-50% over seconds to minutes, and the drift shows in
process CPU time as much as in wall time, so no clock avoids it.  The
runner therefore interleaves a fixed unit of pure-Python work with the
library calls and rescales every timing to the speed at which one unit takes
``REFERENCE_S`` (about its median on a 2-vCPU x86-64 host under CPython
3.11).  The unit never calls the library, so a change to the library cannot
move it; only the host can.  Uncalibrated wall figures are printed beside
the calibrated ones.
"""

from __future__ import annotations

import math
from time import perf_counter

STEPS = 5000
REFERENCE_S = 0.005


def unit() -> float:
    """Seconds taken by one unit: float math, calls and tuples, like the fold."""
    start = perf_counter()
    total = 0.0
    for k in range(1, STEPS):
        v = 0.0
        for x in (math.ldexp(0.5, -(k % 30)), 1.0, 2.0, 0.25):
            v = 0.5 * (x + math.log1p(math.exp(-abs(v - x))))
        total += v
    return perf_counter() - start


def factor(*unit_seconds: float) -> float:
    """Scale from measured time to reference time, given bracketing units."""
    return REFERENCE_S * len(unit_seconds) / sum(unit_seconds)
