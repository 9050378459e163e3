"""Speed of the host, from a fixed task that uses none of the program's code.

The benchmark runs on a share of a host whose speed drifts by 10-40% over
tens of seconds to minutes, as other tenants come and go; a fixed input can
take a third longer in one run than in the next.  ``calibrate`` times a fixed
interpreter-bound task.  The benchmark runs it after every unit of work
(outside the timed calls) and scales its times by REFERENCE_S over the
median calibration time of the run, so that they read as on a host where the
task takes REFERENCE_S.  The task's time follows the host's drift closely, so
the scaled times spread about half as much as the raw ones; a change to the
program moves its times and not the task's.
"""
from __future__ import annotations

import math
import time

REFERENCE_S = 1.0e-3


def calibrate() -> float:
    """Seconds taken by math calls in a Python loop, about 1 ms at REFERENCE_S."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 6000):
        total += math.log1p(1.0 / i) * math.atan(i * 0.001)
    return time.perf_counter() - start
