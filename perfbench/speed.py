"""Machine-speed control variate for the benchmark's timings.

On a shared machine the speed of one core drifts by tens of percent over
seconds, for identical work (wall and CPU time alike).  The benchmark times
a fixed reference kernel (exact Fraction elimination, the same kind of work
as logflat, but none of its code) before and after every measured call, and
reports each time t as t * (REFERENCE_S / k) ** BETA, where k is the median
kernel time around the call: a control variate in log time.  A change to
logflat moves t and leaves k alone.

BETA is how much of the kernel's slowdown logflat shares, measured on a
shared 2-vCPU host: across 30 s runs, adjusted throughput still rose with
the run's median kernel time at BETA = 1 (over-correction) and fell with it
at BETA = 0.6 (under-correction); both trends put the exponent at 0.78-0.88.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

from docs import det

REFERENCE_S = 0.0008      # kernel time at reference speed
BETA = 0.8
WINDOW = 4                # kernel samples on each side of a call

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 3) for j in range(6)]
           for i in range(6)]


def kernel_s() -> float:
    """Time one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(2):
        det(_MATRIX)
    return time.perf_counter() - t0


def scaled(times: list, kernels: list) -> list:
    """Adjust times[i], where kernels[i] and kernels[i+1] were taken just
    before and just after call i, by the median kernel time over a window
    around the call."""
    out = []
    for i, t in enumerate(times):
        near = kernels[max(0, i - WINDOW + 1): i + WINDOW + 1]
        out.append(t * (REFERENCE_S / statistics.median(near)) ** BETA)
    return out
