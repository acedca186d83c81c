"""How fast this machine runs a fixed reference kernel right now.

On a shared host the CPU speed a process gets can change by up to 2x within
seconds, as other tenants' load comes and goes.  The benchmark times each
block of operations between two calls of `kernel_seconds` and scales the
block's times by REFERENCE_S over the mean of the two, which reports them at
the speed where the kernel takes REFERENCE_S.  The kernel mixes interpreted
float arithmetic with NumPy reductions and a tall matrix product, like the
workloads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on an idle core of a 2.0 GHz x86-64 host, so that scaled
# times there read like wall times.
REFERENCE_S = 0.005

_TALL = np.linspace(-1.0, 1.0, 20_000 * 10).reshape(20_000, 10)
_VEC = np.linspace(0.01, 1.0, 20_000)


def _kernel() -> float:
    start = time.perf_counter()
    x = 0.0
    for i in range(40_000):
        x += i * 0.5
    for _ in range(3):
        _TALL.T @ _TALL
        np.log(_VEC).sum()
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Median of three timings of the reference kernel."""
    return statistics.median(_kernel() for _ in range(3))


def scale(seconds: float, before: float, after: float) -> float:
    """Seconds at reference speed for a span bracketed by two kernel timings."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
