"""Machine-speed probe for a host whose cores are shared with other tenants.

On such a host the speed of one thread drifts by 20-50 % within seconds and
minutes, and every operation of the program drifts with it; runs made a
minute apart then differ by more than any useful regression bound.  The
benchmark times a fixed kernel, which shares no code with ``marcox``,
between operations, and divides each operation's time by its relative time
around it (``speed``).  The kernel is the kind of work the fitters do:
interpreted float loops with many small numpy calls on short arrays.  A
memory-bound kernel (a random gather over 16 MB) was tried beside it and
dropped: it hardly moves when the fits slow down, so averaging it in
left twice the drift in calibrated fit times (README.md).
"""

from __future__ import annotations

import time

import numpy as np

# Typical time of two kernel calls on the reference host (2 vCPU x86-64 VM).
NOMINAL_S = 0.003
_ROW = np.linspace(0.0, 1.0, 60)


def _interp_kernel() -> float:
    out = [0.0] * 4
    term, n = 1.0, 0
    for _ in range(60):
        for _ in range(25):
            for j in range(4):
                out[j] += term / (j + n + 1)
        n += 1
        term *= 3.7 / n
    v = _ROW
    for _ in range(300):
        v = np.logaddexp(v[::-1], v) - 0.7
    return sum(out) + float(v[0])


def _timed(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return time.perf_counter() - t0


def sample() -> float:
    """Relative time of the kernel now: about 1.0 on the reference host."""
    return _timed(_interp_kernel, 2) / NOMINAL_S


def speeds(samples: list[float], window: int = 3) -> list[float]:
    """Smoothed speed per gap: the mean of ``samples[i - window + 1 : i + window + 1]``.

    Sample i is taken before operation i and sample i + 1 after it, so
    entry i of the result is the speed around operation i.
    """
    out = []
    for i in range(len(samples) - 1):
        part = samples[max(0, i - window + 1) : i + window + 1]
        out.append(sum(part) / len(part))
    return out
