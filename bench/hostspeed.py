"""Host-speed reference: a fixed kernel timed next to every measured interval.

On the shared 2-vCPU VM this benchmark was defined on, the speed of a vCPU
swings by a third within seconds.  Timed back to back on one pinned CPU,
campaign units and this kernel varied by 16% and 14% (coefficient of
variation over 15 windows of 60 units) while their ratio varied by 2%.  So
every reported time is scaled to the reference speed:

    reported = measured * REFERENCE_S / (kernel time measured around it)

The raw times are printed beside the scaled ones.  The kernel mixes the
operations ckv spends its time in (numpy calls on 4x4 arrays and
interpreted Python) and never calls ckv.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the defining host: Intel Xeon VM, 2 vCPUs at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 6.0e-4
WINDOW = 4   # kernel samples on each side of a unit that set its scale

_rng = np.random.default_rng(0x5BEED)
_A = _rng.standard_normal((48, 4, 4))
_A = _A + np.transpose(_A, (0, 2, 1))


def _kernel() -> float:
    acc = 0.0
    for a in _A:
        acc += float(np.linalg.eigvalsh(a)[0]) + float(np.einsum("ab,ab->", a, a))
        acc += sum(i * i for i in range(16))
    return acc


def sample() -> float:
    """Kernel seconds: the faster of two runs, so a cache left cold by the
    measured work does not count."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scales(samples: list[float]) -> list[float]:
    """Scale factor for each of len(samples) - 1 intervals, where interval i
    lies between samples i and i + 1: REFERENCE_S over the median kernel time
    of the nearby samples."""
    out = []
    for i in range(len(samples) - 1):
        near = samples[max(0, i + 1 - WINDOW): i + 1 + WINDOW]
        out.append(REFERENCE_S / statistics.median(near))
    return out
