"""Calibration kernel: a fixed piece of NumPy and Python work that touches
no jspec code, timed between campaigns to read the machine's speed.

The shared machines the benchmark runs on switch between a fast and a slow
state (identical work takes up to 1.7x longer) that lasts from seconds to
minutes, long enough to cover a whole run. The kernel slows down with the
campaigns: on each of the three workloads, over 15-s windows of back-to-
back campaigns, the sum of the campaigns' walls each divided by the
kernel's time around it moved by under 5% across those states, while the
raw sum moved by up to 48%. The benchmark therefore reports times as
that ratio times REFERENCE_S, the kernel's time on a quiet machine.
Because the kernel is not jspec code, a change to jspec moves the ratio
and leaves the kernel alone.

The kernel's work mirrors what campaigns do: LAPACK ``eigh`` on a batch
of small symmetric matrices, an interpreted Python loop, and elementwise,
matmul and sort passes over a few thousand rows.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time on a quiet 2-vCPU Intel Xeon VM (the fast state).
REFERENCE_S = 0.005

_rng = np.random.default_rng(0)
_SYM = _rng.standard_normal((64, 9, 9))
_SYM = _SYM + _SYM.transpose(0, 2, 1)
_ROWS = _rng.standard_normal((2000, 16))
_MIX = _rng.standard_normal((16, 16))


def _work() -> float:
    s = 0.0
    for _ in range(4):
        s += float(np.linalg.eigh(_SYM)[0].sum())
    for k in range(20000):
        s += k * 0.5
    for _ in range(3):
        z = np.abs(_ROWS @ _MIX) ** 1.5
        s += float(np.sort(z, axis=1).sum())
    return s


def kernel_s(reps: int = 2) -> float:
    """The kernel's time: the fastest of ``reps`` runs."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibrated:
    """Samples of timed work, each divided by the mean of the kernel times
    taken just before and just after it."""

    def __init__(self, kernel=kernel_s):
        self._kernel = kernel
        self.kernel = [kernel()]  # every kernel time taken, in order
        self.ratios: dict = {}

    def add(self, key, wall_s: float) -> None:
        """Record work of ``wall_s`` that just ended (the kernel was timed
        when the previous sample ended or at construction)."""
        after = self._kernel()
        self.ratios.setdefault(key, []).append(wall_s / (0.5 * (self.kernel[-1] + after)))
        self.kernel.append(after)

    def seconds(self, key) -> float:
        """Median ratio of the key's samples, in reference seconds."""
        return REFERENCE_S * statistics.median(self.ratios[key])

    def total_seconds(self) -> float:
        """Sum over keys of each key's median, in reference seconds."""
        return sum(self.seconds(k) for k in self.ratios)
