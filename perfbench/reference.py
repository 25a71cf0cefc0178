"""Timing at a fixed machine speed, calibrated by a reference kernel.

The host is shared and its speed drifts by 10-30% over seconds to minutes
(no steal time is reported; the vCPUs just run slower).  Statistics inside
one run cannot remove a drift that lasts as long as the run, so each unit
of work is timed between two measurements of a fixed numpy kernel and
scaled by ``REF_SECONDS`` over their mean: the time the unit would have
taken at a fixed machine speed.  The kernel mixes the operations groupft
spends its time in (an FFT, a complex matrix product, complex
exponentials) and does not touch groupft, so a change to the library
cannot move it.

Measured over ten 10-s windows of repeated groupft calls, the window
median of per-sample time ratios to the kernel spread by 2-4%
(interquartile range over median), against 5-30% for the raw window
median.
"""

import statistics
import time

import numpy as np

# typical kernel time between units on the machine the bounds were set on
# (2 vCPU x86-64, OpenBLAS 0.3.31, numpy 2.4.6); fixes the scale only
REF_SECONDS = 0.02

# one kernel run per this much unit time at each boundary (median taken), so
# the calibration of a long unit does not rest on one jittery kernel sample
KERNEL_EVERY_S = 0.4
KERNEL_MAX_RUNS = 11


class Reference:
    """Times units of work against the kernel; keeps every kernel time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.cube = rng.standard_normal((48, 48, 48)) + 1j * rng.standard_normal((48, 48, 48))
        self.matrix = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        self.phases = rng.standard_normal(400_000)
        self.times: list[float] = []

    def kernel(self) -> float:
        start = time.perf_counter()
        np.fft.fftn(self.cube)
        self.matrix @ self.matrix
        np.exp(1j * self.phases)
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def boundary(self, unit_s: float) -> float:
        """Median kernel time over a number of runs that grows with the unit's length."""
        runs = min(KERNEL_MAX_RUNS, 1 + int(unit_s / KERNEL_EVERY_S))
        return statistics.median(self.kernel() for _ in range(runs))

    def time_units(self, steps) -> dict[str, tuple[float, float]]:
        """Run a generator that yields a label after each unit of work.

        Returns label -> (raw seconds, calibrated seconds).  The kernel runs
        before the first unit and after each unit, outside the units' time.
        """
        out = {}
        before = self.boundary(0.0)
        start = time.perf_counter()
        for label in steps:
            raw = time.perf_counter() - start
            after = self.boundary(raw)
            out[label] = (raw, raw * 2.0 * REF_SECONDS / (before + after))
            before = after
            start = time.perf_counter()
        return out

    def time_call(self, fn) -> tuple[float, float]:
        """(raw seconds, calibrated seconds) of one call ``fn()`` that returns its own time."""
        before = self.boundary(0.0)
        raw = fn()
        after = self.boundary(raw)
        return raw, raw * 2.0 * REF_SECONDS / (before + after)
