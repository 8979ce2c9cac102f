"""Machine-speed probe that puts the timings of different runs on one scale.

On a shared host the speed of a core drifts by 20-30 % over tens of seconds,
which no statistic over one 35 s run can average out (see README.md).  After
every command, and before the first of a pass, the harness times a fixed
probe that exercises the kinds of work the program does: generator
construction, small matrix products, passes over an array larger than the
CPU caches, and plain Python.  The number of samples after a command grows
with the command's duration, so over a pass the samples are spread in
proportion to where the time went.  A pass's calibrated time is its
measured time times REFERENCE_S over the mean of all the probe samples
taken during it, so a machine that runs slower for a while slows the probe
as well as the program, and the ratio stays.  A program change cannot move
the probe.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median probe time on the 2-vCPU VM where the baseline was taken.
# Calibrated seconds equal measured seconds when the machine runs at that speed.
REFERENCE_S = 0.009
MIN_SAMPLES = 3
# Probe time as a share of the time of the command just measured.
SHARE = 0.05


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self._key = np.zeros(2, dtype=np.uint64)
        self._big = np.ones(2_000_000)       # 16 MB
        self._w = np.full((16, 16), 0.01)
        self._x = np.ones((100, 16))

    def _work(self) -> None:
        for k in range(50):
            self._key[0] = k
            np.random.Generator(np.random.Philox(key=self._key)).normal(0.0, 1.0, 30).mean()
        for _ in range(200):
            np.tanh(self._x @ self._w + 1.0)
        np.multiply(self._big, 1.0, out=self._big).sum()
        total = 0
        for j in range(10_000):
            total += j

    def sample(self, after_seconds: float = 0.0) -> float:
        """Time the probe after a command that took `after_seconds`.

        Returns the median of the new samples.
        """
        count = max(MIN_SAMPLES, int(SHARE * after_seconds / REFERENCE_S))
        for _ in range(count):
            t0 = perf_counter()
            self._work()
            self.samples.append(perf_counter() - t0)
        return statistics.median(self.samples[-count:])


def calibrate(seconds: float, probe_times) -> float:
    """`seconds` rescaled to the machine speed at which the probe takes REFERENCE_S.

    `probe_times` are probe timings taken around the measured interval.
    """
    return seconds * REFERENCE_S / statistics.fmean(probe_times)
