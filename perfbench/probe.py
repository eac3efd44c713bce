"""Machine speed sampled while the program runs.

On a shared host the same CPU-bound round can take 20% more or less wall
time from one minute to the next, because the speed available to this
process changes.  ``SpeedProbe`` runs a fixed kernel from a wall-clock timer
signal every ``interval`` seconds during a measured call, and records how
long each run of it took.  The call's time with the kernel's own time taken
out, scaled by ``REF_S / mean kernel time`` over the call, is the call's
time at the reference speed: the speed at which the kernel takes REF_S.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

REF_S = 0.006        # about the kernel's mean time on the reference machine
MIN_SAMPLES = 20
_A = np.arange(16.0)


def kernel() -> float:
    """Scalar Python arithmetic and tiny numpy products, the mix of the
    program's bisection and ascent loops."""
    s = 0.0
    for i in range(4000):
        s += float(_A @ _A) * 1e-9 + math.sqrt(i)
    return s


class SpeedProbe:
    def __init__(self, interval: float = 0.25):
        self.interval = interval
        self.samples = []
        self.spent = 0.0           # seconds spent in the kernel so far

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def clock(self) -> float:
        """perf_counter without the kernel's time: the program's own clock."""
        return time.perf_counter() - self.spent

    def timed(self, fn):
        """(fn(), fn's seconds at the reference speed, scale) with the probe
        sampling during fn; short calls are topped up to MIN_SAMPLES samples
        right after."""
        first = len(self.samples)
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            t0 = self.clock()
            result = fn()
            elapsed = self.clock() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        while len(self.samples) - first < MIN_SAMPLES:
            self.sample()
        scale = REF_S / statistics.fmean(self.samples[first:])
        return result, elapsed * scale, scale
