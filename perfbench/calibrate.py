"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the same job can take twice as long
from one second to the next, and process CPU time swings with it (the
slowdown is contention, not preemption), so raw wall times of separate
runs cannot be compared within tight bounds.  A `SpeedProbe` times a fixed
kernel of logvol-like work just before and after each timed call and,
while the call runs, every INTERVAL_S seconds from a SIGALRM handler.  The
call's time, less the probe's own time inside it, is divided by the mean
kernel time sampled around and during it and multiplied by
REFERENCE_KERNEL_S: the result is the time the call takes on a host where
the kernel takes REFERENCE_KERNEL_S, whatever the load was while it ran.
"""

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# The kernel's time on a lightly loaded core of a 2.1 GHz Xeon host; it fixes
# the unit of calibrated times, not their ratios between commits.
REFERENCE_KERNEL_S = 2e-3
INTERVAL_S = 0.2


def kernel():
    """A fixed mix of the work logvol does: exact rational arithmetic, and
    float arithmetic on small numpy rows as in a fiber solve (about 2 ms
    on a lightly loaded 2.1 GHz Xeon core)."""
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(1, k)
    point = np.zeros(3)
    bounds = []
    for i in range(600):
        point[0] = i * 1e-3
        hi = 1.0
        for row in _ROWS:
            hi = min(hi, (1.0 - float(row @ point)) / (row[1] + 2.0))
        bounds.append((i % 7, hi))
    bounds.sort()
    return total, bounds


_ROWS = (np.array([1.0, -1.0, 0.5]), np.array([0.0, 1.0, 1.0]))


class SpeedProbe:
    """Kernel timings around and during timed calls."""

    def __init__(self):
        self.samples = []   # (start, seconds) of each kernel run
        self._previous = None

    def _sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def _on_alarm(self, signum, frame):
        self._sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def explicit_sample(self):
        """A kernel run that the alarm cannot interrupt."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def time(self, fn, measured=None):
        """(fn's result, wall seconds, calibrated seconds) of one call.

        `measured(result)`, when given, is the duration to calibrate in
        place of the call's wall time (a child process's own timing).
        """
        first = len(self.samples)
        self.explicit_sample()
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.explicit_sample()
        around = self.samples[first:]
        wall = t1 - t0 - sum(d for start, d in around if t0 <= start < t1)
        if measured is not None:
            wall = measured(out)
        kernel_s = statistics.fmean(d for _, d in around)
        return out, wall, wall * REFERENCE_KERNEL_S / kernel_s

    def typical(self) -> float:
        """Median kernel time over every sample so far, in seconds."""
        return statistics.median(d for _, d in self.samples)
