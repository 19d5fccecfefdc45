"""Machine-speed sampling, so that job times from different moments compare.

On a shared host the speed of identical work can swing by a factor of two
in phases of a few seconds, and process CPU time swings with wall time, so
neither measures the program alone.  `SpeedSampler` runs a fixed reference
computation from a SIGALRM handler every INTERVAL seconds, on the
benchmark's own thread, so that it sees the same core in the same moments
as the work it brackets.  `calibrated()` turns a measured duration into
seconds at reference speed: the duration, less the sampler's own share of
its window, times the mean over the window's samples of
REF_SECONDS / (the reference's measured duration).
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

perf = time.perf_counter

INTERVAL = 0.01  # seconds between reference samples
# The reference's duration at the speed calibrated times are expressed in:
# about its median duration on a 2-vCPU Intel Xeon VM with Python 3.11.
REF_SECONDS = 2.5e-4

_A = (1 << 8000) // 7
_B = (1 << 8000) // 11


def reference():
    """Fixed work of about 0.25 ms, in the proportions dworklab's are made of:
    interpreted small-int arithmetic with a dict, and big-int products."""
    x, d = 0, {}
    for i in range(200):
        x = (x * 1315423911 + i) % (1 << 127)
        d[i & 255] = x
    y = _A
    for _ in range(2):
        y = (y * _B) >> 8000
    return x, y


class SpeedSampler:
    """Samples the reference's duration while it is entered, as a context."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf()
        reference()
        self.starts.append(t0)
        self.durations.append(perf() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrated(self, t0, t1, seconds=None):
        """Seconds at reference speed of `seconds` (default t1 - t0) of work
        measured inside the window [t0, t1].

        The sampler's own time inside the window is taken out pro rata.  The
        speed is the mean over the samples that start in the window widened
        by one interval on each side, so that a short window has some.
        """
        wall = t1 - t0
        if seconds is None:
            seconds = wall
        inside = self.durations[bisect_left(self.starts, t0):
                                bisect_right(self.starts, t1)]
        near = self.durations[bisect_left(self.starts, t0 - INTERVAL):
                              bisect_right(self.starts, t1 + INTERVAL)]
        if not near:
            raise RuntimeError("no speed sample near a measured window")
        busy = seconds * (1.0 - sum(inside) / wall) if wall > 0 else seconds
        return busy * statistics.fmean(REF_SECONDS / r for r in near)
