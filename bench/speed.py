"""The machine's momentary speed, read from a fixed reference loop.

On a shared machine the same Python code runs up to 1.8 times slower for
seconds or minutes at a time, as other tenants load the host, and CPU
time slows with wall time.  No statistic of one run's wall times removes
that: a run that falls wholly in a slow phase is slow throughout.  So
while a ``SpeedTrack`` is open, a timer signal runs a fixed loop of plain
interpreter work every ``EVERY_S`` seconds, in the benchmark's own
process and thread, and the track turns wall time into scaled time: the
time the work would have taken at the speed where one run of the loop
takes ``REFERENCE_S``, about an unloaded core of the 2-core machine the
benchmark was written on.  Time spent in the loop is left out of both.

A change to the package cannot move the loop's time, so scaled times
compare commits run at different moments; wall times are reported beside
them.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

REFERENCE_S = 1e-4
EVERY_S = 0.02
RUNS_PER_SAMPLE = 3


def reference_loop() -> int:
    """Small ints, tuples, dicts and sets: the package's kind of work."""
    seen, table = set(), {}
    for i in range(400):
        key = (i % 37, i * 7 % 11)
        table[key] = table.get(key, 0) + i
        seen.add(key)
    return len(seen) + len(table)


class SpeedTrack:
    """Speed samples on a timer while open, as a context manager.

    A sample is the best of a few runs of the loop, which drops
    interrupts.  Between two samples the speed is taken as their mean.
    ``clock(t)`` is the scaled work time from the first sample to ``t``;
    ``wall_clock(t)`` the same unscaled.  Both leave the sampling out and
    need a sample after ``t``, which closing the track takes.
    """

    def __init__(self):
        self.begins: list[float] = []
        self.ends: list[float] = []
        self.scaled_at: list[float] = []  # clock() at each sample's begin
        self.wall_at: list[float] = []
        self.loop_s: list[float] = []
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:  # a timer signal during a sample
            return
        self._sampling = True
        begin = time.perf_counter()
        best = math.inf
        for _ in range(RUNS_PER_SAMPLE):
            t0 = time.perf_counter()
            reference_loop()
            best = min(best, time.perf_counter() - t0)
        self.loop_s.append(best)
        if self.begins:
            gap = begin - self.ends[-1]
            self.scaled_at.append(self.scaled_at[-1] + gap * self._factor(len(self.begins)))
            self.wall_at.append(self.wall_at[-1] + gap)
        else:
            self.scaled_at.append(0.0)
            self.wall_at.append(0.0)
        self.begins.append(begin)
        self.ends.append(time.perf_counter())
        self._sampling = False

    def _factor(self, n: int) -> float:
        """Scaled over wall time in the gap before sample ``n``."""
        return REFERENCE_S / ((self.loop_s[n - 1] + self.loop_s[n]) / 2)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def _clock(self, t: float, at: list[float], scaled: bool) -> float:
        m = bisect.bisect_right(self.begins, t) - 1
        if m < 0 or m + 1 == len(self.begins) and t > self.ends[m]:
            raise RuntimeError("time outside the speed track")
        if t <= self.ends[m]:
            return at[m]
        return at[m] + (t - self.ends[m]) * (self._factor(m + 1) if scaled else 1.0)

    def clock(self, t: float) -> float:
        return self._clock(t, self.scaled_at, True)

    def wall_clock(self, t: float) -> float:
        return self._clock(t, self.wall_at, False)

    def factor(self) -> float:
        """Median speed while open, as the loop's nominal over its time."""
        return REFERENCE_S / sorted(self.loop_s)[len(self.loop_s) // 2]
