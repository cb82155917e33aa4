"""Host-speed probe of the mgtlab benchmark.

The benchmark host is shared with other tenants: a fixed loop runs at one
of two speeds, up to 1.7x apart, switching every few seconds, so raw
per-run medians of item time spread by 17-30% (quartile distance over
median, across runs).  While a measured stretch runs, a timer signal times
a fixed pure-Python loop every few tenths of a second; a measured time is
scaled to the speed at which that loop takes SPEED_REF_S.

Standard library only, so that a fresh set-up interpreter can load it
before it imports mgtlab.
"""

from __future__ import annotations

import signal
from time import perf_counter

SPEED_LOOP = 20000
SPEED_REF_S = 0.0013
# an item is scaled by the samples taken while it ran, widened to at least
# this many seconds on either side of its midpoint for short items; the
# speed state changes within a second, so the window stays narrow
SPEED_HALF_WINDOW_S = 0.1


def scale_of(loop_seconds: list[float]) -> float:
    """Reference seconds per measured second, given timings of the loop.

    Below 1 on a slow host.  The mean follows the share of time spent in
    each speed state, where the median would jump between the two.
    """
    return SPEED_REF_S * len(loop_seconds) / sum(loop_seconds)


class SpeedProbe:
    """Samples the host's speed every `every_s` seconds from a SIGALRM handler.

    The handler runs between bytecodes of whatever is running; the time it
    takes is kept in `spent`, so callers can take it out of a latency.
    """

    def __init__(self, every_s: float):
        self.every_s = every_s
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        acc = 0.0
        for i in range(SPEED_LOOP):
            acc += i * 0.5
        elapsed = perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()  # a stretch shorter than one period still gets a sample

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end].

        Uses the samples taken in the window, or for a short window the
        samples within SPEED_HALF_WINDOW_S of its midpoint, or else the
        nearest sample.
        """
        mid, half = (start + end) / 2, max((end - start) / 2, SPEED_HALF_WINDOW_S)
        near = [x for t, x in self.samples if abs(t - mid) <= half]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return scale_of(near)
