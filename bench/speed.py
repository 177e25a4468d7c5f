"""The machine's speed, sampled while a run measures.

The hosts this benchmark runs on share their CPUs with other tenants. On a
2-CPU VM, over 90 runs of 30 s, the median time of REFERENCE in one run
ranged from 51 to 126 us, and raw wall times of one workload spread by up
to 0.27 of their median across runs. Process CPU time spreads as much, so
the host's speed itself moves, not only the share of it the process gets
(README.md gives the comparison). To compare a change with its parent on
such a host, the benchmark reports times in reference seconds: wall time
divided by the speed of a fixed piece of work, REFERENCE, timed by a
SIGALRM handler every INTERVAL seconds while the run measures.
REFERENCE is shaped like the program's inner loops (small-integer
arithmetic, set-bit iteration over wide integers, list indexing) and
allocates no container, so it never triggers the garbage collector.
"""

from __future__ import annotations

import bisect
import signal
from statistics import mean
from time import perf_counter

INTERVAL = 0.05
# The reference time that defines one reference second: close to REFERENCE's
# time on the 2-CPU VM described in README.md in its fast state (51 us).
NOMINAL = 60e-6

_WIDE = ((1 << 300) - 1) ^ sum(1 << (7 * i) for i in range(40))
_SLOTS = [0] * 300


def reference() -> int:
    total = 0
    for i in range(300):
        total += i & 7
    mask = _WIDE
    while mask:
        low = mask & -mask
        _SLOTS[low.bit_length() - 1] += 1
        mask ^= low
    return total


class SpeedMeter:
    """Samples REFERENCE's time; converts wall intervals to reference seconds."""

    def __init__(self) -> None:
        self.times: list[float] = []   # when each sample was taken
        self.refs: list[float] = []    # REFERENCE's time in that sample
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.times.append(t0)
        self.refs.append(t1 - t0)

    def __enter__(self) -> "SpeedMeter":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, lo: int, hi: int) -> float:
        """Reference seconds per wall second over samples lo..hi-1."""
        return NOMINAL * mean(1 / r for r in self.refs[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1].

        Uses the samples taken inside the interval or, for an interval
        shorter than INTERVAL, the last sample before its end.
        """
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        return (t1 - t0) * self.factor(min(lo, hi - 1), hi)
