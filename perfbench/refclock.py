"""Drift-compensated timing.

The speed of a shared machine drifts: on a 2-core sandbox it switches
between states up to 1.8x apart that last from a tenth of a second to
several seconds, in CPU time as well as in wall time. Every time the
benchmark reports is therefore scaled to a fixed reference speed.

A `SpeedSampler` runs a short pure-Python reference loop from a SIGALRM
timer every `PERIOD_S`, so it samples the machine's speed also while a long
operation runs. An operation's wall time, less the time its samples took,
is multiplied by

    REF_NOMINAL_S / (mean duration of the samples taken around the operation)

The loop shares no code with hfkit, allocates only its own objects and runs
with the garbage collector off, so its duration depends on the machine's
speed at that moment and on nothing the program under test has built.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# Median duration of one `ref_loop()` call in the fast state of the machine
# the bounds were set on (Python 3.11, 2-core x86-64 sandbox). A scaled time
# is the time the measured work would have taken at that speed.
REF_NOMINAL_S = 0.00044

PERIOD_S = 0.02
_REF_ITERS = 1000


def ref_loop() -> int:
    """Fixed interpreter work: integer arithmetic, tuples, dicts, frozensets."""
    table: dict = {}
    acc = 0
    for i in range(_REF_ITERS):
        k = (i * 7919) % 1021
        key = (k, k & 15)
        table[key] = table.get(key, 0) + 1
        acc += len(frozenset((k & 7, k & 3, i & 1)))
    return acc + len(table)


class SpeedSampler:
    """Samples the reference loop every PERIOD_S while started.

    `stolen` is the wall time spent in samples so far; an operation
    subtracts the part that fell inside it. `factor(t0, t1)` is the scale
    factor for work done between perf_counter() readings t0 and t1.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._cum = [0.0]
        self.stolen = 0.0
        self._previous = None

    def start(self) -> None:
        self._tick(None, None)  # so that even the shortest operation has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def _tick(self, signum, frame) -> None:
        entered = perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        ref_loop()
        t1 = perf_counter()
        if was_enabled:
            gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._cum.append(self._cum[-1] + t1 - t0)
        self.stolen += perf_counter() - entered

    def factor(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the mean sample within one period of [t0, t1]."""
        lo = bisect_left(self.times, t0 - PERIOD_S)
        hi = bisect_right(self.times, t1 + PERIOD_S)
        if hi == lo:  # no tick landed nearby: take the closest sample
            i = min(max(lo, 1), len(self.times)) - 1
            if i + 1 < len(self.times) and abs(self.times[i + 1] - t0) < abs(self.times[i] - t0):
                i += 1
            return REF_NOMINAL_S / self.durations[i]
        return REF_NOMINAL_S * (hi - lo) / (self._cum[hi] - self._cum[lo])
