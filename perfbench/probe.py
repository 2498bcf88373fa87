"""Machine-speed probe that makes timings comparable across runs.

The benchmark runs on a few CPUs of a shared host whose speed drifts by
tens of percent, within a second and over minutes, with the load of
its neighbours. Timed plainly, the same call on the same input varies
from run to run by more than any bound worth setting on it.

``SpeedProbe.time`` times a section of work and rescales it by the
host's speed at that moment. The speed is read from a fixed piece of
work (``probe_kernel``: pure-Python closure calls over a list plus a
small numpy product, the mix the library's simulation loops run) that
calls no library code. It runs once just before and once just after
the section, and every ``PERIOD_S`` inside it from a ``SIGALRM``
handler, so it samples the same moments the section runs in. The
section's own time is its wall time minus the probe's time inside it;
divided by the mean probe time around it and multiplied by
``PROBE_REF_S``, it is the time the section would take on a host that
runs the probe in ``PROBE_REF_S``. A change to the library moves this
time exactly as it moves wall time, because the probe does not depend
on the library.

``WallClock`` has the same interface and times plainly; the traced run
uses it, so that no probe time lands inside a span.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds between probe samples inside a section; the probe's own time
# (about 2 ms) is about 5% of a section's wall time.
PERIOD_S = 0.04
# Rounds of the probe kernel per sample.
ROUNDS = 60
# Median time of one probe sample on the machine the reference numbers
# of README.md were taken on (Intel Xeon, 2 CPUs, Python 3.11, numpy
# 2.4); it only sets the scale of the reported times.
PROBE_REF_S = 2.2e-3

_X = [float(i % 13 + 1) for i in range(64)]
_V = np.linspace(0.0, 1.0, 16)


def _product(a, b, k):
    def f(x):
        return k * x[a] * x[b]
    return f


_TERMS = [_product(i % 64, (i * 7) % 64, 1.0 + i / 300) for i in range(224)]


def probe_kernel(rounds: int = ROUNDS) -> float:
    total = 0.0
    for _ in range(rounds):
        for f in _TERMS:
            total += f(_X)
        total += float(np.dot(_V, _V * total % 3.0))
    return total


class WallClock:
    """Plain wall time of a section."""

    def time(self, fn, *args):
        start = perf_counter()
        result = fn(*args)
        return result, perf_counter() - start


class SpeedProbe:
    """Section times rescaled to the reference probe speed.

    ``samples`` holds every probe time, ``wall`` every section's wall
    time less the probe time inside it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall: list[float] = []
        self._busy = False

    def sample(self) -> float:
        if self._busy:  # a timer tick during a sample would time itself
            return 0.0
        self._busy = True
        try:
            start = perf_counter()
            probe_kernel()
            elapsed = perf_counter() - start
        finally:
            self._busy = False
        self.samples.append(elapsed)
        return elapsed

    def _tick(self, signum, frame):
        self.sample()

    def time(self, fn, *args):
        first = len(self.samples)
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            last = len(self.samples)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self.samples[first + 1:last])
        self.sample()
        work = elapsed - inside
        self.wall.append(work)
        return result, work * PROBE_REF_S / statistics.mean(self.samples[first:])
