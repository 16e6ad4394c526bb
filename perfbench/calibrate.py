"""Host-speed calibration for the benchmark's times.

The hosts this benchmark runs on drift: the same pure-Python work runs
20-50% slower for seconds to minutes at a time.  The drift is not time
spent waiting (wall time equals CPU time throughout); it is not shared
with the other CPU, so a probe in another process cannot follow it; and
it slows some kinds of work more than others.  Raw seconds from runs a
minute apart spread by more than any useful regression bound.

So a worker samples its own speed while it works.  A timer signal
interrupts it every PERIOD_S seconds, and the handler times a fixed
pure-Python loop (the probe) in the same thread on the same CPU.  An
interval [t0, t1] of the workload is then reported in calibrated
seconds: each stretch of it between two samples, the handler's own time
left out, counts its raw seconds times the probe's REFERENCE_S over the
probe time measured there.  That is the time the interval would take on
a host where the probe takes REFERENCE_S.  A change to qspectra moves
calibrated seconds as it moves raw seconds, because the probe runs no
qspectra code.  Raw seconds are printed beside every run.
"""

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
# samples on either side whose median smooths a sample's probe time
SMOOTH = 10

clock = time.perf_counter


def _small_fractions():
    acc = Fraction(0)
    for i in range(1, 61):
        acc += Fraction(i % 7 + 1, i)
    return acc


_RNG = random.Random(5)
_BIG = [Fraction(_RNG.getrandbits(110) + 1, _RNG.getrandbits(100) + 1)
        for _ in range(40)]


def _big_fractions_and_dicts():
    acc = Fraction(0)
    for i in range(0, 40, 2):
        acc += _BIG[i] * _BIG[i + 1]
    d = {}
    for i in range(150):
        d[(i, i * 7 % 13)] = (i,)
    return acc, len(d)


# The drift slows kinds of work unequally, so each workload is calibrated
# by the probe whose slowdown tracked its own best when this was written:
# (loop, REFERENCE_S), REFERENCE_S being the loop's median seconds on a
# quiet 2-core host under Python 3.11, so that calibrated seconds read
# close to raw ones there.
PROBES = {
    "small-fractions": (_small_fractions, 0.00011),
    "big-fractions-and-dicts": (_big_fractions_and_dicts, 0.0002),
}


def probe(kind="small-fractions"):
    """Seconds of one run of a probe loop."""
    loop = PROBES[kind][0]
    t0 = clock()
    loop()
    return clock() - t0


class Sampler:
    """Times the probe on every timer signal until ``stop``."""

    def __init__(self, kind):
        self.loop, self.reference_s = PROBES[kind]
        self.created = clock()
        self.starts = []
        self.ends = []
        self.probes = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, _signum, _frame):
        # the probe frees all it allocates; with the collector paused it
        # leaves the workload's garbage collection where it would be
        enabled = gc.isenabled()
        gc.disable()
        t0 = clock()
        self.loop()
        t1 = clock()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.probes.append(t1 - t0)
        self.ends.append(clock())

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def handler_seconds(self, t0, t1):
        """Seconds the handler ran inside [t0, t1]."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return sum(e - s for s, e in zip(self.starts[i:j], self.ends[i:j]))

    def _probe_s(self, k):
        """Probe seconds at sample k, smoothed: the median of the samples
        around it (the last ones when k is past the end)."""
        near = (self.probes[max(k - SMOOTH, 0):k + SMOOTH + 1]
                or self.probes[-(2 * SMOOTH + 1):])
        if not near:
            t = clock()
            self.loop()
            near = [clock() - t]
        return statistics.median(near)

    def seconds(self, t0, t1):
        """Calibrated seconds of [t0, t1].  Each stretch between samples
        counts at the speed the probe showed there, so drift inside a
        long interval is followed; the handler's own time is left out."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        total = 0.0
        prev = t0
        for k in range(i, j):
            total += (self.starts[k] - prev) / self._probe_s(k)
            prev = self.ends[k]
        total += (t1 - prev) / self._probe_s(j)
        return total * self.reference_s

    def scale(self, t0, t1):
        """Calibrated over raw seconds for [t0, t1], handler time left out
        of both."""
        return self.seconds(t0, t1) / (t1 - t0 - self.handler_seconds(t0, t1))
