"""Job times rescaled to a reference host speed.

On a shared 2-vCPU VM (Xeon, 2.0 GHz) the speed of the host swings up to 2x
within minutes with co-tenant load.  CPU time swings with wall time, so the
variation is host speed, not scheduling, and raw job times spread 8-29%
(IQR over median, ten runs) between runs: more than any useful bound.

A `HostClock` therefore times a fixed reference loop (exact Fraction sums
and small eigvalsh calls, the two kinds of work entrocone does) before and
after each job and, from a SIGALRM handler, every INTERVAL_S during it.  The
job's time, less the time its samples took, is multiplied by the mean of
REFERENCE_S / sample: samples fall evenly in time, so this is the job's time
averaged over the host's speed while it ran, brought to reference speed.  A
median would ignore contended stretches shorter than half the job.  The loop
runs no entrocone code, so a change to the program moves the rescaled time
as much as the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy

REFERENCE_S = 0.00065  # the loop's fastest time on the VM described above
INTERVAL_S = 0.05
EDGE_SAMPLES = 3

_EIGVALSH = numpy.linalg.eigvalsh  # held before tracing can wrap it
_rng = numpy.random.default_rng(0)
_G = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_H = _G @ _G.conj().T


def reference_loop() -> float:
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i % 97 + 1)
    _EIGVALSH(_H)
    _EIGVALSH(_H)
    return time.perf_counter() - t0


class HostClock:
    def __init__(self):
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(reference_loop())
        self._spent += time.perf_counter() - t0

    def measure(self, fn, during: bool = True):
        """Run fn(); return (its result, seconds it took, seconds rescaled to
        the reference speed).  With during=False the loop is sampled only
        before and after, for calls that wait on another process."""
        before = [reference_loop() for _ in range(EDGE_SAMPLES)]
        self._samples, self._spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick) if during else None
        if during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        own = wall - self._spent
        samples = before + self._samples + [reference_loop() for _ in range(EDGE_SAMPLES)]
        return result, own, own * statistics.fmean(REFERENCE_S / t for t in samples)
