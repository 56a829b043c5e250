"""Host-speed calibration interleaved with a timed job.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, so runs of the same code minutes apart read different raw
times.  A ``Pacer`` measures the host's speed over the same interval as the
job: every PERIOD_S of wall time a SIGALRM handler runs one fixed
calibration slice and records how long it took.  The job's time is then
reported net of the slices and scaled to the reference speed, at which one
slice takes its reference time:

    job_s = (raw job time - slice time) * reference slice time / mean slice time

Host slowdowns do not hit all work alike, so the slice is of the kind of
work the job does: pure-Python integer and fraction arithmetic for the
``orders``-bound workloads, strided numpy writes over an array larger than
the CPU caches for the range sieves.

The slices touch nothing of the library, so a change to the library moves
the scaled time exactly as it moves the raw time.  The handler re-arms a
one-shot timer after each slice, so slices never nest; a long C call (a
numpy pass) only delays the next slice.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.1


def python_slice() -> int:
    """A fixed piece of pure-Python work: polynomial products with fraction
    coefficients reduced modulo a monic polynomial, and Euclid on 60-bit
    integers."""
    acc = 0
    for k in range(20):
        a = [Fraction(i * 7 + k, 3) for i in range(6)]
        b = [i * 13 - k for i in range(6)]
        prod = [0] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(10, 5, -1):
            c = prod[d]
            prod[d] = 0
            prod[d - 6] -= c * 5
            prod[d - 5] += c
        x, y = 2**61 - 1 + k, 3**33 + k
        while y:
            x, y = y, x % y
        acc += x + int(prod[0])
    return acc


def numpy_slice(array) -> None:
    """A fixed piece of memory-bound numpy work: strided writes over
    ``array`` (NUMPY_BYTES bytes), the access pattern of a range sieve."""
    for step in (3, 5, 7):
        array[::step] = 0
        array[1::step] = 1


NUMPY_BYTES = 1 << 23
# Median slice times on a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4;
# scaled times read in seconds at that speed.
REF_SLICE_S = {"python": 0.004, "numpy": 0.005}


class Pacer:
    def __init__(self, kind: str):
        if kind == "numpy":
            import numpy

            array = numpy.ones(NUMPY_BYTES, dtype=numpy.uint8)
            self._slice = lambda: numpy_slice(array)
        else:
            self._slice = python_slice
        self.ref_slice_s = REF_SLICE_S[kind]
        self.slices = 0
        self.wall = 0.0  # seconds spent in slices
        self.cpu = 0.0  # process CPU seconds spent in slices
        self._running = False

    def _measure(self) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._slice()
        self.cpu += time.process_time() - cpu0
        self.wall += time.perf_counter() - wall0
        self.slices += 1

    def _tick(self, signum, frame) -> None:
        self._measure()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        """One slice now, then one every PERIOD_S until ``stop``."""
        self._measure()
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        """Disarm the timer, then one last slice."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._measure()

    def clock(self) -> float:
        """``time.perf_counter`` with the slices taken out."""
        return time.perf_counter() - self.wall

    def scale(self) -> float:
        """Factor from this host's seconds to reference seconds."""
        return self.ref_slice_s * self.slices / self.wall
