"""Host-speed probe: report times at a fixed reference speed of the CPU.

The benchmark runs on a few cores of a shared host, and the speed of those
cores drifts with what the other tenants do.  On a 2-vCPU VM the same
1,000-sweep solve took 0.33-0.51 s within one minute, and medians of whole
55 s runs moved by a quarter between runs; CPU time moved as much as wall
time.  A fixed piece of reference work (:func:`burst`, which calls nothing
of the program) slows down with the same host, so the benchmark times it
all along the run and divides the drift out:

    time at reference speed = (wall time - probe time) * REFERENCE_S / burst time

where the burst time is the mean of the bursts from ``window`` seconds
before the timed interval to ``window`` seconds after it.
While a :class:`Probe` is active, SIGALRM interrupts the main thread every
``interval`` seconds and runs one burst; the probe's own time is taken out
of the intervals it falls into.  Python runs a signal handler between
bytecodes, so a burst waits for a long C call (a BLAS product, say) to
return, and its timestamps say where it really ran.

A change to the program moves the wall time, not the bursts, so it moves
the normalised time by the same share.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# mean burst time on the reference host state (2-vCPU Xeon VM); it only
# fixes the scale of the normalised times, which stays the same for every
# commit measured with this benchmark
REFERENCE_S = 2.6e-3
_SMALL = np.arange(48 * 48, dtype=np.float64).reshape(48, 48) / (48 * 48)
# larger than L2, like the m=1000 matrix the large solves stream through
_BIG = np.random.default_rng(0).random((640, 640))
_THIN = np.random.default_rng(1).random((640, 10))


def burst() -> None:
    """Fixed reference work: interpreter-bound loops over ints, floats and
    strings, the kinds of work the program's sweeps and file I/O do, a few
    small matrix products, and one tall product that streams a 3 MB matrix
    as the large solves' products do."""
    acc, text = 0, []
    for i in range(1500):
        acc += (i * i) % 7
        text.append(repr(i * 0.1))
    acc += sum(float(s) for s in text) > 0
    b = _SMALL
    for _ in range(4):
        b = _SMALL @ b
    c = _BIG @ _THIN
    if not acc or not (np.isfinite(b).all() and np.isfinite(c).all()):
        raise AssertionError("reference burst went wrong")


class Probe:
    """Runs :func:`burst` every ``interval`` seconds while active and
    keeps each one's start and end."""

    window = 1.0  # host speed holds steady over a few seconds

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        burst()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Probe":
        for _ in range(3):  # first calls warm the burst's code paths
            burst()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def overhead(self, t0: float, t1: float) -> float:
        """Probe time spent inside [t0, t1]."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.ends, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def burst_s(self, t0: float, t1: float) -> float:
        """Mean burst time over [t0 - window, t1 + window]."""
        lo = bisect.bisect_left(self.starts, t0 - self.window)
        hi = bisect.bisect_right(self.ends, t1 + self.window)
        if hi <= lo:
            raise RuntimeError(f"no probe burst around [{t0:.3f}, {t1:.3f}]")
        return statistics.fmean(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def normalise(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in seconds at the reference speed."""
        return (t1 - t0 - self.overhead(t0, t1)) * REFERENCE_S / self.burst_s(t0, t1)
