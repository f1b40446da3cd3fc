"""The host's speed, read with a fixed pure-Python reference kernel.

The machine the benchmark runs on shares its cores with other tenants, and
its speed on identical work drifts by up to 50 % for tens of seconds at a
time.  While a worker sets up and runs its ops, a timer interrupts it every
``INTERVAL_S`` to time the kernel below.  ``run.py`` scales each phase's
times by ``REFERENCE_MS`` / (the kernel's median time in that phase): a
scaled time reads as it would on a host that runs the kernel in
``REFERENCE_MS``.  The kernel never calls termalg, so a change to termalg
moves a scaled time by the same share as the raw one.  The time the kernel
takes is subtracted from every time the worker measures.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

REFERENCE_MS = 1.0
INTERVAL_S = 0.05


def _tree(seed, depth):
    if depth == 0:
        return seed % 5
    return (_tree(seed * 3 + 1, depth - 1), _tree(seed * 7 + 2, depth - 1))


def kernel():
    """Build, hash and index 36 binary trees of tuples: the allocation,
    recursion and hashing that term code does, about 1-2 ms of work."""
    index = {}
    for i in range(36):
        index[_tree(i, 7)] = i
    return len(index)


class KernelClock:
    """Kernel timings taken from a SIGALRM handler, and the time they took."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.samples_ms = []
        self.spent_s = 0.0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.sample()

    def sample(self):
        """Time one kernel run with the garbage collector off, so that the
        run never pays for a collection of the program's heap."""
        self._busy = True
        outer = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
            self.spent_s += time.perf_counter() - outer
            self._busy = False
        self.samples_ms.append((end - start) * 1000)

    def median_ms(self, since=0):
        """Median kernel time of the samples from index ``since`` on; takes
        one sample first if there is none."""
        if len(self.samples_ms) <= since:
            self.sample()
        return statistics.median(self.samples_ms[since:])


def scale(seconds, kernel_ms):
    """A time measured while the kernel took kernel_ms, at the reference speed."""
    return seconds * REFERENCE_MS / kernel_ms
