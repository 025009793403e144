"""A clock in reference seconds, corrected for the machine's changing speed.

On a shared host the same pure-Python work can take 40% longer for seconds
or minutes at a time, whatever this process does: co-tenants slow the core
down.  Taking medians over passes cannot remove a slowdown that lasts a
whole run.  This clock measures the machine's speed while the benchmark
runs and reports elapsed time in *reference seconds*: the time the work
would take on a machine where the calibration kernel below takes
``REFERENCE_KERNEL_S``.

A ``SIGALRM`` interval timer runs the kernel every ``PERIOD_S``.  Each
stretch of wall time between two samples is scaled by the machine's speed
at its two ends, ``(REFERENCE_KERNEL_S / kernel duration) ** elasticity``;
the time spent in the kernel itself is excluded from both clocks.  The
kernel is pure Python with no calls into the library, so a change to the
library cannot change it.

The elasticity says how strongly a workload's time follows the kernel's:
when the host slows the kernel down by a factor s, the workload slows down
by s ** elasticity.  ``calibrate.py`` measures it for one workload over one
stretch of time.  On a 2-vCPU Xeon virtual machine at 2.1 GHz under Python
3.11, two 150-second fits per workload gave bookshelf_install 1.18 and
1.01, bookshelf_connect 1.16 and 0.92, mini_compare 1.06 and 1.36, and
symmetric_slots 1.26 and 0.66.  The fits of one workload differ from one
stretch to the next by as much as the workloads differ from each other,
since slow spells differ in kind, so one elasticity, the mean of the eight
fits, serves all workloads.  Off by 0.2, it misreads a 1.4-fold slowdown
by 7%.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.1
REFERENCE_KERNEL_S = 0.0006
ELASTICITY = 1.08
_ALARM = {signal.SIGALRM}


def kernel() -> float:
    """Duration of a fixed dict, tuple and sort workload: the least of
    three runs, which drops runs that were interrupted."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        counts: dict = {}
        for i in range(1000):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
        best = min(best, perf_counter() - t0)
    return best


def _speed(elasticity: float) -> float:
    """The machine's current speed relative to the reference machine."""
    return (REFERENCE_KERNEL_S / kernel()) ** elasticity


class WallClock:
    """Plain wall time with the ``SpeedClock`` interface, for traced runs."""

    def __enter__(self):
        self._start = perf_counter()
        return self

    def now(self) -> tuple[float, float]:
        t = perf_counter() - self._start
        return t, t

    def __exit__(self, *exc):
        return False


class SpeedClock:
    """Context manager; ``now()`` reads (wall seconds, reference seconds)
    elapsed since entry, kernel time excluded.  ``elasticity`` 1 gives the
    kernel's own speed, which is what ``calibrate.py`` fits against."""

    def __init__(self, elasticity: float = ELASTICITY):
        self.elasticity = elasticity

    def __enter__(self):
        self.wall = self.ref = 0.0
        self._speed = _speed(self.elasticity)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._since = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _close_stretch(self):
        """Fold the stretch since the last sample into both clocks."""
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            self._fold()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)

    def _fold(self):
        stretch = perf_counter() - self._since
        speed = _speed(self.elasticity)
        self.wall += stretch
        self.ref += stretch * (self._speed + speed) / 2
        self._speed = speed
        self._since = perf_counter()

    def _tick(self, signum, frame):
        self._close_stretch()

    def now(self) -> tuple[float, float]:
        signal.pthread_sigmask(signal.SIG_BLOCK, _ALARM)
        try:
            open_stretch = perf_counter() - self._since
            return self.wall + open_stretch, self.ref + open_stretch * self._speed
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _ALARM)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._close_stretch()
        return False
