"""Machine-speed probe: end-to-end times rescaled to a reference speed.

On a shared 2-core VM (Intel Xeon, Python 3.11.7), the CPU speed seen by
one process drifts by up to about 35% over tens of seconds, whatever the
process runs: a fixed pure-Python loop drifts just like binox.  That drift,
not the program, set the run-to-run spread of raw times (20-30% between
runs in noisy periods).

The probe runs a fixed pure-Python reference kernel (about 20 ms) every
INTERVAL_S seconds from a SIGALRM handler, between two bytecodes of whatever
is running, and keeps each slice's time and duration.  The speed factor of
an interval is the mean duration of the slices taken within WINDOW_S of it,
divided by REFERENCE_S, and a time is reported divided by that factor: the
time the interval would have taken at the speed at which one slice takes
REFERENCE_S.  Time spent in the slices is excluded from every measured
interval.  Over five runs of each workload this cut the run-to-run spread of
pass times from 10-18% to 3-4%.

A change to binox does not change the kernel's time, so the rescaled times
of two versions compare as their raw times would on a steady machine.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

INTERVAL_S = 0.5
WINDOW_S = 1.0
REFERENCE_S = 0.02  # nominal slice duration; the unit the times are scaled to


def reference_kernel() -> int:
    """Fixed work in the style of binox: tuples, dict lookups, a heap."""
    counts: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int]] = []
    acc = 0
    for i in range(10000):
        t = (i % 97, i % 89, i)
        key = t[:2]
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, (i % 101, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        acc += len(t)
    return acc + len(sorted(counts.items(), key=lambda kv: (kv[1], kv[0])))


class SpeedProbe:
    """Context manager sampling the machine's speed while it is active."""

    def __init__(self) -> None:
        # (start in now() time, duration) of each reference slice
        self.slices: list[tuple[float, float]] = []
        self.paused = 0.0  # total time spent in slices
        self._busy = False
        self._old_handler = None

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _tick(self, signum, frame) -> None:
        if not self._busy:  # a tick that lands inside a slice is dropped
            self.sample()

    def sample(self) -> None:
        # no collection inside a slice: its cost grows with the program's
        # heap, not with the machine's speed
        collecting = gc.isenabled()
        self._busy = True
        gc.disable()
        try:
            at = self.now()
            t0 = time.perf_counter()
            reference_kernel()
            spent = time.perf_counter() - t0
            self.slices.append((at, spent))
            self.paused += spent
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def now(self) -> float:
        """perf_counter() minus the time spent in slices."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if paused == self.paused:  # no slice ran in between
                return t - paused

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor of the interval [t0, t1] of now() time; above 1
        means slower than the reference speed."""
        near = [spent for at, spent in self.slices
                if t0 - WINDOW_S <= at <= t1 + WINDOW_S]
        return statistics.mean(near) / REFERENCE_S


class PlainClock:
    """Raw perf_counter time, for the traced run: its spans use raw time."""

    def __enter__(self) -> "PlainClock":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def now(self) -> float:
        return time.perf_counter()

    def sample(self) -> None:
        pass

    def factor(self, t0: float, t1: float) -> float:
        return 1.0
