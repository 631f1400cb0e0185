"""A clock that reads in reference seconds, so timings survive host drift.

On a shared host, single-threaded Python code can run at speeds that
differ by 1.5x or more from one second to the next, as neighbours come and
go, and CPU time follows wall time.  The median of a run then measures how
much of it fell in a slow phase, and two sets of runs taken an hour apart
disagree by more than any useful bound.

RefClock measures the host's speed while the program runs.  Every PERIOD
seconds a SIGALRM handler times a fixed pure-Python loop (tuple keys, dict
updates, modular integer products and a sort: the operations gbengine
spends its time on).  A timed span's wall (or CPU) time, with the ticks
taken out, is multiplied by the mean speed of the ticks in and around it,
where speed is CAL_REF_S over the loop's time.  The span then reads in
reference seconds: seconds on a host where the loop takes CAL_REF_S.
CAL_REF_S is about the loop's time on an idle 2-vCPU x86-64 cloud VM under
CPython 3.11.

A change to the program that saves work saves reference seconds in the
same proportion as wall seconds; only the host's speed is divided out.
Raw wall and CPU seconds, ticks taken out, are kept beside the reference
ones.  A clock that is never started has no ticks and reads raw seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.05           # seconds from the end of one tick to the next
CAL_ITERS = 5000        # iterations of the calibration loop per tick
CAL_REF_S = 0.005       # seconds the loop takes at reference speed


def calibration_loop(n=CAL_ITERS):
    p = 2147483647
    table = {}
    items = []
    acc = 1
    for i in range(n):
        key = (i & 31, (i >> 5) & 7, i & 3)
        acc = acc * 48271 % p
        table[key] = table.get(key, 0) + acc
        items.append((acc, key))
    items.sort()
    return acc + len(table) + items[0][0]


class RefClock:
    """Use as a context manager around the timed work; `mark()` notes a
    point in time and `span(m0, m1)` times the work between two marks."""

    def __init__(self, period=PERIOD):
        self.period = period
        self.ticks = []         # (loop wall s, loop cpu s) per tick
        self._in_ticks = (0.0, 0.0)     # wall and cpu spent in ticks
        self._running = False
        self._saved = None

    def _calibrate(self):
        a, pa = time.perf_counter(), time.process_time()
        calibration_loop()
        wall, cpu = time.perf_counter() - a, time.process_time() - pa
        self.ticks.append((wall, cpu))
        tw, tc = self._in_ticks
        self._in_ticks = (tw + wall, tc + cpu)

    def _tick(self, signum, frame):
        self._calibrate()
        if self._running:       # one-shot timer, so ticks never overlap
            signal.setitimer(signal.ITIMER_REAL, self.period)

    def __enter__(self):
        self._calibrate()       # every span has a tick before it
        self._running = True
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._calibrate()       # ... and one after it
        return False

    def mark(self):
        while True:             # retry if a tick fell between the reads
            n = len(self.ticks)
            in_ticks = self._in_ticks
            t, pt = time.perf_counter(), time.process_time()
            if len(self.ticks) == n:
                return (t, pt, n, in_ticks)

    def span(self, m0, m1):
        """(reference wall s, reference cpu s, raw wall s, raw cpu s)."""
        t0, c0, n0, (tw0, tc0) = m0
        t1, c1, n1, (tw1, tc1) = m1
        wall = (t1 - t0) - (tw1 - tw0)
        cpu = (c1 - c0) - (tc1 - tc0)
        around = self.ticks[max(n0 - 1, 0):n1 + 1]
        if not around:
            return wall, cpu, wall, cpu
        speed = statistics.fmean(CAL_REF_S / w for w, _ in around)
        cpu_speed = statistics.fmean(CAL_REF_S / max(c, 1e-9)
                                     for _, c in around)
        return wall * speed, cpu * cpu_speed, wall, cpu

    def speed(self):
        """The host's median speed over all ticks (1 = reference)."""
        return CAL_REF_S / statistics.median(w for w, _ in self.ticks)
