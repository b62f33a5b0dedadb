"""The speed of the processor while the benchmark runs, from a fixed
reference computation.

On a virtual machine whose processors are shared with other tenants, the
speed of plain Python code drifts by tens of percent from one minute to the
next.  So every time the benchmark reports
is in nominal seconds: measured seconds times NOMINAL_S over the mean time
of a reference computation, run every INTERVAL_S in the same process while
the samples run.  The reference multiplies polynomials stored as dicts of
exponent tuples, as the program does, but with the benchmark's own code, so
a change to the program cannot change it.  The slowdowns come in bursts,
which a mean follows and a median misses; the mean leaves out the fastest
and the slowest tenth, and the garbage collector is off while the reference
runs, so that it does not collect the program's garbage on the probe's
clock.
"""

from __future__ import annotations

import gc
import os
import signal
import statistics
import time

from inputs import poly_mul

# About the reference's time between samples on a quiet 2-vCPU x86-64 machine
# under CPython 3.11, so that a nominal second is close to a second there.
NOMINAL_S = 0.0008
INTERVAL_S = 0.1

_BASE = {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 0): 3, (0, 0, 0, 1): 1}


def loop_s() -> float:
    """Seconds to compute the fifth power of a linear form in 4 variables."""
    start = time.perf_counter()
    p = _BASE
    for _ in range(4):
        p = poly_mul(p, _BASE)
    return time.perf_counter() - start


def scale(loops) -> float:
    """Nominal seconds per measured second, from reference times."""
    ordered = sorted(loops)
    cut = len(ordered) // 10
    return NOMINAL_S / statistics.mean(ordered[cut:len(ordered) - cut])


class Probe:
    """Runs the reference computation from a timer signal every INTERVAL_S while
    started.  `spent` is the time the probes took, which the caller takes
    out of the times it measures."""

    def __init__(self):
        self.loops = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.loops.append(loop_s())
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one processor, so that the
    reference and the work it scales run on the same one."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
