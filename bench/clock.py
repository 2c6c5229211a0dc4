"""Timing on a machine whose speed changes under the benchmark.

Measured on the 2-core virtual machine this benchmark was written on, each
core alternates between a fast and a slow phase, for one to twenty seconds
at a time and independently of the other core; the slow phase is the more
common one.  In it the package's code runs 1.64x to 1.74x slower, so wall
times of identical runs differed by up to 40%, far more than any bound
worth setting.

So every benchmark process is pinned to one core, and a fixed calibration
kernel is timed on that core right before and right after each timed unit
(a chunk of a pass, one CLI call, one cold start) and, from a SIGALRM timer,
every SAMPLE_S while the unit runs, so that phase changes inside a long
unit are seen too.  The unit's wall time, less the time the samples took,
is scaled by CAL_REF_S over the mean kernel time: a figure reads as wall
time on a core where the kernel takes CAL_REF_S.  The kernel mixes
what interpreted code does (tuples, dicts, float formatting, exceptions);
it slows by 1.72x in the slow phase, where a plain float loop slows by only
1.48x, so scaling by it cancels the phase to within a few percent.  A
change to the package moves a scaled time as it moves wall time.
"""

from __future__ import annotations

import os
import signal
import time

CAL_REF_S = 2.5e-4
SAMPLE_S = 0.02
_CAL_ITERATIONS = 100
_CAL_REPEATS = 8


def pin_to_one_core() -> int | None:
    """Pin this process (and the children it starts later) to one core; the
    core, or None where the system does not let a process set its own
    affinity (the calibration still applies then)."""
    core = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {core})
    except OSError:
        return None
    return core


def _kernel() -> int:
    seen = {}
    out = []
    for i in range(_CAL_ITERATIONS):
        x = (i * 0.37, i % 11, str(i))
        seen[x[2]] = x
        out.append(format(x[0] / (1.0 + x[1]), ".17g"))
        if i % 3 == 0:
            try:
                raise ValueError(i)
            except ValueError:
                pass
    return len(",".join(out)) + len(seen)


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Mean seconds the kernel takes now."""
    return sum(_timed_kernel() for _ in range(_CAL_REPEATS)) / _CAL_REPEATS


class Clock:
    """Scale factors for consecutive timed units.

    Wrap a unit in start() and stop(); stop() returns the seconds the
    in-unit samples took, to be taken off the unit's wall time, and scale()
    then gives the unit's factor.  A unit timed without start() (a cold
    start, whose time is spent in a child) is scaled by the kernels around
    it alone.
    """

    def __init__(self):
        _kernel()  # the first run is slower: warm up
        self.last = calibrate()
        self.during: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        dt = _timed_kernel()
        self.during.append(dt)
        self.spent += dt

    def start(self) -> None:
        self.during, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.spent

    def scale(self) -> float:
        """CAL_REF_S over the mean kernel time before, during and after the
        unit just timed."""
        now = calibrate()
        total = _CAL_REPEATS * (self.last + now) + sum(self.during)
        kernel = total / (2 * _CAL_REPEATS + len(self.during))
        self.last, self.during = now, []
        return CAL_REF_S / kernel
