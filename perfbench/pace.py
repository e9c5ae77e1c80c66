"""The host-speed probe that puts every timing on one reference clock.

On a shared host the same pure-Python work runs at a speed that changes
from one moment to the next: on the 2-CPU host the benchmark was tuned
on, a fixed loop ran either at
about 0.6 or at about 1.1 times its median time, switching every 10 to
700 ms, and the share of slow moments drifted over minutes, so that one
pass of a workload took 10-40% longer in one minute than in another.
Jobs run for milliseconds to seconds, so that drift goes straight into
their times.

``Sampler`` therefore runs a fixed piece of work, which uses no patex
code, from a timer signal every ``INTERVAL_S`` seconds while the jobs
run, and after each job.  The probe's time per unit during a job and
right after it says how fast the host ran for that job;
``Sampler.factor_since`` turns it into the factor by which the job's
latency is divided, once the probe's own time is taken out of it.

A time on the reference clock is the time the work would have taken on a
host that runs one probe unit in exactly ``UNIT_S`` seconds, which is
about the median time of a unit on that host (x86-64, Python 3.11).  A change that makes patex slower or faster
moves reference times by the same share as wall times, since the probe
runs none of its code.  A compiled kernel that holds the interpreter for
a whole search delays the timer's probes to its end; the probes after
each job still sample the pass.
"""

from __future__ import annotations

import signal
import time

UNIT_S = 0.0001  # reference time of one probe unit
UNITS_PER_SAMPLE = 2  # one probe sample: about 0.2 ms
INTERVAL_S = 0.005  # timer period: the probe takes about 4% of the time
_LOOPS = 200  # iterations per probe unit

_TABLE = dict.fromkeys(range(64), 0)  # reused, so the probe allocates no containers


def _step(i: int, acc: int) -> int:
    return (acc * 31 + i) & 0xFFFFF


def run_units(units: int) -> float:
    """Run ``units`` probe units; return the seconds they took."""
    table, step = _TABLE, _step
    start = time.perf_counter()
    for _ in range(units):
        acc = 0
        for i in range(_LOOPS):
            acc = step(i, acc)
            key = acc & 63
            table[key] = (table[key] + (acc >> 6)) & 0xFFFF
            if acc & 1:
                acc ^= len(str(i))
    return time.perf_counter() - start


def speed_factor(seconds: float, units: int) -> float:
    """How many times slower than the reference the host ran while
    ``units`` probe units took ``seconds``: divide a measured time by this
    to get reference time."""
    return seconds / (units * UNIT_S)


class Sampler:
    """Probe samples taken from a timer signal and on request; ``units``
    and ``seconds`` add them all up."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        try:
            self.seconds += run_units(UNITS_PER_SAMPLE)
            self.units += UNITS_PER_SAMPLE
        finally:
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return self.units, self.seconds

    def factor_since(self, mark: tuple[int, float]) -> float:
        units, seconds = self.units - mark[0], self.seconds - mark[1]
        return speed_factor(seconds, units)
