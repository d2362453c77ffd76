"""Host-speed sampling, to take the shared host's drift out of timings.

The benchmark runs on a few cores of a shared host, and how fast they run
drifts, by up to a factor of two, over seconds to minutes: the same
feedback cell took between 1.18 s and 2.11 s in one process, with CPU time
equal to wall time.  A run's times therefore say as much about the host as
about the program.

A ``Sampler`` measures the drift inside the process being timed.  A timer
signal runs a fixed pure-Python loop (the probe) every ``INTERVAL_S``
seconds of wall time, between the program's own bytecodes, and records how
long the loop took.  A time measured between two ``Reading``s is reported
as

    (measured seconds - seconds spent in the sampler)
        * REF_PROBE_S / mean probe time over the same interval,

that is, in seconds on a host where the probe takes ``REF_PROBE_S``.  The
probe costs about 2.5 % of the run, which the formula removes.

Over 30-40 repeats of one item in one process, the probe time and the item
time correlated at 0.92-0.97 for feedback cells, fits and moment reports,
and the spread of one item's time (standard deviation over mean) fell from
0.12-0.21 as measured to 0.04-0.07.  The program does not slow down by
exactly the probe's factor (a log-log slope of item on probe time of 0.85
for moment reports, 1.3-1.6 for feedback cells and fits, varying from one
measurement to the next), so some drift remains; see ``PASSES`` in
``run.py`` for what takes out most of the rest.

Nothing in the probe depends on the program, so a change that makes the
program slower or faster moves the reported times as it moves the
measured ones.
"""

import signal
import time
from typing import NamedTuple

INTERVAL_S = 0.04
PROBE_LOOPS = 10_000
# probe time on the reference host (environment.json) when it runs fast
REF_PROBE_S = 0.00075


class Reading(NamedTuple):
    """Sampler totals at one instant."""
    count: int = 0         # probes run
    probe_s: float = 0.0   # summed probe times
    spent_s: float = 0.0   # summed time inside the signal handler
    last_s: float = 0.0    # the latest probe time


def probe_s():
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """Runs the probe from ``SIGALRM`` while started."""

    def __init__(self):
        self._reading = Reading()

    def _sample(self, signum, frame):
        start = time.perf_counter()
        took = probe_s()
        r = self._reading
        self._reading = Reading(r.count + 1, r.probe_s + took,
                                r.spent_s + time.perf_counter() - start, took)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self):
        return self._reading


def normalize(seconds, before, after):
    """``seconds`` measured between two readings, at the reference speed.

    An interval too short to hold a probe uses the latest probe before it.
    """
    count = after.count - before.count
    mean = (after.probe_s - before.probe_s) / count if count else after.last_s
    if mean <= 0:
        raise ValueError("no host-speed probe ran before or during the "
                         "interval")
    return (seconds - (after.spent_s - before.spent_s)) * REF_PROBE_S / mean
