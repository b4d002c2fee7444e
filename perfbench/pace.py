"""Host speed probe: every time metric is reported at one reference speed.

The benchmark runs on a shared host whose vCPUs each flip, several times a
second, between a fast state and one about 1.6 times slower, with CPU time
tracking wall time; how much of a run is slow changes from run to run, so
no run length averages it out.  The benchmark pins itself and its children
to one CPU, and times a fixed probe (the benchmark's own rank pass over
one fixed 8192-leaf tree: pure Python like treesec, and never changed by
it) between operations, every ``INTERVAL_S``.  An operation's wall time is
scaled by ``REFERENCE_S`` over the mean probe time within ``WINDOW_S`` of
it, which reads it at the speed where the probe takes ``REFERENCE_S``.
The raw wall times are printed next to the scaled ones.
"""

import bisect
import os
import random
import time

import oracle

REFERENCE_S = 0.040  # probe time that defines the reference speed
INTERVAL_S = 0.25  # at most this much wall time passes between two probes
WINDOW_S = 3.0  # probes this close to an operation scale it
WARMUP = 2  # untimed probes before the first one

_TREE = oracle.grow_proper_binary(random.Random(0), 8192, 0.001)


def pin():
    """Keep this process and its children on one CPU, so that the probes
    and the operations they scale run on the same one."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def probe():
    """Wall seconds of one probe."""
    t0 = time.perf_counter()
    oracle.analyze(_TREE)
    return time.perf_counter() - t0


class Pacer:
    """Probes taken at most ``INTERVAL_S`` apart, and the scale they give
    to whatever ran between them."""

    def __init__(self):
        for _ in range(WARMUP):
            probe()
        self.times = []
        self.probes = []
        self.sample()

    def sample(self, count=1):
        for _ in range(count):
            self.times.append(time.perf_counter())
            self.probes.append(probe())

    def due(self):
        """Probe if ``INTERVAL_S`` has passed since the last probe; call it
        between operations."""
        if time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, start, end):
        """Factor from wall time between ``start`` and ``end`` to reference
        time, from the probes within ``WINDOW_S`` of that interval."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.probes[lo:hi] or self.probes
        return REFERENCE_S * len(near) / sum(near)

    def run_scale(self):
        """One factor for the whole run, from every probe."""
        return REFERENCE_S * len(self.probes) / sum(self.probes)
