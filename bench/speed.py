"""Host-speed calibration.

The machines this benchmark runs on are shared: the same queries, run
minutes apart, take up to 40% longer or shorter, and the slow phases last
longer than a run, so no statistic within a run removes them.  Within a
run the speed also changes in bursts of about a second, by up to a factor
of two.  So a short, fixed pure-Python kernel (tuple, set and dict work,
the program's own diet) is timed often between queries, and every time
the benchmark reports is scaled by ``REFERENCE_S / kernel time`` of the
same round: seconds at the speed at which the kernel takes
``REFERENCE_S``.  The kernel time is the geometric mean of the samples,
which follows the share of slow samples smoothly, where a median would
jump between the fast and the slow speed when that share is near half.  The kernel is not
program code, so a change to the program moves the scaled times exactly
as it moves the raw ones.  The raw times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.01    # kernel time at the reference speed
EVERY_S = 0.2         # at most one kernel sample per this much querying


def kernel():
    """A fixed amount of pure-Python work: a breadth-first closure of a
    tuple under adjacent swaps, with a working set of about a megabyte."""
    start = (1, 2, 3, 4, 5, 6, 7, 0)
    seen = {start}
    frontier = [start]
    while frontier and len(seen) < 3000:
        nxt = []
        for u in frontier:
            for i in range(7):
                c = u[:i] + (u[i + 1], u[i]) + u[i + 2:]
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return len(seen)


class Speed:
    """Kernel samples taken during one stretch of measurement."""

    def __init__(self):
        self.samples = []
        self.last = None

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.last = t1

    def maybe_sample(self):
        if self.last is None or time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def scale(self):
        """Multiply raw seconds by this to get reference seconds."""
        return REFERENCE_S / statistics.geometric_mean(self.samples)
