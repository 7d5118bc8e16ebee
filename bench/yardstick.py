"""Section times at a fixed reference host speed, measured against a yardstick.

The benchmark gets a share of a host whose speed switches by 30-40% within a
second and drifts in phases of seconds to minutes, CPU time as much as wall
time: neighbours share the cores' caches and clocks.  So each timed section
is measured against the yardstick, a fixed kernel that runs nothing of the
package.  One pass is timed before and after the section, and a SIGALRM
handler takes one every SAMPLE_EVERY_S inside it.  The section's time at the
reference speed (the speed at which one pass takes YARD_REF_S) is its wall
time, less the passes inside it, times the mean of YARD_REF_S / pass.  A
change to the package moves the section and not the yardstick, so it shows
in full.

Signals wait while C code runs, so a long call into a C library (the MILP
solver) gets no pass until it returns.  Such a section takes the passes
within one section length on each side of it instead, which tell the host's
speed around it better than its two ends alone.

Measured on a 2-core VM of a shared host, interleaving rounds for minutes:
25-second windows of the continuum and clique rounds spread 0.19-0.21
(quartile distance over median) in wall time and 0.055 at the reference
speed with end passes alone; the enumeration's single times spread 0.137
with end passes and 0.079 with the window.  The Python loop tracks the host
better than a numpy sort, and a pass over an 8 MB array tracks it worst.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

YARD_REF_S = 1.0e-3
SAMPLE_EVERY_S = 0.025
_DATA = np.random.default_rng(0).random(20_000)
STARTS = []  # perf_counter at the start of every pass of the run
PASSES = []  # every pass of the run, in seconds
_inside = []  # the passes inside the section being measured
_in_pass = False


def yardstick() -> float:
    """Seconds one pass of the fixed kernel takes now: a Python loop over a
    dict and a numpy sort, as the package's own work mixes both."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(8_000):
        acc += i * i
        table[i & 255] = acc
    np.sort(_DATA)
    dt = time.perf_counter() - t0
    STARTS.append(t0)
    PASSES.append(dt)
    return dt


def _pass_inside(signum, frame):
    global _in_pass
    if not _in_pass:  # a signal that arrives during a pass waits for the next
        _in_pass = True
        _inside.append(yardstick())
        _in_pass = False


class Section:
    """One timed section: its bounds, its wall seconds less the passes inside
    it, and the passes taken at its ends and inside it."""

    def __init__(self, t0, t1, seconds, passes):
        self.t0, self.t1, self.seconds, self.passes = t0, t1, seconds, passes

    def factor(self) -> float:
        """What turns seconds measured in this section into seconds at the
        reference speed; read it once the run has taken the passes after."""
        length = self.t1 - self.t0
        passes = self.passes
        if len(passes) - 2 < int(length / (2 * SAMPLE_EVERY_S)):  # the sampler could not see in
            lo = bisect.bisect_left(STARTS, self.t0 - length)
            hi = bisect.bisect_right(STARTS, self.t1 + length)
            passes = PASSES[lo:hi]
        return statistics.fmean(YARD_REF_S / y for y in passes)

    def reference_seconds(self) -> float:
        return self.seconds * self.factor()


def measure(fn, sample=True):
    """(fn(), its Section).  With `sample`, passes are taken inside the
    section; traced rounds do without, so that no span holds a pass."""
    _inside.clear()
    before = yardstick()
    if sample:
        signal.signal(signal.SIGALRM, _pass_inside)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    inside = list(_inside)
    return out, Section(t0, t1, t1 - t0 - sum(inside), [before, *inside, yardstick()])
