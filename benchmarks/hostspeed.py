"""Host-speed normalisation for the end-to-end times.

The 2-vCPU box this benchmark was built on runs up to 60 % slower for
stretches of seconds to minutes, in CPU time as much as in wall time
(another tenant on the same cores).  Raw pass walls of one workload
ranged from 6.2 s to 9.2 s over ten runs of a few minutes.

A fixed reference kernel (a pure-Python loop and NumPy vector work, no
gkrevival code) is timed in short bursts between the ops.  Each op's
time is scaled by NOMINAL_S / (mean reference time of the bursts just
before and just after it), which gives the op's time at a fixed host
speed.  Over six 40-second windows this cut the max-min spread of an
op's median time from 20-28 % to about 4 %.  A change to gkrevival
cannot change the reference kernel, so a slower program still reads
slower; only the host's speed cancels.
"""

from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# Reference kernel time on the build host in its fast stretches; it sets
# the scale ("seconds at reference speed") and cancels in every ratio.
NOMINAL_S = 0.025


def kernel():
    x = 0
    for i in range(100_000):
        x += i * i % 7
    a = np.arange(20_000.0)
    for _ in range(30):
        b = np.exp(-1j * a * 0.001)
        a = a + 1e-9
        x += int(b.sum().real)
    return x


class Speedometer:
    """Reference bursts at known times, and the scale factor for an
    interval from the bursts that bracket it."""

    def __init__(self):
        self.ends = []          # perf_counter() at the end of each burst
        self.refs = []          # duration of each burst

    def sample(self):
        if not self.refs:
            kernel()            # untimed: first-call costs are not host speed
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.ends.append(t1)
        self.refs.append(t1 - t0)

    def sample_every(self, seconds):
        """Burst if the last one ended `seconds` ago or more."""
        if not self.ends or perf_counter() - self.ends[-1] >= seconds:
            self.sample()

    def factor(self, start, end):
        """NOMINAL_S over the mean reference time of the last burst that
        ended by `start` and the first that ended after `end`."""
        before = bisect_right(self.ends, start) - 1
        after = bisect_left(self.ends, end)
        near = [self.refs[k] for k in (before, after) if 0 <= k < len(self.refs)]
        if not near:
            raise ValueError("no reference burst around the interval")
        return NOMINAL_S * len(near) / sum(near)

    def median_ref_s(self):
        return sorted(self.refs)[len(self.refs) // 2] if self.refs else None
