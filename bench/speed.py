"""The host's current speed, sampled with a fixed pure-Python probe.

On a shared host the same Python code runs up to about twice as slowly
while other tenants are busy, in bursts whose density drifts over
minutes.  A run samples a fixed probe between its calls, outside their
timers; the probe's mean time divided by `REF_S` is the run's speed
factor, and the benchmark divides its call times by it.  A change to
curvelab moves the rescaled times as it moves the raw ones, while a
slower host moves the probe and the calls alike and cancels out.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

REF_S = 0.001  # rescaled times read as seconds on a host where one probe takes 1 ms
GAP_S = 0.02  # one sample per this much wall time, taken between calls
MAX_BATCH = 10  # most samples taken between two calls
WARMUP = 50  # unrecorded samples, so the interpreter has specialised the kernel


def probe_kernel() -> int:
    """Interpreter work of the kind curvelab does: small tuples, dict
    updates, generator sums."""
    acc = 0
    seen: dict = {}
    for i in range(600):
        v = (i & 7, i >> 3 & 7, i % 5, i % 3)
        seen[v] = seen.get(v, 0) + 1
        acc += sum(a * b for a, b in zip(v, (3, 5, 7, 11)))
    return acc + len(seen)


class SpeedProbe:
    def __init__(self) -> None:
        for _ in range(WARMUP):
            probe_kernel()
        self.times = array("d")
        self._last = perf_counter()

    def sample(self) -> None:
        t0 = perf_counter()
        probe_kernel()
        self._last = perf_counter()
        self.times.append(self._last - t0)

    def maybe_sample(self) -> None:
        """One sample per GAP_S since the last, at most MAX_BATCH, so long
        calls are covered as densely as short ones."""
        for _ in range(min(MAX_BATCH, int((perf_counter() - self._last) / GAP_S))):
            self.sample()

    def factor(self) -> float:
        """Mean probe time over REF_S: above 1 on a slower host."""
        if not self.times:
            self.sample()
        return math.fsum(self.times) / len(self.times) / REF_S
