"""Machine-speed reference that the benchmark's times are scaled by.

On a shared 2-core virtual machine (2.1 GHz Xeon, Python 3.11) the speed
of a fixed piece of Python work drifts by about ±20% from one second to
the next, and the median pass time of a 24 s run spread by 0.15 to 0.2
of itself from run to run. Most of that drift is common to CPU-bound
Python code, so the benchmark times a fixed kernel of its own between
the items it measures (a bitmask path count on a fixed 14-vertex graph,
sharing no code with the package) and scales each item by REFERENCE_S
over the kernel's time around it. Measured there over ten minutes, the
verifier's run time moved with the kernel's time to the power 0.87, and
scaling cut the spread of 24 s medians from 0.17 to 0.04; for the text
parse and rainbow test the power was 0.6 to 0.7 and the spread fell
from 0.13 to 0.10. A text-parsing kernel tracked neither better.

Each workload therefore scales by (REFERENCE_S / kernel time) to the
power its time was measured to follow: 1 for the verifier workloads and
0.65 for host-check (workloads.SPEED_POWER). Reported times are seconds
at the speed of a machine on which the kernel takes REFERENCE_S, its
typical median on that machine. The raw times are printed next to them.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REFERENCE_S = 0.040
# sample the kernel before an item only after this much time since the last sample
GAP_S = 0.25


def _graph(n: int = 14, p: float = 0.45, seed: int = 7) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _graph()


def _walks(x: int, mask: int, left: int) -> int:
    if left == 0:
        return 1
    total = 0
    cand = _ADJ[x] & ~mask
    while cand:
        bit = cand & -cand
        cand ^= bit
        total += _walks(bit.bit_length() - 1, mask | bit, left - 1)
    return total


def kernel() -> int:
    """The fixed reference work: simple 6-vertex paths, counted twice."""
    return sum(_walks(s, 1 << s, 5) for _ in range(2) for s in range(len(_ADJ)))


class SpeedProbe:
    """Kernel samples over time, and scale factors for spans between them."""

    def __init__(self, power: float = 1.0) -> None:
        self.power = power
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= GAP_S:
            self.sample()

    def busy(self, start: float, end: float) -> float:
        """Seconds spent in kernel samples that ended inside [start, end]."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
        return sum(self.took[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the last sample
        before `start`, any inside and the first after `end`, to the
        probe's power."""
        lo = max(0, bisect.bisect_right(self.at, start) - 1)
        hi = min(len(self.at), bisect.bisect_left(self.at, end) + 1)
        return (REFERENCE_S / statistics.fmean(self.took[lo:hi])) ** self.power

    def median(self) -> float:
        return statistics.median(self.took)
