"""Wall-clock timing scaled to a reference machine speed.

On a shared host the speed of one core drifts: the same pure-Python work
took 35 ms in some minutes and 57 ms in others on the 2.1 GHz Xeon vCPU
this benchmark was tuned on, and the medians of identical 30-second runs
moved by 15-30%.  That hides any change smaller than the drift.

So a fixed probe -- a few milliseconds of pure-Python work that shares
no code with edgeext -- runs between the timed calls, at least every
``PROBE_EVERY_S``.  Each call's wall time is multiplied by
``REFERENCE_PROBE_S`` over the mean of the probes just before and just
after it: a time in seconds on a core that runs the probe in the
reference time.  Both the raw and the scaled figures are printed; the
result line carries the scaled ones.  Over the runs it was tuned on, this
brought the spread between runs from 15-35% down to 2-12%.
"""

from __future__ import annotations

import bisect
import time

# Probe time on the reference core (the fast state of a 2.1 GHz Xeon vCPU).
REFERENCE_PROBE_S = 0.007
PROBE_EVERY_S = 0.2


def probe_work() -> int:
    """Fixed work, about REFERENCE_PROBE_S at the reference speed: integer
    and dict arithmetic, then graph work (adjacency lists, a breadth-first
    search, a sort).

    Each half alone tracked some workloads' slow-downs and missed others';
    over the same five runs of each workload, the pair kept the spread of
    every scaled throughput and median within 6%, against 20-30% raw."""
    counts: dict[int, int] = {}
    x = 0
    for i in range(6000):
        x = (x * 31 + i) & 0xFFFF
        counts[x] = counts.get(x, 0) + 1
    n = 1600
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for _ in range(4800):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = x % n, (x >> 8) % n
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = {0}
    order = [0]
    for w in order:
        for y in adj[w]:
            if y not in seen:
                seen.add(y)
                order.append(y)
    return (len(sorted(counts.items())) + len(order)
            + len(sorted((len(a), v) for v, a in adj.items())))


class Stopwatch:
    """Times calls, probing the machine's speed between them."""

    def __init__(self):
        self.probe_at: list[float] = []     # start of each probe
        self.probe_s: list[float] = []      # its duration

    def probe(self) -> None:
        start = time.perf_counter()
        probe_work()
        self.probe_at.append(start)
        self.probe_s.append(time.perf_counter() - start)

    def call(self, fn):
        """(start, end, result) of ``fn()``, probing first if due."""
        if (not self.probe_at
                or time.perf_counter() - self.probe_at[-1] >= PROBE_EVERY_S):
            self.probe()
        start = time.perf_counter()
        result = fn()
        return start, time.perf_counter(), result

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds for the wall interval [start, end].

        Needs a probe before ``start`` and one after ``end``; callers
        probe once more when their timed phase ends."""
        i = bisect.bisect_left(self.probe_at, start) - 1
        j = bisect.bisect_left(self.probe_at, end)
        before = self.probe_s[max(i, 0)]
        after = self.probe_s[min(j, len(self.probe_s) - 1)]
        return (end - start) * REFERENCE_PROBE_S * 2 / (before + after)

    def speed(self) -> float:
        """Median probe time over reference: above 1 means a slow core."""
        ordered = sorted(self.probe_s)
        return ordered[len(ordered) // 2] / REFERENCE_PROBE_S
