"""Machine-speed calibration for the benchmark's timings.

The benchmark may share its machine with other tenants. On a 2-vCPU VM the
speed a process gets drifts by up to a third over tens of seconds, and it
switches between slow and fast spells of several seconds. So a fixed piece
of reference work (a burst) is timed every quarter second while ops run.
Each op's wall time is multiplied by REFERENCE_S over the median of the
three bursts around it, which expresses it at the reference speed: the speed
at which a burst takes 3 ms.

A burst does a little of each kind of work the library does: an integer
loop, numpy calls on 512-point arrays (as the chart scans make), numpy calls
on 2x2 matrices (as Mobius maps make), and small-object churn. Neighbours
slow these by different amounts; on the same runs, a burst of the integer
loop alone tracked the program less well (see perfbench/README.md). The
garbage collector is off during a burst, so the program's garbage-collector
settings cannot change its time, and every object a burst makes is freed
before it ends.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.003
INTERVAL_S = 0.25

_CHART = np.linspace(0.0, 1.0, 512)
_MATRIX = np.array([[1.0, 2.0], [0.5, 3.0]])


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _work() -> None:
    total = 0
    for i in range(12_500):
        total += i * i
    for _ in range(15):
        y = np.arctan2(np.sin(_CHART * 3.1), np.cos(_CHART * 2.7) + 1.5)
        sign = np.sign(y - 0.1)
        np.nonzero(sign[1:] != sign[:-1])
    m = _MATRIX
    for _ in range(75):
        m = np.array([[m[0, 0] * 0.5 + 1.0, m[0, 1]], [m[1, 0], m[1, 1] + 0.25]]) @ _MATRIX
        m = m / math.sqrt(abs(np.linalg.det(m)))
    kept = []
    for i in range(1500):
        pair = _Pair(i * 0.5, math.atan2(i, 3.0))
        kept.append((pair.a + pair.b, {"k": pair.a}))
        if len(kept) > 100:
            kept.clear()


def burst() -> float:
    """Seconds for one fixed piece of reference work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Bursts taken between ops, and the per-op scale factors they imply."""

    def __init__(self):
        self.marks = []  # (index of the next op, burst seconds)
        self._due = 0.0

    def sample(self, next_op: int, now: float) -> None:
        """Take a burst if one is due; called between ops."""
        if now >= self._due:
            self.marks.append((next_op, burst()))
            self._due = time.perf_counter() + INTERVAL_S

    def scales(self, n_ops: int) -> list:
        """Factor per op: REFERENCE_S / median of the bursts around it."""
        if not self.marks:
            self.marks.append((0, burst()))
        bursts = [b for _, b in self.marks]
        starts = [0] + [k for k, _ in self.marks[1:]] + [n_ops]
        out = []
        for j in range(len(bursts)):
            local = statistics.median(bursts[max(0, j - 1):j + 2])
            out += [REFERENCE_S / local] * max(0, min(starts[j + 1], n_ops) - len(out))
        return out + [out[-1] if out else 1.0] * (n_ops - len(out))

    def median_scale(self) -> float:
        return REFERENCE_S / statistics.median(b for _, b in self.marks)
