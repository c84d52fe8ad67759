"""A fixed reference loop that tracks how fast the machine runs Python right now.

On a shared machine the speed of the same bytecode drifts by tens of percent
over seconds to minutes. The worker times this loop, which touches no package
code, every tenth of a second between checks, and reports every check's time
at the reference speed: a time t measured while the loop took r seconds is
reported as t * REFERENCE_S / r. The raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

REFERENCE_S = 0.001  # the loop's time at the reference speed
WINDOW_S = 0.5


def reference_loop() -> float:
    """Seconds for a fixed mix of small sets, tuples, dict updates and calls."""
    start = perf_counter()
    table: dict = {}
    for i in range(1000):
        items = frozenset((i & 7, i >> 3 & 7))
        key = (items, i % 13)
        table[key] = table.get(key, 0) + len(items | {i % 5})
    return perf_counter() - start


class Speedometer:
    """Reference samples over time, and the scale they give a time interval."""

    def __init__(self):
        self.times: list = []
        self.samples: list = []

    def sample(self) -> None:
        self.samples.append(reference_loop())
        self.times.append(perf_counter())

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median sample taken within WINDOW_S of [start, end]."""
        if not self.samples:
            return 1.0
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.samples[lo:hi]
        if len(window) < 3:
            near = bisect.bisect_left(self.times, start)
            window = self.samples[max(0, near - 2):near + 2]
        return REFERENCE_S / statistics.median(window)
