"""Machine-speed calibration for the benchmark's timings.

The benchmark was written on a shared two-vCPU VM whose speed drifts: the
same pure-Python loop takes anywhere from 1x to 2x its fastest time, in phases
that last from tens of milliseconds to minutes and affect every kind of work
alike.  CPU time drifts the same way as wall time, so it does not help, and no
hardware counters are exposed.  What does hold steady is the ratio between two
pieces of work timed close together.

So the benchmark interleaves short calibration slices with its cases: a fixed
piece of pure-Python work (Fraction arithmetic, tuple hashing, dict updates,
the kind of work b3image does) that uses nothing from b3image, so no change to
the package can move it.  Every timing the benchmark reports is converted to
*reference seconds*: raw seconds times REF_SLICE_S over the mean duration of
the slices taken around it.  A reference second is the time the work would
take on a machine where one slice takes REF_SLICE_S.  That VM takes about
2.1 ms per slice at its fastest and 2.5-4.5 ms in slow phases, so reference
times read lower than raw ones.  Raw times are kept in the run record next to
the converted ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# nominal duration of one slice; the unit the reported times are scaled to
REF_SLICE_S = 0.002
SLICE_REPEATS = 10
# a slice is taken between cases once this much time has passed since the last
INTERVAL_S = 0.04
# slices whose midpoint lies this close to a timed interval calibrate it
WINDOW_S = 0.5
MIN_SLICES = 8


def _slice_work() -> int:
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    h = 0
    for i in range(1, 40):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        for j in range(8):
            key = (i & 15, j)
            table[key] = table.get(key, 0) + i * j
            h ^= hash(key) + i
    return h + acc.numerator


def time_slice() -> float:
    """Seconds for one calibration slice."""
    start = time.perf_counter()
    for _ in range(SLICE_REPEATS):
        _slice_work()
    return time.perf_counter() - start


class Speedometer:
    """Slices taken during a run, and the conversion of raw times.

    `samples` rows are (midpoint, duration) in perf_counter seconds, in the
    order taken, so sorted by midpoint.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._mids: list[float] = []
        self._last = float("-inf")

    def take(self, n: int = 1) -> None:
        for _ in range(n):
            start = time.perf_counter()
            duration = time_slice()
            self.samples.append((start + duration / 2, duration))
            self._mids.append(start + duration / 2)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Take a slice if INTERVAL_S has passed since the last one."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.take()

    def scale(self, t0: float, t1: float) -> float:
        """REF_SLICE_S over the mean slice around [t0, t1]: the factor that
        turns raw seconds spent in that interval into reference seconds.

        The mean, not the median: the speed flips between a fast and a slow
        level every few tens of milliseconds, and work spanning both is slowed
        by the mean of the two."""
        lo = bisect.bisect_left(self._mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._mids, t1 + WINDOW_S)
        if hi - lo < MIN_SLICES:
            # too few in the window: the MIN_SLICES nearest ones instead
            lo = min(max(0, lo - MIN_SLICES), max(0, len(self._mids) - MIN_SLICES))
            hi = min(len(self._mids), hi + MIN_SLICES)
            mid = (t0 + t1) / 2
            near = sorted(self.samples[lo:hi], key=lambda s: abs(s[0] - mid))
            near = near[:MIN_SLICES]
        else:
            near = self.samples[lo:hi]
        return REF_SLICE_S / statistics.fmean(d for _, d in near)

    def slice_median(self) -> float:
        return statistics.median(d for _, d in self.samples)
