"""Streaming latency histograms with bounded relative error.

An HDR-style log-bucketed histogram: bucket boundaries grow geometrically
(2% per bucket by default), so any quantile estimate is within one bucket —
about 1% after midpoint interpolation — of the exact value, while recording
stays O(1) with a small dict of non-empty buckets.  Exact count / sum /
min / max are kept on the side.

Values at or below zero land in a dedicated underflow bucket (virtual
durations can legitimately be 0.0, e.g. a local hand-off).
"""

from __future__ import annotations

import math

#: Default per-bucket geometric growth (2% relative resolution).
DEFAULT_GROWTH = 1.02

#: Smallest value resolved by its own bucket; below this all values share one.
DEFAULT_MIN_VALUE = 1e-9


class StreamingHistogram:
    """Log-bucketed histogram of non-negative values (virtual seconds)."""

    __slots__ = ("growth", "min_value", "_log_growth", "_buckets", "count",
                 "total", "min", "max")

    def __init__(self, growth=DEFAULT_GROWTH, min_value=DEFAULT_MIN_VALUE):
        if growth <= 1.0:
            raise ValueError("growth must be > 1, got %r" % (growth,))
        self.growth = float(growth)
        self.min_value = float(min_value)
        self._log_growth = math.log(self.growth)
        self._buckets = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value):
        if value <= self.min_value:
            return -1
        return int(math.log(value / self.min_value) / self._log_growth)

    def _bounds(self, index):
        """The value range ``[lo, hi)`` covered by bucket *index*."""
        if index < 0:
            return 0.0, self.min_value
        lo = self.min_value * self.growth ** index
        return lo, lo * self.growth

    def record(self, value, n=1):
        """Add *n* observations of *value*."""
        value = float(value)
        n = int(n)
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + n
        self.count += n
        self.total += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values):
        """Add one observation per entry of *values* (bulk :meth:`record`).

        Identical accumulation order to calling :meth:`record` in a loop —
        count, total, min/max and bucket contents all match bit-for-bit —
        with the bucket-index math and dict access done with cached locals.
        """
        buckets = self._buckets
        min_value = self.min_value
        log_growth = self._log_growth
        log = math.log
        count = self.count
        total = self.total
        lo = self.min
        hi = self.max
        # Service chains repeat the same duration heavily (uniform-sized
        # rows); memoizing the last value -> bucket skips the log() call on
        # repeats without changing any result.
        memo_value = None
        memo_index = -1
        for value in values:
            value = float(value)
            if value == memo_value:
                index = memo_index
            else:
                if value <= min_value:
                    index = -1
                else:
                    index = int(log(value / min_value) / log_growth)
                memo_value = value
                memo_index = index
            buckets[index] = buckets.get(index, 0) + 1
            count += 1
            total += value
            if value < lo:
                lo = value
            if value > hi:
                hi = value
        self.count = count
        self.total = total
        self.min = lo
        self.max = hi

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, q):
        """Approximate the *q*-th percentile (``0 <= q <= 100``).

        Returns the midpoint of the bucket holding the rank, clamped to the
        exact observed min/max so tail percentiles never overshoot.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100], got %r" % (q,))
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * (self.count - 1)
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen > rank:
                lo, hi = self._bounds(index)
                mid = (lo + hi) / 2.0
                return min(max(mid, self.min), self.max)
        return self.max

    def percentiles(self, qs=(50, 95, 99)):
        """A ``{q: value}`` dict for several percentiles at once."""
        return {q: self.percentile(q) for q in qs}

    def summary(self):
        """Plain-dict summary used by reports and snapshots."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
