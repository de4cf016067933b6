"""Order-insensitive capacity reservation for NICs and server CPUs.

The simulator processes logically-concurrent actors sequentially, so
requests are *not* presented in virtual-time order.  A naive "busy-until"
horizon would make a message that arrives at t=5 (but is processed second
in Python) queue behind one that arrives at t=9 (processed first).

:class:`TimelineResource` instead keeps the set of reserved busy intervals
and places each new job in the first idle gap at or after its arrival —
so the outcome is independent of processing order while capacity is never
double-booked.  Adjacent intervals are merged, keeping the list short.

Fast path: :meth:`TimelineResource.reserve` special-cases the two
common shapes (a tail booking, a booking behind the final interval)
before the general gap walk, and ``busy_seconds`` is an incrementally
maintained total instead of an O(intervals) re-sum per query.

Storage: interval starts and ends live in two ``array("d")`` columns,
8 bytes per value instead of a list slot plus a float object (64 bytes
per interval).  ``bisect_left``, ``insert``, ``del`` and ``[-1]`` work
on them unchanged, and every read returns a Python float, so a numpy
scalar never leaks out of a timeline.  Numpy arrays would not pay here:
a scalar read or one ``searchsorted`` costs more per call than
``bisect`` on an ``array``.  :meth:`TimelineResource.intervals` is the
one reader of the format outside this module.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left

from repro.common.errors import ClusterError

#: Gaps shorter than this are merged away (floating-point hygiene).
_MERGE_EPS = 1e-12

#: Durations at or below this take the general probe path: the fit test
#: tolerates an ``_MERGE_EPS`` shortfall, so only jobs comfortably longer
#: than the epsilon can skip it safely.
_EPS2 = 2 * _MERGE_EPS

#: A clocked timeline retires intervals behind the clock floor when its
#: live length reaches this, then again at twice what the retirement left.
_RETIRE_AT = 1024


class TimelineResource:
    """A serially-shared resource (one NIC direction, one server CPU).

    Given the cluster's :class:`~repro.cluster.simclock.SimClock`, the
    timeline retires intervals no future booking can reach (see
    :meth:`_retire`); a standalone timeline keeps every interval.
    """

    __slots__ = ("_starts", "_ends", "_busy", "_clock", "_retire_at",
                 "_retired_below")

    def __init__(self, clock=None):
        self._clock = clock
        self.reset()

    def probe(self, earliest, duration):
        """Where would :meth:`reserve` place this job?  Books nothing.

        Returns ``(index, start)``: the insertion index and the start of the
        first idle gap at or after *earliest* that fits *duration*.  Pass
        both to :meth:`commit` to actually book the slot.  The probe/commit
        split lets the network model decide a transfer's fate (e.g. a
        partition drop) at its true post-queue departure time without
        consuming NIC capacity on the failed attempt.
        """
        start = float(earliest)
        if start < self._retired_below:
            self._behind(start)
        ends = self._ends
        starts = self._starts
        # ``bisect_left`` on the interval *ends*: an arrival exactly equal
        # to an interval's end lands on that interval and probes its
        # zero-width "gap" (gap_end == interval.start <= arrival), which the
        # fit test rejects, so the walk advances — same outcome as
        # bisect_right, one extra loop turn.  Pinned by boundary-value tests
        # in test_resource.py.
        index = bisect_left(ends, start)
        n = len(starts)
        while index < n:
            gap_end = starts[index]
            if gap_end - start >= duration - _MERGE_EPS:
                break
            end = ends[index]
            if end > start:
                start = end
            index += 1
        return index, start

    def commit(self, index, start, duration):
        """Book ``[start, start + duration)`` at a :meth:`probe` result."""
        self._insert(index, start, start + duration)
        return start

    def reserve(self, earliest, duration):
        """Book *duration* seconds starting no earlier than *earliest*.

        Returns the start time of the booked slot (the first idle gap that
        fits).  Zero-duration reservations return *earliest* untouched.

        This is the simulator's hottest function (one call per NIC
        direction per wire message, one per service), so the common shapes
        are special-cased before the general gap walk — each branch is a
        provably-identical shortcut of ``probe`` + ``_insert``, using the
        same float expressions so the booked starts and the running
        ``_busy`` total stay bit-for-bit what the general path computes:

        - *tail*: no interval ends after the arrival, so no interior gap
          exists and the job appends to (or merges with) the last interval;
        - *extend-final*: the arrival falls inside the final interval
          (``earliest >= starts[-1]``), so the only gap at/after it is the
          zero-width one the fit test rejects, and the job lands exactly at
          the final end — ``_insert``'s merge-prev branch.

        Durations at or below ``2 * _MERGE_EPS`` skip the shortcuts: the
        fit test tolerates an ``_MERGE_EPS`` shortfall, so only jobs
        comfortably longer than the epsilon can bypass it safely.
        """
        if duration <= 0:
            return earliest
        ends = self._ends
        starts = self._starts
        if duration > _EPS2:
            if not ends:
                end = earliest + duration
                starts.append(earliest)
                ends.append(end)
                self._busy += end - earliest
                return earliest
            last_end = ends[-1]
            if earliest >= last_end - _MERGE_EPS:
                # Tail: nothing ends at/after the arrival.
                start = earliest if earliest > last_end else last_end
                end = start + duration
                if start - last_end <= _MERGE_EPS:
                    self._busy += end - last_end
                    ends[-1] = end
                else:
                    self._busy += end - start
                    starts.append(start)
                    ends.append(end)
                    if len(ends) >= self._retire_at:
                        self._retire()
                return start
            if earliest >= starts[-1]:
                # Extend-final: the probe would walk to the final
                # interval's end and merge — same busy delta and end
                # update as _insert's merge-prev branch.  Fan-out bookings
                # queueing behind the same NIC's growing final interval
                # land here.
                end = last_end + duration
                self._busy += end - last_end
                ends[-1] = end
                return last_end
        # General path: first-fit gap walk (probe), inlined to skip a
        # Python frame.  It serves about half of all bookings (49 % on
        # the ledger's storm-bare, 65 % on storm-allon): arrivals landing
        # in interior gaps of fragmented timelines (scattered tiny
        # service slots).
        start = float(earliest)
        if start < self._retired_below:
            self._behind(start)
        index = bisect_left(ends, start)
        n = len(starts)
        while index < n:
            gap_end = starts[index]
            if gap_end - start >= duration - _MERGE_EPS:
                break
            end = ends[index]
            if end > start:
                start = end
            index += 1
        self._insert(index, start, start + duration)
        return start

    def _insert(self, index, start, end):
        """Insert ``[start, end)`` at *index*, merging with its neighbors.

        ``_busy`` is updated with the exact branch delta, so
        :meth:`busy_seconds` never re-sums the interval list:

        - no merge:     +(end - start)
        - merge prev:   +(end - prev_end)        [prev_end ~= start]
        - merge next:   +(next_start - start)    [next_start ~= end]
        - merge both:   +(next_start - prev_end)
        """
        starts = self._starts
        ends = self._ends
        merge_prev = index > 0 and start - ends[index - 1] <= _MERGE_EPS
        merge_next = (
            index < len(starts) and starts[index] - end <= _MERGE_EPS
        )
        if merge_prev and merge_next:
            self._busy += starts[index] - ends[index - 1]
            ends[index - 1] = ends[index]
            del starts[index]
            del ends[index]
        elif merge_prev:
            self._busy += end - ends[index - 1]
            ends[index - 1] = end
        elif merge_next:
            self._busy += starts[index] - start
            starts[index] = start
        else:
            self._busy += end - start
            starts.insert(index, start)
            ends.insert(index, end)
            if len(ends) >= self._retire_at:
                self._retire()

    def _retire(self):
        """Drop every interval that ends before the clock floor but the
        last one, then schedule the next attempt.

        Every booking starts at or after the floor (no clock rewinds, and
        a joining node's clock starts at the global time), so none can
        reach what this drops: its ``bisect_left`` on the ends lands past
        the kept interval, whose end is the only one ``_insert``'s
        merge-with-previous test can read, and the tail and extend-final
        shortcuts read only the last interval.  A stuck floor (an idle
        node) costs O(log n) attempts: the next one waits for twice the
        live length.  A non-tail booking below the floor a retirement
        used raises :class:`ClusterError` instead of diverging silently.
        """
        floor = self._clock.floor()
        ends = self._ends
        keep = bisect_left(ends, floor) - 1
        if keep > 0:
            del self._starts[:keep]
            del ends[:keep]
            self._retired_below = floor
        self._retire_at = max(_RETIRE_AT, 2 * len(ends))

    def _behind(self, start):
        raise ClusterError(
            "booking at t=%r is behind t=%r, where this timeline retired "
            "its earlier intervals" % (start, self._retired_below)
        )

    def busy_seconds(self):
        """Total reserved time (utilization accounting); O(1)."""
        return self._busy

    def horizon(self):
        """End of the last reservation (0.0 when never used)."""
        return self._ends[-1] if self._ends else 0.0

    def intervals(self):
        """The booked intervals as ``(starts, ends)`` float lists."""
        return self._starts.tolist(), self._ends.tolist()

    def reset(self):
        """Drop all reservations."""
        self._starts = array("d")
        self._ends = array("d")
        self._busy = 0.0
        self._retire_at = _RETIRE_AT if self._clock is not None \
            else sys.maxsize
        self._retired_below = -float("inf")

    def __len__(self):
        """The number of live (not yet retired) intervals."""
        return len(self._starts)
