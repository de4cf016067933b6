"""Per-node virtual clocks.

Every simulated machine owns a monotone clock.  Computation advances one
node's clock; network transfers couple two clocks; synchronization points
(Spark stage barriers, PS flush barriers) set a group of clocks to their
common maximum.  Wall time never enters the simulation, so every run is
deterministic.

No clock is ever rewound, so the smallest one (:meth:`SimClock.floor`)
only rises; nothing is booked before it, which is what lets resource
timelines retire the intervals behind it.
"""

from __future__ import annotations

from repro.common.errors import ClusterError, UnknownNodeError


class SimClock:
    """A set of named virtual clocks, all starting at zero."""

    def __init__(self):
        self._times = {}

    def register(self, node_id, start_time=0.0):
        """Create the clock for *node_id*; re-registering is an error."""
        if node_id in self._times:
            raise ClusterError("node %r already registered" % (node_id,))
        self._times[node_id] = float(start_time)

    def nodes(self):
        """All registered node ids, in registration order."""
        return list(self._times)

    def now(self, node_id):
        """Current virtual time of *node_id*."""
        try:
            return self._times[node_id]
        except KeyError:
            raise UnknownNodeError("unknown node %r" % (node_id,)) from None

    def advance(self, node_id, seconds):
        """Move *node_id* forward by *seconds* (must be non-negative)."""
        if seconds < 0:
            raise ClusterError("cannot advance clock by %r seconds" % (seconds,))
        self._times[node_id] = self.now(node_id) + float(seconds)
        return self._times[node_id]

    def set_at_least(self, node_id, time):
        """Ensure *node_id*'s clock reads at least *time* (never rewinds)."""
        current = self.now(node_id)
        if time > current:
            self._times[node_id] = float(time)
        return self._times[node_id]

    def barrier(self, node_ids):
        """Synchronize *node_ids*: all jump to the max of their clocks."""
        node_ids = list(node_ids)
        if not node_ids:
            return 0.0
        sync_time = max(self.now(node_id) for node_id in node_ids)
        for node_id in node_ids:
            self._times[node_id] = sync_time
        return sync_time

    def global_time(self):
        """The latest time any node has reached (makespan so far)."""
        if not self._times:
            return 0.0
        return max(self._times.values())

    def floor(self):
        """The earliest time any node still reads.

        No clock ever moves backwards and a node registered mid-run starts
        at :meth:`global_time`, so the floor only rises, and nothing the
        simulator books from here on starts before it — the bound below
        which resource timelines retire their intervals.
        """
        if not self._times:
            return 0.0
        return min(self._times.values())
