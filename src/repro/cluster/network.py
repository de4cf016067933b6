"""NIC-serialized network cost model.

The model charges ``latency + bytes / bandwidth`` per transfer and — the
part that actually reproduces the paper — serializes concurrent transfers
through each node's NIC.  Twenty executors pushing a D-sized gradient to
one driver queue behind each other at the driver's NIC (the "single-node
bottleneck" of Section 2), while the same pushes split over S servers queue
only D/S each.

A transfer is modeled in two phases:

1. *send*: books ``bytes / sender_bw`` on the sender's NIC, starting no
   earlier than the sender's clock (or an explicit ``depart_at``);
2. *receive*: after ``latency``, books ``bytes / receiver_bw`` on the
   receiver's NIC.

NIC capacity is tracked with :class:`TimelineResource`, so results do not
depend on the order in which logically-concurrent actors are simulated.

The returned delivery time is when the receiver can consume the message.
Callers decide whether the receiver blocks on it (``deliver=True`` moves
the receiver clock) or the message just becomes available (RPC-style fan-in
where the caller later waits on many responses).
"""

from __future__ import annotations

from repro.cluster.resource import TimelineResource
from repro.common.errors import NetworkPartitionedError, UnknownNodeError
from repro.costs import MESSAGE_OVERHEAD_BYTES


class NetworkModel:
    """Shared network fabric with per-node NIC queues."""

    def __init__(self, clock, metrics, latency, default_bandwidth,
                 tracer=None, failures=None):
        self.clock = clock
        self.metrics = metrics
        self.tracer = tracer
        self.failures = failures
        self.latency = float(latency)
        self.default_bandwidth = float(default_bandwidth)
        self._bandwidth = {}
        self._nic_send = {}
        self._nic_recv = {}

    def register(self, node_id, bandwidth=None):
        """Attach *node_id* to the fabric with an optional NIC bandwidth."""
        self._bandwidth[node_id] = (
            float(bandwidth) if bandwidth is not None else self.default_bandwidth
        )
        self._nic_send[node_id] = TimelineResource(self.clock)
        self._nic_recv[node_id] = TimelineResource(self.clock)

    def bandwidth_of(self, node_id):
        """NIC bandwidth of *node_id* in bytes/second."""
        try:
            return self._bandwidth[node_id]
        except KeyError:
            raise UnknownNodeError("node %r not on the network" % (node_id,)) from None

    def nic_utilization(self, node_id):
        """(send_busy_seconds, recv_busy_seconds) booked on a node's NIC."""
        return (
            self._nic_send[node_id].busy_seconds(),
            self._nic_recv[node_id].busy_seconds(),
        )

    def nic_horizon(self, node_id):
        """(send_horizon, recv_horizon): when each NIC queue drains.

        The horizon is the end of the last reservation on that direction's
        timeline — an instantaneous backlog signal ("when would a new
        message get the wire"), unlike :meth:`nic_utilization`, which is a
        cumulative total.  The replica read router compares horizons to
        find the nearest-by-queue server.
        """
        return (
            self._nic_send[node_id].horizon(),
            self._nic_recv[node_id].horizon(),
        )

    def transfer(self, src, dst, nbytes, tag="transfer", deliver=True,
                 depart_at=None, messages=1, trace_parent=None):
        """Ship *nbytes* (payload; envelope added here) from *src* to *dst*.

        Returns the virtual time at which the message is fully received.
        With ``deliver=True`` the receiver's clock is advanced to that time
        (synchronous receive); with ``deliver=False`` only the NIC queues
        move, and the caller is responsible for waiting (e.g. a client that
        fans a request out to many servers and then waits for all
        responses).  ``depart_at`` overrides the earliest departure time
        (default: the sender's clock) — used for RPC responses, which leave
        when *that request's* service completes rather than when the
        sender's clock says.  ``messages`` is the number of *logical*
        requests this wire message carries (> 1 for a coalesced batch
        envelope): one wire message is always booked, and the logical count
        feeds the coalescing-efficiency accounting.  ``trace_parent``
        parents the two NIC spans to the causing span (the client op or the
        stage) instead of whatever happens to be open on the endpoint
        nodes; pure observability, never a cost input.
        """
        if src == dst:
            # Local hand-off: no wire cost, still counted as a message so
            # protocol-level accounting stays comparable across placements.
            self.metrics.record_transfer(src, dst, 0, tag=tag,
                                         messages=messages)
            return self.clock.now(src)
        total = float(nbytes) + MESSAGE_OVERHEAD_BYTES
        send_seconds = total / self.bandwidth_of(src)
        recv_seconds = total / self.bandwidth_of(dst)

        earliest = self.clock.now(src) if depart_at is None else depart_at
        # Probe first, commit after the partition check: the message hits
        # the wire at the *post-NIC-queue* ``depart``, so that is when the
        # partition windows apply — a backlog can push a transfer into (or
        # out of) a window that was inactive (or active) at ``earliest``.
        # A dropped attempt never consumes NIC capacity.
        sender_nic = self._nic_send[src]
        index, depart = sender_nic.probe(earliest, send_seconds)
        failures = self.failures
        if failures is not None and failures.partitions:
            if failures.partition_active(src, depart) \
                    or failures.partition_active(dst, depart):
                self.metrics.increment("partition-drops")
                raise NetworkPartitionedError(
                    "transfer %s -> %s departing t=%.6f hit a network "
                    "partition" % (src, dst, depart)
                )
        sender_nic.commit(index, depart, send_seconds)
        send_done = depart + send_seconds

        recv_start = self._nic_recv[dst].reserve(
            send_done + self.latency, recv_seconds
        )
        recv_done = recv_start + recv_seconds

        self.metrics.record_transfer(src, dst, total, tag=tag,
                                     messages=messages)
        if self.tracer is not None and self.tracer.enabled:
            self._spans(src, dst, tag, total, depart, send_done, recv_start,
                        recv_done, trace_parent)
        if deliver:
            self.clock.set_at_least(dst, recv_done)
        return recv_done

    def transfer_many(self, src, items, trace_parent=None):
        """Book a fan-out — many transfers leaving *src* — in one call.

        *items* is a sequence of ``(dst, nbytes, tag, messages)``; every
        transfer departs no earlier than the sender's clock and is booked
        ``deliver=False`` (fan-out callers wait on the returned times
        themselves).  Returns the list of ``recv_done`` times, aligned
        with *items*.

        Bit-identical to calling :meth:`transfer` once per item in order,
        spans included (every one parents to the fan-out's one
        *trace_parent*) — the sender's NIC bookings go through one
        :meth:`TimelineResource.reserve_many` round instead of N reserve
        calls, receiver NICs are distinct timelines anyway, and the
        metrics land through one bulk record.  While partition windows are
        scheduled it *is* one :meth:`transfer` per item (:meth:`_each`): a
        dropped item books nothing and reports its error in place of its
        time.
        """
        if self.failures is not None and self.failures.partitions:
            return self._each([(src, dst, nbytes, tag, messages, None)
                               for dst, nbytes, tag, messages in items],
                              trace_parent)
        earliest = self.clock.now(src)
        send_bw = self.bandwidth_of(src)
        totals = [float(nbytes) + MESSAGE_OVERHEAD_BYTES
                  for _, nbytes, _, _ in items]
        send_durations = [total / send_bw for total in totals]
        departs = self._nic_send[src].reserve_many(
            [(earliest, duration) for duration in send_durations]
        )

        latency = self.latency
        nic_recv = self._nic_recv
        bandwidth = self._bandwidth
        traced = self.tracer is not None and self.tracer.enabled
        recv_times = []
        metric_items = []
        for pos, (dst, _, tag, messages) in enumerate(items):
            total = totals[pos]
            depart = departs[pos]
            send_done = depart + send_durations[pos]
            recv_seconds = total / bandwidth[dst]
            recv_start = nic_recv[dst].reserve(
                send_done + latency, recv_seconds
            )
            recv_done = recv_start + recv_seconds
            recv_times.append(recv_done)
            metric_items.append((dst, total, tag, messages))
            if traced:
                self._spans(src, dst, tag, total, depart, send_done,
                            recv_start, recv_done, trace_parent)
        self.metrics.record_transfer_fanout(src, metric_items)
        return recv_times

    def transfer_gather(self, dst, items, trace_parent=None):
        """Book a fan-in — many transfers converging on *dst* — in one call.

        *items* is a sequence of ``(src, nbytes, tag, messages,
        depart_at)`` (the RPC-response shape: each response leaves its
        server when that request's service completes).  Booked
        ``deliver=False``; returns the ``recv_done`` times aligned with
        *items*.  Same equivalence and partition handling as
        :meth:`transfer_many`, mirrored: per-item sender NICs are distinct
        timelines, and the shared receiver NIC is booked through one
        ``reserve_many`` round.
        """
        if self.failures is not None and self.failures.partitions:
            return self._each([(src, dst, nbytes, tag, messages, depart_at)
                               for src, nbytes, tag, messages, depart_at
                               in items], trace_parent)
        latency = self.latency
        nic_send = self._nic_send
        bandwidth = self._bandwidth
        recv_bw = bandwidth[dst]
        traced = self.tracer is not None and self.tracer.enabled

        totals = []
        recv_jobs = []
        sends = []
        for src, nbytes, tag, messages, depart_at in items:
            total = float(nbytes) + MESSAGE_OVERHEAD_BYTES
            send_seconds = total / bandwidth[src]
            depart = nic_send[src].reserve(depart_at, send_seconds)
            send_done = depart + send_seconds
            totals.append(total)
            sends.append((depart, send_done))
            recv_jobs.append((send_done + latency, total / recv_bw))
        recv_starts = self._nic_recv[dst].reserve_many(recv_jobs)

        recv_times = []
        metric_items = []
        for pos, (src, _, tag, messages, _) in enumerate(items):
            total = totals[pos]
            recv_done = recv_starts[pos] + recv_jobs[pos][1]
            recv_times.append(recv_done)
            metric_items.append((src, total, tag, messages))
            if traced:
                self._spans(src, dst, tag, total, *sends[pos],
                            recv_starts[pos], recv_done, trace_parent)
        self.metrics.record_transfer_gather(dst, metric_items)
        return recv_times

    def transfer_batch(self, items, trace_parent=None):
        """Book many transfers between any endpoints in one call.

        *items* is a sequence of ``(src, dst, nbytes, tag, messages,
        depart_at)`` with ``src != dst``, booked ``deliver=False``;
        returns the ``recv_done`` times aligned with *items*.
        Bit-identical to one
        :meth:`transfer` per item in order, spans included (each parents
        to *trace_parent*): each item's two NIC bookings are made in
        item order, and the metrics land through one bulk record.  Same
        partition handling as :meth:`transfer_many`.
        """
        if self.failures is not None and self.failures.partitions:
            return self._each(items, trace_parent)
        latency = self.latency
        nic_send = self._nic_send
        nic_recv = self._nic_recv
        bandwidth = self._bandwidth
        traced = self.tracer is not None and self.tracer.enabled
        recv_times = []
        metric_items = []
        for src, dst, nbytes, tag, messages, depart_at in items:
            total = float(nbytes) + MESSAGE_OVERHEAD_BYTES
            send_seconds = total / bandwidth[src]
            recv_seconds = total / bandwidth[dst]
            depart = nic_send[src].reserve(depart_at, send_seconds)
            send_done = depart + send_seconds
            recv_start = nic_recv[dst].reserve(send_done + latency,
                                               recv_seconds)
            recv_done = recv_start + recv_seconds
            recv_times.append(recv_done)
            metric_items.append((src, dst, total, tag, messages))
            if traced:
                self._spans(src, dst, tag, total, depart, send_done,
                            recv_start, recv_done, trace_parent)
        self.metrics.record_transfers(metric_items)
        return recv_times

    def _spans(self, src, dst, tag, total, depart, send_done, recv_start,
               recv_done, trace_parent):
        """Record one booked transfer's two NIC spans, parented to
        *trace_parent* (``None``: to whatever is open on each endpoint)."""
        op = "net:" + tag
        self.tracer.record(src, op, depart, send_done, cat="nic-send",
                           parent_id=trace_parent, dst=dst, nbytes=total)
        self.tracer.record(dst, op, recv_start, recv_done, cat="nic-recv",
                           parent_id=trace_parent, src=src, nbytes=total)

    def _each(self, items, trace_parent):
        """Book ``(src, dst, nbytes, tag, messages, depart_at)`` items one
        :meth:`transfer` each; a dropped item's ``NetworkPartitionedError``
        stands in for its ``recv_done`` time."""
        recv_times = []
        for src, dst, nbytes, tag, messages, depart_at in items:
            try:
                recv_times.append(self.transfer(
                    src, dst, nbytes, tag=tag, deliver=False,
                    depart_at=depart_at, messages=messages,
                    trace_parent=trace_parent))
            except NetworkPartitionedError as error:
                recv_times.append(error)
        return recv_times
