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
        nodes; pure observability, never a cost input.  A transfer that
        meets a partition window raises :class:`NetworkPartitionedError`.

        One item of :meth:`transfer_many`, the one place a transfer is
        booked.
        """
        recv_done = self.transfer_many(
            [(src, dst, nbytes, tag, messages, depart_at)], trace_parent)[0]
        if recv_done.__class__ is NetworkPartitionedError:
            raise recv_done
        if deliver:
            self.clock.set_at_least(dst, recv_done)
        return recv_done

    def transfer_many(self, items, trace_parent=None):
        """Book every transfer of *items* in order; the one booking loop.

        *items* is a sequence of ``(src, dst, nbytes, tag, messages,
        depart_at)`` — :meth:`transfer`'s arguments, ``depart_at=None``
        meaning the sender's clock — booked ``deliver=False``: callers wait
        on the returned ``recv_done`` times, aligned with *items*.  Per
        item:

        - ``src == dst`` is a local hand-off: no wire cost, still counted
          as a message so protocol-level accounting stays comparable
          across placements, delivered at the sender's clock;
        - otherwise the envelope is added, the sender's NIC is booked from
          the departure, and after ``latency`` the receiver's NIC.  While
          partition windows are scheduled the send slot is probed first
          and committed after the partition check: the message hits the
          wire at the *post-NIC-queue* departure, so that is when the
          windows apply — a backlog can push a transfer into (or out of) a
          window that was inactive (or active) at its earliest departure.
          A dropped item books nothing and reports its
          :class:`NetworkPartitionedError` in place of its time;
        - its two NIC spans are recorded, parented to *trace_parent*.

        A fan-out, a gather and any batch of pairs are all lists of items:
        timelines are order-insensitive (first-fit) and ``reserve`` equals
        ``probe`` + ``commit``, so one list call books what one
        :meth:`transfer` per item would, bit for bit.  The metrics land
        through one :meth:`MetricsRegistry.record_transfer_many` call.
        """
        clock = self.clock
        latency = self.latency
        nic_send = self._nic_send
        nic_recv = self._nic_recv
        bandwidth = self._bandwidth
        failures = self.failures
        partitioned = failures is not None and failures.partitions
        traced = self.tracer is not None and self.tracer.enabled
        recv_times = []
        metric_items = []
        for src, dst, nbytes, tag, messages, depart_at in items:
            if src == dst:
                metric_items.append((src, dst, 0, tag, messages))
                recv_times.append(clock.now(src))
                continue
            total = float(nbytes) + MESSAGE_OVERHEAD_BYTES
            try:
                send_seconds = total / bandwidth[src]
                recv_seconds = total / bandwidth[dst]
            except KeyError as missing:
                raise UnknownNodeError("node %r not on the network"
                                       % missing.args) from None
            earliest = clock.now(src) if depart_at is None else depart_at
            if partitioned:
                sender_nic = nic_send[src]
                index, depart = sender_nic.probe(earliest, send_seconds)
                if failures.partition_active(src, depart) \
                        or failures.partition_active(dst, depart):
                    self.metrics.increment("partition-drops")
                    recv_times.append(NetworkPartitionedError(
                        "transfer %s -> %s departing t=%.6f hit a network "
                        "partition" % (src, dst, depart)))
                    continue
                sender_nic.commit(index, depart, send_seconds)
            else:
                depart = nic_send[src].reserve(earliest, send_seconds)
            send_done = depart + send_seconds
            recv_start = nic_recv[dst].reserve(send_done + latency,
                                               recv_seconds)
            recv_done = recv_start + recv_seconds
            recv_times.append(recv_done)
            metric_items.append((src, dst, total, tag, messages))
            if traced:
                self._spans(src, dst, tag, total, depart, send_done,
                            recv_start, recv_done, trace_parent)
        self.metrics.record_transfer_many(metric_items)
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
