"""Unit tests for the NIC-serialized network model."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureInjector
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.network import NetworkModel
from repro.cluster.simclock import SimClock
from repro.common.errors import NetworkPartitionedError, UnknownNodeError
from repro.costs import MESSAGE_OVERHEAD_BYTES
from repro.obs.tracer import Tracer


@pytest.fixture
def net():
    clock = SimClock()
    metrics = MetricsRegistry()
    model = NetworkModel(clock, metrics, latency=1e-3, default_bandwidth=1e6)
    for node in ("a", "b", "c"):
        clock.register(node)
        model.register(node)
    return model


def test_transfer_time_is_latency_plus_bytes(net):
    nbytes = 1000 - MESSAGE_OVERHEAD_BYTES
    done = net.transfer("a", "b", nbytes)
    # send 1ms + latency 1ms + receive 1ms
    assert done == pytest.approx(0.003)


def test_deliver_advances_receiver_clock(net):
    done = net.transfer("a", "b", 0)
    assert net.clock.now("b") == pytest.approx(done)


def test_no_deliver_leaves_receiver_clock(net):
    net.transfer("a", "b", 10**6, deliver=False)
    assert net.clock.now("b") == 0.0


def test_self_transfer_is_free(net):
    done = net.transfer("a", "a", 10**9)
    assert done == 0.0
    assert net.metrics.total_messages() == 1


def test_incast_serializes_at_receiver(net):
    """Two senders to one receiver: the receiver NIC is the bottleneck."""
    nbytes = 10**6 - MESSAGE_OVERHEAD_BYTES  # 1 second on the wire
    first = net.transfer("a", "c", nbytes, deliver=False)
    second = net.transfer("b", "c", nbytes, deliver=False)
    # Both arrive at c around t=2.001; receives serialize: ~2s and ~3s.
    assert second >= first + 0.9


def test_sender_nic_serializes_fanout(net):
    nbytes = 10**6 - MESSAGE_OVERHEAD_BYTES
    net.transfer("a", "b", nbytes, deliver=False)
    done = net.transfer("a", "c", nbytes, deliver=False)
    # Second send departs only after the first finished sending (~1s).
    assert done >= 2.0


def test_depart_at_overrides_sender_clock(net):
    net.clock.advance("a", 5.0)
    done = net.transfer("a", "b", 0, depart_at=0.0, deliver=False)
    assert done < 1.0


def test_unknown_node_raises(net):
    with pytest.raises(UnknownNodeError):
        net.transfer("a", "zzz", 10)
    # The list call names the endpoint too, on either end of any item.
    for src, dst in (("a", "zzz"), ("zzz", "a")):
        with pytest.raises(UnknownNodeError):
            net.transfer_many([("a", "b", 10, "t", 1, None),
                               (src, dst, 10, "t", 1, None)])


def test_metrics_account_envelope(net):
    net.transfer("a", "b", 100, tag="t")
    assert net.metrics.bytes_for_tag("t") == 100 + MESSAGE_OVERHEAD_BYTES


def test_logical_message_accounting(net):
    net.transfer("a", "b", 100, tag="t", messages=3)
    net.transfer("a", "b", 100, tag="t")
    assert net.metrics.messages_by_tag["t"] == 2
    assert net.metrics.logical_messages_by_tag["t"] == 4


def test_per_node_bandwidth():
    clock = SimClock()
    model = NetworkModel(clock, MetricsRegistry(), latency=0.0,
                         default_bandwidth=1e6)
    clock.register("slow")
    clock.register("fast")
    model.register("slow", bandwidth=1e3)
    model.register("fast", bandwidth=1e9)
    assert model.bandwidth_of("slow") == 1e3
    nbytes = 1000 - MESSAGE_OVERHEAD_BYTES
    done = model.transfer("fast", "slow", nbytes, deliver=False)
    assert done == pytest.approx(1000 / 1e9 + 1.0)


def test_utilization_tracking(net):
    net.transfer("a", "b", 10**6 - MESSAGE_OVERHEAD_BYTES)
    send_busy, _ = net.nic_utilization("a")
    _, recv_busy = net.nic_utilization("b")
    assert send_busy == pytest.approx(1.0)
    assert recv_busy == pytest.approx(1.0)


def _traced_net(partitioned):
    clock = SimClock()
    metrics = MetricsRegistry()
    failures = FailureInjector(rng=None)
    if partitioned:
        failures.schedule_partition("c", 0.01, 0.03)
    model = NetworkModel(clock, metrics, latency=1e-3, default_bandwidth=1e6,
                         tracer=Tracer(clock, enabled=True), failures=failures)
    for node, bandwidth, now in (("a", 1e6, 0.0), ("b", 2e6, 0.004),
                                 ("c", 5e5, 0.02)):
        clock.register(node)
        clock.advance(node, now)
        model.register(node, bandwidth)
    return model


def _transfer_or_error(net, src, dst, nbytes, tag, count, depart):
    try:
        return net.transfer(src, dst, nbytes, tag=tag, deliver=False,
                            depart_at=depart, messages=count, trace_parent=7)
    except NetworkPartitionedError as error:
        return error


_nodes = st.sampled_from(["a", "b", "c"])
#: One item's peer and ``(nbytes, tag, messages, depart_at)``; a
#: ``depart_at`` of ``None`` departs at the sender's clock.
_spokes = st.tuples(_nodes, st.integers(0, 5000),
                    st.sampled_from(["x:req", "y:req"]), st.integers(1, 4),
                    st.one_of(st.none(), st.floats(0.0, 0.05)))


@st.composite
def _mixed_items(draw):
    """Runs of a one-source fan-out, a one-sink gather and single
    arbitrary pairs; any of them may hold a ``src == dst`` hand-off."""
    items = []
    for shape in draw(st.lists(st.sampled_from(["fanout", "gather", "pair"]),
                               max_size=5)):
        hub = draw(_nodes)
        spokes = draw(st.lists(_spokes, min_size=1,
                               max_size=1 if shape == "pair" else 4))
        for peer, nbytes, tag, count, depart in spokes:
            src, dst = (peer, hub) if shape == "gather" else (hub, peer)
            items.append((src, dst, nbytes, tag, count, depart))
    return items


def _by_the_rule(net, src, dst, nbytes, tag, count, depart):
    """One item booked as the model states it, straight on the NIC
    timelines: probe the send slot, drop at a partition active at the
    post-queue departure, commit, then reserve the receive slot after
    the latency."""
    if src == dst:
        net.metrics.record_transfer_many([(src, dst, 0, tag, count)])
        return net.clock.now(src)
    total = nbytes + MESSAGE_OVERHEAD_BYTES
    send, recv = total / net.bandwidth_of(src), total / net.bandwidth_of(dst)
    index, start = net._nic_send[src].probe(
        net.clock.now(src) if depart is None else depart, send)
    if net.failures.partition_active(src, start) \
            or net.failures.partition_active(dst, start):
        net.metrics.increment("partition-drops")
        return NetworkPartitionedError("dropped")
    net._nic_send[src].commit(index, start, send)
    recv_start = net._nic_recv[dst].reserve(start + send + net.latency, recv)
    net.metrics.record_transfer_many([(src, dst, total, tag, count)])
    for node, cat, begin, end, peer in (
            (src, "nic-send", start, start + send, {"dst": dst}),
            (dst, "nic-recv", recv_start, recv_start + recv, {"src": src})):
        net.tracer.record(node, "net:" + tag, begin, end, cat=cat,
                          parent_id=7, nbytes=total, **peer)
    return recv_start + recv


def _state(net):
    return ([net.clock.now(node) for node in ("a", "b", "c")],
            [getattr(net, nics)[node].intervals() for node in ("a", "b", "c")
             for nics in ("_nic_send", "_nic_recv")],
            net.metrics.snapshot(),
            [(span.node, span.op, span.cat, span.start, span.end, span.args,
              span.parent_id) for span in net.tracer.spans])


@given(items=_mixed_items(), partitioned=st.booleans())
# c's clock sits inside its partition window: c's item drops.
@example(items=[("a", "b", 100, "x:req", 1, None),
                ("c", "a", 100, "x:req", 2, None),
                ("b", "b", 10, "y:req", 1, None),
                ("a", "c", 4000, "x:req", 3, 0.0)], partitioned=True)
# a's send queue pushes its third item from t=0 into c's window: the
# windows apply at the post-queue departure.
@example(items=[("a", "b", 5000, "x:req", 1, 0.0),
                ("a", "b", 5000, "x:req", 1, 0.0),
                ("a", "c", 100, "y:req", 1, 0.0)], partitioned=True)
@settings(max_examples=60, deadline=None)
def test_a_batch_books_as_one_transfer_per_item(items, partitioned):
    """One list call books what one ``transfer`` per item books, and what
    the booking rule written out item by item books: arrivals or drops,
    clocks, NIC intervals, metrics and spans."""
    nets = [_traced_net(partitioned) for _ in range(3)]
    arrivals = [
        nets[0].transfer_many(items, trace_parent=7),
        [_transfer_or_error(nets[1], *item) for item in items],
        [_by_the_rule(nets[2], *item) for item in items],
    ]
    for got in arrivals[1:]:
        assert [type(arrival) for arrival in got] \
            == [type(arrival) for arrival in arrivals[0]]
        assert [arrival for arrival in got if type(arrival) is float] \
            == [arrival for arrival in arrivals[0] if type(arrival) is float]
    assert _state(nets[0]) == _state(nets[1]) == _state(nets[2])
