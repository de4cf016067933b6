"""Unit tests for the NIC-serialized network model."""

import pytest
from hypothesis import given, settings
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
    for node, bandwidth in (("a", 1e6), ("b", 2e6), ("c", 5e5)):
        clock.register(node)
        model.register(node, bandwidth)
    return model


def _transfer_or_error(net, src, dst, nbytes, tag, count, depart):
    try:
        return net.transfer(src, dst, nbytes, tag=tag, deliver=False,
                            depart_at=depart, messages=count, trace_parent=7)
    except NetworkPartitionedError as error:
        return error


_batch_items = st.lists(st.tuples(
    st.sampled_from([("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"),
                     ("c", "a"), ("c", "b")]),
    st.integers(0, 5000), st.sampled_from(["x:req", "y:req"]),
    st.integers(1, 4), st.floats(0.0, 0.05)), max_size=12)


@given(items=_batch_items, partitioned=st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_batch_books_as_one_transfer_per_item(items, partitioned):
    items = [(src, dst, nbytes, tag, count, depart)
             for (src, dst), nbytes, tag, count, depart in items]
    batched, single = _traced_net(partitioned), _traced_net(partitioned)
    arrivals = batched.transfer_batch(items, trace_parent=7)
    expected = [_transfer_or_error(single, *item) for item in items]
    assert [type(arrival) for arrival in arrivals] \
        == [type(arrival) for arrival in expected]
    assert [arrival for arrival in arrivals if type(arrival) is float] \
        == [arrival for arrival in expected if type(arrival) is float]
    for node in ("a", "b", "c"):
        for nics in ("_nic_send", "_nic_recv"):
            assert getattr(batched, nics)[node].intervals() \
                == getattr(single, nics)[node].intervals()
    assert batched.metrics.snapshot() == single.metrics.snapshot()
    assert [(span.node, span.op, span.cat, span.start, span.end, span.args,
             span.parent_id) for span in batched.tracer.spans] \
        == [(span.node, span.op, span.cat, span.start, span.end, span.args,
             span.parent_id) for span in single.tracer.spans]
