"""Unit tests for the per-node virtual clocks."""

import pytest

from repro.cluster.simclock import SimClock
from repro.common.errors import ClusterError, UnknownNodeError


@pytest.fixture
def clock():
    c = SimClock()
    c.register("a")
    c.register("b")
    c.register("c")
    return c


def test_clocks_start_at_zero(clock):
    assert clock.now("a") == 0.0
    assert clock.now("b") == 0.0


def test_register_with_start_time():
    c = SimClock()
    c.register("late", start_time=5.0)
    assert c.now("late") == 5.0


def test_double_register_rejected(clock):
    with pytest.raises(ClusterError):
        clock.register("a")


def test_unknown_node_rejected(clock):
    with pytest.raises(UnknownNodeError):
        clock.now("zzz")


def test_advance_moves_forward(clock):
    assert clock.advance("a", 1.5) == 1.5
    assert clock.advance("a", 0.5) == 2.0
    assert clock.now("b") == 0.0


def test_advance_rejects_negative(clock):
    with pytest.raises(ClusterError):
        clock.advance("a", -0.1)


def test_set_at_least_never_rewinds(clock):
    clock.advance("a", 3.0)
    assert clock.set_at_least("a", 1.0) == 3.0
    assert clock.set_at_least("a", 4.0) == 4.0


def test_barrier_syncs_to_max(clock):
    clock.advance("a", 1.0)
    clock.advance("b", 2.5)
    sync = clock.barrier(["a", "b", "c"])
    assert sync == 2.5
    assert clock.now("a") == clock.now("b") == clock.now("c") == 2.5


def test_barrier_subset_leaves_others(clock):
    clock.advance("a", 7.0)
    clock.barrier(["a", "b"])
    assert clock.now("b") == 7.0
    assert clock.now("c") == 0.0


def test_barrier_empty_group():
    assert SimClock().barrier([]) == 0.0


def test_global_time_is_max(clock):
    clock.advance("b", 9.0)
    clock.advance("a", 2.0)
    assert clock.global_time() == 9.0


def test_global_time_empty():
    assert SimClock().global_time() == 0.0


def test_nodes_in_registration_order(clock):
    assert clock.nodes() == ["a", "b", "c"]
