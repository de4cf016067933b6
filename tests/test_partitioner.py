"""Unit + property tests for matrix layouts (column / row partitioning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.ps.partitioner import ColumnLayout, RowLayout


def test_column_ranges_cover_dim_exactly():
    layout = ColumnLayout(10, 3)
    shards = layout.shards_for_row(0)
    covered = sorted((start, stop) for _s, start, stop in shards)
    assert covered[0][0] == 0
    assert covered[-1][1] == 10
    for (_, a_stop), (b_start, _) in zip(covered, covered[1:]):
        assert a_stop == b_start


def test_column_sizes_near_equal():
    layout = ColumnLayout(11, 4)
    sizes = [stop - start for _s, start, stop in layout.shards_for_row(0)]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 11


def test_column_more_servers_than_dim():
    layout = ColumnLayout(2, 5)
    shards = layout.shards_for_row(0)
    assert len(shards) == 2  # empty ranges omitted
    assert sum(stop - start for _s, start, stop in shards) == 2


def test_server_of_matches_shards():
    layout = ColumnLayout(100, 7, rotation=3)
    for server_index, start, stop in layout.shards_for_row(0):
        for col in (start, stop - 1):
            assert layout.server_of(col) == server_index


def test_server_of_out_of_range():
    layout = ColumnLayout(10, 2)
    with pytest.raises(ConfigError):
        layout.server_of(10)
    with pytest.raises(ConfigError):
        layout.server_of(-1)


def test_rotation_changes_placement_not_ranges():
    a = ColumnLayout(100, 4, rotation=0)
    b = ColumnLayout(100, 4, rotation=1)
    ranges_a = sorted((s, e) for _x, s, e in a.shards_for_row(0))
    ranges_b = sorted((s, e) for _x, s, e in b.shards_for_row(0))
    assert ranges_a == ranges_b
    assert a.server_of(0) != b.server_of(0)


def test_rotation_wraps():
    assert ColumnLayout(10, 4, rotation=5).rotation == 1


def test_same_layout_requires_equal_rotation():
    a = ColumnLayout(50, 4, rotation=0)
    b = ColumnLayout(50, 4, rotation=0)
    c = ColumnLayout(50, 4, rotation=2)
    assert a.same_layout(b)
    assert a == b
    assert not a.same_layout(c)
    assert hash(a) == hash(b)


def test_layout_inequality_cases():
    a = ColumnLayout(50, 4)
    assert not a.same_layout(ColumnLayout(51, 4))
    assert not a.same_layout(ColumnLayout(50, 5))
    assert not a.same_layout(RowLayout(50, 4))


def test_split_indices_groups_by_owner():
    layout = ColumnLayout(100, 4, rotation=2)
    indices = np.array([0, 30, 60, 99, 25, 26])
    groups = layout.split_sorted(0, np.sort(indices))
    for server_index, group in groups.items():
        for col in group:
            assert layout.server_of(int(col)) == server_index
    total = np.concatenate(list(groups.values()))
    assert sorted(total.tolist()) == sorted(indices.tolist())


def test_split_indices_empty():
    assert ColumnLayout(10, 2).split_sorted(
        0, np.empty(0, dtype=np.int64)) == {}


def test_validation_errors():
    with pytest.raises(ConfigError):
        ColumnLayout(0, 3)
    with pytest.raises(ConfigError):
        ColumnLayout(10, 0)
    with pytest.raises(ConfigError):
        RowLayout(0, 2)
    with pytest.raises(ConfigError):
        RowLayout(5, 0)


def test_row_layout_single_server_per_row():
    layout = RowLayout(64, 3)
    assert layout.shards_for_row(0) == [(0, 0, 64)]
    assert layout.shards_for_row(4) == [(1, 0, 64)]


def test_row_layout_split_indices():
    layout = RowLayout(64, 3)
    ((placement, server_index, group, n_values),) = layout.shards(
        2, np.array([5, 1, 60]))
    assert (server_index, group.tolist(), n_values) == (2, [1, 5, 60], 3)
    assert placement.tolist() == [1, 0, 2]


def test_row_layout_equality():
    assert RowLayout(10, 2) == RowLayout(10, 2)
    assert RowLayout(10, 2) != RowLayout(10, 3)
    assert hash(RowLayout(10, 2)) == hash(RowLayout(10, 2))


@given(
    dim=st.integers(min_value=1, max_value=500),
    n_servers=st.integers(min_value=1, max_value=20),
    rotation=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_property_column_partition_is_exact(dim, n_servers, rotation):
    """Shards are disjoint, cover [0, dim), and server_of agrees."""
    layout = ColumnLayout(dim, n_servers, rotation=rotation)
    shards = layout.shards_for_row(0)
    covered = np.zeros(dim, dtype=int)
    for server_index, start, stop in shards:
        covered[start:stop] += 1
        assert 0 <= server_index < n_servers
    assert (covered == 1).all()


@given(
    dim=st.integers(min_value=2, max_value=300),
    n_servers=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_property_split_indices_is_a_partition(dim, n_servers, data):
    indices = data.draw(
        st.lists(st.integers(min_value=0, max_value=dim - 1),
                 min_size=0, max_size=30, unique=True)
    )
    layout = ColumnLayout(dim, n_servers, rotation=data.draw(
        st.integers(min_value=0, max_value=5)))
    groups = layout.split_sorted(0, np.sort(np.array(indices, dtype=np.int64)))
    recovered = sorted(
        int(i) for group in groups.values() for i in group
    )
    assert recovered == sorted(indices)
