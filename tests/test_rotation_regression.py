"""Regression tests: sparse access must be exact on ROTATED layouts.

A bug once scrambled sparse pulls on any pool except the context's first:
the client iterated server groups by server index while its cursor walked
indices in column order — two different orders under placement rotation.
These tests pin the contract on non-zero-rotation pools specifically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core.context import PS2Context


def rotated_dcv(n_servers=3, dim=40, burn=1, seed=1, rows=6):
    """A DCV whose pool rotation is *burn* (not the context's first pool)."""
    ctx = PS2Context(
        config=ClusterConfig(n_executors=2, n_servers=n_servers, seed=seed)
    )
    for _ in range(burn):
        ctx.dense(4)
    dcv = ctx.dense(dim, rows=rows)
    assert dcv.layout.rotation == burn % n_servers
    return ctx, dcv


def test_sparse_pull_input_order_on_rotated_pool():
    _ctx, w = rotated_dcv()
    w.push(np.arange(40.0))
    got = w.pull(indices=np.array([39, 0, 17, 5, 23]))
    assert np.allclose(got, [39, 0, 17, 5, 23])


def test_sparse_push_on_rotated_pool():
    _ctx, w = rotated_dcv()
    w.add(np.array([1.0, 2.0, 3.0]), indices=np.array([39, 0, 17]))
    expected = np.zeros(40)
    expected[[39, 0, 17]] = [1.0, 2.0, 3.0]
    assert np.allclose(w.pull(), expected)


def test_sparse_assign_on_rotated_pool():
    _ctx, w = rotated_dcv()
    w.push(np.array([7.0, 8.0]), indices=np.array([30, 2]))
    got = w.pull()
    assert got[30] == 7.0 and got[2] == 8.0


def test_block_ops_on_rotated_pool():
    ctx, w = rotated_dcv(rows=8)
    sibling = w.derive()
    client = ctx.coordinator_client
    block = np.stack([np.arange(5.0), np.arange(5.0) * 10])
    indices = np.array([39, 1, 20, 8, 33])
    client.push_block_add(w.matrix_id, [w.row, sibling.row], block,
                          indices=indices)
    got = client.pull_block(w.matrix_id, [w.row, sibling.row],
                            indices=indices)
    assert np.allclose(got, block)


def test_pull_range_on_rotated_pool():
    _ctx, w = rotated_dcv()
    w.push(np.arange(40.0))
    got = w._client().pull_row(w.matrix_id, w.row, indices=np.arange(10, 30))
    assert np.allclose(got, np.arange(10.0, 30.0))


def test_training_independent_of_prior_pool_count():
    """The quickcheck scenario: training after unrelated DCV activity must
    behave exactly as on a fresh context."""
    from repro.data import sparse_classification
    from repro.ml import train_logistic_regression

    rows, _ = sparse_classification(150, 500, 8, seed=2)

    def run(burn):
        ctx = PS2Context(
            config=ClusterConfig(n_executors=4, n_servers=4, seed=2)
        )
        for _ in range(burn):
            ctx.dense(10)
        return train_logistic_regression(
            ctx, rows, 500, optimizer="sgd", n_iterations=5,
            batch_fraction=0.5, seed=2,
        ).history

    losses_fresh = [l for _t, l in run(0)]
    losses_burned = [l for _t, l in run(3)]
    assert losses_fresh == pytest.approx(losses_burned)


@given(
    rotation=st.integers(min_value=0, max_value=7),
    n_servers=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_property_sparse_round_trip_any_rotation(rotation, n_servers, data):
    dim = 35
    ctx = PS2Context(
        config=ClusterConfig(n_executors=2, n_servers=n_servers, seed=3)
    )
    for _ in range(rotation):
        ctx.dense(2)
    w = ctx.dense(dim, rows=2)
    indices = data.draw(st.lists(
        st.integers(min_value=0, max_value=dim - 1),
        min_size=1, max_size=12, unique=True,
    ))
    values = data.draw(st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False, width=32),
        min_size=len(indices), max_size=len(indices),
    ))
    w.push(np.asarray(values), indices=np.asarray(indices, dtype=np.int64))
    got = w.pull(indices=np.asarray(indices, dtype=np.int64))
    assert np.allclose(got, values, atol=1e-12)
