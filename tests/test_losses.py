"""Loss/gradient math checked against finite differences, dense mirrors
and, bit for bit, the per-row loops the batch kernels replace."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linalg.sparse import SparseBatch, SparseRow
from repro.ml import losses
from repro.ml.fm import _batch_gradients, _sample_margin


def make_rows(seed=0, n=6, dim=30, nnz=5):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        rows.append(SparseRow(idx, rng.standard_normal(nnz),
                              float(rng.integers(2))))
    return rows


def test_sigmoid_bounds_and_stability():
    x = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = losses.sigmoid(x)
    assert np.all((s >= 0) & (s <= 1))
    assert s[2] == pytest.approx(0.5)
    assert s[0] == pytest.approx(0.0)
    assert s[4] == pytest.approx(1.0)


def test_log1p_exp_extremes():
    assert losses.log1p_exp(np.array([1000.0]))[0] == pytest.approx(1000.0)
    assert losses.log1p_exp(np.array([-1000.0]))[0] == pytest.approx(0.0)
    assert losses.log1p_exp(np.array([0.0]))[0] == pytest.approx(np.log(2))


def test_logistic_grad_matches_finite_differences():
    rows = make_rows()
    batch = SparseBatch(rows)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(batch.union.size) * 0.1
    grad, loss = losses.logistic_grad_batch(batch, w)
    eps = 1e-6
    for k in range(0, batch.union.size, 3):
        bumped = w.copy()
        bumped[k] += eps
        _g, loss_up = losses.logistic_grad_batch(batch, bumped)
        numeric = (loss_up - loss) / eps
        assert numeric == pytest.approx(grad[k], abs=1e-3)


def test_logistic_sparse_equals_dense():
    rows = make_rows(seed=2)
    batch = SparseBatch(rows)
    dense_w = np.random.default_rng(3).standard_normal(30) * 0.1
    sparse_grad, sparse_loss = losses.logistic_grad_batch(
        batch, dense_w[batch.union]
    )
    dense_grad, dense_loss = losses.logistic_grad_dense(batch, dense_w)
    assert sparse_loss == pytest.approx(dense_loss)
    assert np.allclose(sparse_grad, dense_grad[batch.union])


def test_logistic_loss_batch_matches_grad_batch_loss():
    rows = make_rows(seed=4)
    batch = SparseBatch(rows)
    w = np.zeros(batch.union.size)
    _grad, loss = losses.logistic_grad_batch(batch, w)
    only_loss = losses.logistic_loss_batch(batch, w)
    assert only_loss == pytest.approx(loss)


def test_logistic_loss_at_zero_weights():
    rows = make_rows(seed=5)
    batch = SparseBatch(rows)
    _g, loss = losses.logistic_grad_batch(batch, np.zeros(batch.union.size))
    assert loss / len(rows) == pytest.approx(np.log(2))


def test_hinge_grad_matches_finite_differences():
    rows = make_rows(seed=6)
    batch = SparseBatch(rows)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(batch.union.size) * 0.1
    grad, loss = losses.hinge_grad_batch(batch, w)
    eps = 1e-6
    for k in range(0, batch.union.size, 4):
        bumped = w.copy()
        bumped[k] += eps
        _g, loss_up = losses.hinge_grad_batch(batch, bumped)
        numeric = (loss_up - loss) / eps
        assert numeric == pytest.approx(grad[k], abs=1e-3)


def test_hinge_zero_gradient_when_margins_satisfied():
    row = SparseRow(np.array([0]), np.array([1.0]), 1.0)
    grad, loss = losses.hinge_grad_batch(SparseBatch([row]), np.array([5.0]))
    assert loss == 0.0
    assert grad[0] == 0.0


def test_grad_flops_scales_with_nnz():
    rows = make_rows()
    assert losses.grad_flops(SparseBatch(rows)) \
        == 6.0 * sum(row.nnz for row in rows)


# -- SparseRow helpers ----------------------------------------------------------

def test_sparse_row_dot_dense():
    row = SparseRow(np.array([1, 3]), np.array([2.0, 4.0]), 1.0)
    dense = np.arange(5.0)
    assert row.dot_dense(dense) == pytest.approx(2.0 + 12.0)


def test_sparse_row_to_dense():
    row = SparseRow(np.array([0, 4]), np.array([1.0, 5.0]), 0.0)
    assert np.allclose(row.to_dense(6), [1, 0, 0, 0, 5, 0])


def test_sparse_row_shape_mismatch():
    from repro.common.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        SparseRow(np.array([1, 2]), np.array([1.0]), 0.0)


def test_batch_index_union_sorted_unique():
    rows = [
        SparseRow(np.array([3, 1]), np.ones(2), 1),
        SparseRow(np.array([1, 9]), np.ones(2), 0),
    ]
    batch = SparseBatch(rows)
    assert batch.union.tolist() == [1, 3, 9]
    assert batch.positions.tolist() == [1, 0, 0, 2]


def test_batch_index_union_empty():
    batch = SparseBatch([])
    assert batch.union.size == batch.positions.size == batch.nnz == 0
    assert batch.union.dtype == np.int64
    grad, loss = losses.logistic_grad_dense(batch, np.zeros(4))
    assert loss == 0.0 and np.array_equal(grad, np.zeros(4))


# -- batch kernels == the per-row loops they replace ---------------------------
#
# The loops below are the kernels as they were before a mini-batch became
# flat arrays, kept as the reference: every gradient must be array_equal
# and every loss sum ==, not approximately so.


def loop_logistic(rows, union, union_weights):
    grad = np.zeros(union.size)
    loss_sum = 0.0
    for row in rows:
        positions = np.searchsorted(union, row.indices)
        margin = float(np.dot(union_weights[positions], row.values))
        prob = float(losses.sigmoid(margin))
        loss_sum += float(losses.log1p_exp(margin)) - row.label * margin
        np.add.at(grad, positions, (prob - row.label) * row.values)
    return grad, loss_sum


def loop_logistic_dense(rows, weights):
    grad = np.zeros(weights.size)
    loss_sum = 0.0
    for row in rows:
        margin = row.dot_dense(weights)
        prob = float(losses.sigmoid(margin))
        loss_sum += float(losses.log1p_exp(margin)) - row.label * margin
        np.add.at(grad, row.indices, (prob - row.label) * row.values)
    return grad, loss_sum


def loop_hinge(rows, union, union_weights):
    grad = np.zeros(union.size)
    loss_sum = 0.0
    for row in rows:
        positions = np.searchsorted(union, row.indices)
        margin = float(np.dot(union_weights[positions], row.values))
        y = 2.0 * row.label - 1.0
        loss_sum += max(0.0, 1.0 - y * margin)
        if y * margin < 1.0:
            np.add.at(grad, positions, -y * row.values)
    return grad, loss_sum


def loop_fm(block, rows, union, bias):
    grad_block = np.zeros_like(block)
    grad_bias = 0.0
    loss_sum = 0.0
    for row in rows:
        positions = np.searchsorted(union, row.indices)
        values = row.values
        margin = _sample_margin(block, positions, values, bias)
        prob = float(losses.sigmoid(np.asarray(margin)))
        loss_sum += float(losses.log1p_exp(np.asarray(margin))) \
            - row.label * margin
        g = prob - row.label
        grad_bias += g
        np.add.at(grad_block[0], positions, g * values)
        v_sub = block[1:, positions]
        s = v_sub @ values
        factor_grad = g * (np.outer(s, values) - v_sub * values**2)
        np.add.at(grad_block[1:], (slice(None), positions), factor_grad)
    return grad_block, grad_bias, loss_sum


DIM = 12

# Rows over a narrow index range, so indices repeat across rows and, drawn
# unsorted, within one; empty rows and one-row batches are drawn too.
batches = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(min_value=0, max_value=DIM - 1),
                           st.floats(min_value=-2.0, max_value=2.0)),
                 max_size=9),
        st.sampled_from([0.0, 1.0]),
    ),
    min_size=1, max_size=6,
).map(lambda drawn: [
    SparseRow([i for i, _v in entries], [v for _i, v in entries], label)
    for entries, label in drawn])

# Weights up to ±600: a row's margin reaches past ±1000, where the stable
# sigmoid and log1p_exp take their other branch.
weight_vectors = st.lists(st.floats(min_value=-600.0, max_value=600.0),
                          min_size=DIM, max_size=DIM).map(np.array)


def _margin_edges():
    # Margins of exactly ±1000 and 0 under labels 0 and 1, with an index
    # repeated within a row and an empty row.
    rows = [SparseRow([3], [1.0], 1.0), SparseRow([3, 3], [0.5, 0.5], 0.0),
            SparseRow([], [], 1.0), SparseRow([5], [-1.0], 0.0),
            SparseRow([5, 7], [1.0, 0.0], 1.0)]
    weights = np.zeros(DIM)
    weights[3], weights[5] = -1000.0, 1000.0
    return rows, weights


@given(rows=batches, weights=weight_vectors)
@example(*_margin_edges())
@settings(max_examples=150, deadline=None)
def test_batch_kernels_equal_the_per_row_loops(rows, weights):
    batch = SparseBatch(rows)
    union = np.unique(np.concatenate([row.indices for row in rows]))
    assert np.array_equal(batch.union, union)
    union_weights = weights[union]

    grad, loss = losses.logistic_grad_batch(batch, union_weights)
    want_grad, want_loss = loop_logistic(rows, union, union_weights)
    assert np.array_equal(grad, want_grad) and loss == want_loss
    assert losses.logistic_loss_batch(batch, union_weights) == want_loss

    grad, loss = losses.hinge_grad_batch(batch, union_weights)
    want_grad, want_loss = loop_hinge(rows, union, union_weights)
    assert np.array_equal(grad, want_grad) and loss == want_loss

    # The dense form is the sparse one on the union, zeros elsewhere.
    dense_grad, dense_loss = losses.logistic_grad_dense(batch, weights)
    want_grad, want_loss = loop_logistic_dense(rows, weights)
    assert np.array_equal(dense_grad, want_grad) and dense_loss == want_loss
    sparse_grad, sparse_loss = losses.logistic_grad_batch(batch,
                                                          union_weights)
    assert np.array_equal(dense_grad[union], sparse_grad)
    assert np.count_nonzero(np.delete(dense_grad, union)) == 0
    assert dense_loss == sparse_loss


@given(rows=batches, data=st.data())
@settings(max_examples=60, deadline=None)
def test_fm_batch_gradients_equal_the_per_row_loop(rows, data):
    batch = SparseBatch(rows)
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    block = np.random.default_rng(seed).standard_normal(
        (3, batch.union.size))
    got = _batch_gradients(block, batch, 0.25)
    want = loop_fm(block, rows, batch.union, 0.25)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
