"""Loss/gradient math checked against finite differences and dense mirrors."""

import numpy as np
import pytest

from repro.linalg.sparse import SparseRow, batch_index_union
from repro.ml import losses


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
    union = batch_index_union(rows)
    rng = np.random.default_rng(1)
    w = rng.standard_normal(union.size) * 0.1
    grad, loss = losses.logistic_grad_batch(rows, union, w)
    eps = 1e-6
    for k in range(0, union.size, 3):
        bumped = w.copy()
        bumped[k] += eps
        _g, loss_up = losses.logistic_grad_batch(rows, union, bumped)
        numeric = (loss_up - loss) / eps
        assert numeric == pytest.approx(grad[k], abs=1e-3)


def test_logistic_sparse_equals_dense():
    rows = make_rows(seed=2)
    union = batch_index_union(rows)
    dense_w = np.random.default_rng(3).standard_normal(30) * 0.1
    sparse_grad, sparse_loss = losses.logistic_grad_batch(
        rows, union, dense_w[union]
    )
    dense_grad, dense_loss = losses.logistic_grad_dense(rows, dense_w)
    assert sparse_loss == pytest.approx(dense_loss)
    assert np.allclose(sparse_grad, dense_grad[union])


def test_logistic_loss_batch_matches_grad_batch_loss():
    rows = make_rows(seed=4)
    union = batch_index_union(rows)
    w = np.zeros(union.size)
    _grad, loss = losses.logistic_grad_batch(rows, union, w)
    only_loss = losses.logistic_loss_batch(rows, union, w)
    assert only_loss == pytest.approx(loss)


def test_logistic_loss_at_zero_weights():
    rows = make_rows(seed=5)
    union = batch_index_union(rows)
    _g, loss = losses.logistic_grad_batch(rows, union, np.zeros(union.size))
    assert loss / len(rows) == pytest.approx(np.log(2))


def test_hinge_grad_matches_finite_differences():
    rows = make_rows(seed=6)
    union = batch_index_union(rows)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(union.size) * 0.1
    grad, loss = losses.hinge_grad_batch(rows, union, w)
    eps = 1e-6
    for k in range(0, union.size, 4):
        bumped = w.copy()
        bumped[k] += eps
        _g, loss_up = losses.hinge_grad_batch(rows, union, bumped)
        numeric = (loss_up - loss) / eps
        assert numeric == pytest.approx(grad[k], abs=1e-3)


def test_hinge_zero_gradient_when_margins_satisfied():
    row = SparseRow(np.array([0]), np.array([1.0]), 1.0)
    union = np.array([0])
    grad, loss = losses.hinge_grad_batch([row], union, np.array([5.0]))
    assert loss == 0.0
    assert grad[0] == 0.0


def test_grad_flops_scales_with_nnz():
    rows = make_rows()
    assert losses.grad_flops(rows) == 6.0 * sum(row.nnz for row in rows)


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
    assert batch_index_union(rows).tolist() == [1, 3, 9]


def test_batch_index_union_empty():
    assert batch_index_union([]).size == 0
