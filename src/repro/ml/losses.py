"""Loss/gradient computations on sparse minibatches.

All functions operate on compact representations: a batch's rows plus the
weight values for the union of their feature indices, as pulled sparsely
from the parameter servers.  Dense variants (full weight vector) back the
MLlib-style baselines.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Numerically stable logistic function."""
    out = np.empty_like(np.asarray(x, dtype=float))
    x = np.asarray(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log1p_exp(x):
    """``log(1 + exp(x))`` without overflow."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
    out[~pos] = np.log1p(np.exp(x[~pos]))
    return out


def logistic_grad_batch(rows, union_indices, union_weights):
    """Gradient + loss of logistic loss over a sparse minibatch.

    ``union_indices`` must be the sorted union of the rows' indices (as from
    :func:`repro.linalg.sparse.batch_index_union`) and ``union_weights`` the
    matching weight values.  Returns ``(grad_values, loss_sum)`` where
    ``grad_values`` aligns with ``union_indices`` and is **unnormalized**
    (sum over rows); labels are 0/1.
    """
    grad = np.zeros(union_indices.size)
    loss_sum = 0.0
    for row in rows:
        positions = np.searchsorted(union_indices, row.indices)
        margin = float(np.dot(union_weights[positions], row.values))
        prob = float(sigmoid(margin))
        loss_sum += float(log1p_exp(margin)) - row.label * margin
        np.add.at(grad, positions, (prob - row.label) * row.values)
    return grad, loss_sum


def logistic_grad_dense(rows, weights):
    """Dense-gradient variant (full weight vector), for MLlib-style runs."""
    grad = np.zeros(weights.size)
    loss_sum = 0.0
    for row in rows:
        margin = row.dot_dense(weights)
        prob = float(sigmoid(margin))
        loss_sum += float(log1p_exp(margin)) - row.label * margin
        np.add.at(grad, row.indices, (prob - row.label) * row.values)
    return grad, loss_sum


def logistic_loss_batch(rows, union_indices, union_weights):
    """Loss only (no gradient) over a sparse batch."""
    loss_sum = 0.0
    for row in rows:
        positions = np.searchsorted(union_indices, row.indices)
        margin = float(np.dot(union_weights[positions], row.values))
        loss_sum += float(log1p_exp(margin)) - row.label * margin
    return loss_sum


def hinge_grad_batch(rows, union_indices, union_weights):
    """Subgradient + loss of the hinge loss (labels 0/1 mapped to ±1)."""
    grad = np.zeros(union_indices.size)
    loss_sum = 0.0
    for row in rows:
        positions = np.searchsorted(union_indices, row.indices)
        margin = float(np.dot(union_weights[positions], row.values))
        y = 2.0 * row.label - 1.0
        loss_sum += max(0.0, 1.0 - y * margin)
        if y * margin < 1.0:
            np.add.at(grad, positions, -y * row.values)
    return grad, loss_sum


def grad_flops(rows):
    """Compute-cost estimate of a batch gradient (charged to executors)."""
    return 6.0 * sum(row.nnz for row in rows)
