"""Loss/gradient computations on sparse minibatches.

All functions operate on compact representations: a
:class:`~repro.linalg.sparse.SparseBatch` plus the weight values for the
union of its feature indices, as pulled sparsely from the parameter
servers.  Dense variants (full weight vector) back the MLlib-style
baselines.
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


def logistic_grad_batch(batch, union_weights):
    """Gradient + loss of logistic loss over a sparse minibatch.

    *batch* is a :class:`~repro.linalg.sparse.SparseBatch` and
    ``union_weights`` the weight values at ``batch.union``.  Returns
    ``(grad_values, loss_sum)`` where ``grad_values`` aligns with
    ``batch.union`` and is **unnormalized** (sum over rows); labels are 0/1.
    """
    return _logistic(batch, batch.positions, union_weights)


def logistic_grad_dense(batch, weights):
    """Dense-gradient variant (full weight vector), for MLlib-style runs:
    the same kernel, each entry's position its own index."""
    return _logistic(batch, batch.indices, weights)


def _logistic(batch, positions, weights):
    """One array pass: margins, loss and the gradient scattered onto
    *weights*' slots.

    Every value equals a per-row loop's bit for bit (see :func:`_scatter`
    and :func:`_row_order_sum`).
    """
    margins = batch.row_dots(weights[positions])
    labels = batch.labels
    grad = _scatter(batch, sigmoid(margins) - labels, positions, weights.size)
    return grad, _row_order_sum(log1p_exp(margins) - labels * margins)


def logistic_loss_batch(batch, union_weights):
    """Loss only (no gradient) over a sparse batch."""
    margins = batch.row_dots(union_weights[batch.positions])
    return _row_order_sum(log1p_exp(margins) - batch.labels * margins)


def hinge_grad_batch(batch, union_weights):
    """Subgradient + loss of the hinge loss (labels 0/1 mapped to ±1)."""
    margins = batch.row_dots(union_weights[batch.positions])
    y = 2.0 * batch.labels - 1.0
    hinge = 1.0 - y * margins
    # A row outside the margin adds zeros, which move no slot: a sum
    # that starts at 0.0 is never -0.0.
    coefficients = np.where(y * margins < 1.0, -y, 0.0)
    grad = _scatter(batch, coefficients, batch.positions, union_weights.size)
    return grad, _row_order_sum(np.where(hinge > 0.0, hinge, 0.0))


def _scatter(batch, coefficients, positions, size):
    """Each row's coefficient times its values, added onto *size* zeros
    at *positions*: ``np.bincount`` adds the entries one by one in row
    order onto 0.0, as ``np.add.at`` on zeros does."""
    return np.bincount(positions,
                       weights=np.repeat(coefficients, batch.lengths)
                       * batch.values, minlength=size)


def _row_order_sum(terms):
    """``sum`` of *terms* added one after another, as a Python ``+=``
    loop from 0.0 does: ``np.sum`` adds pairwise and can differ in the
    last bit."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def grad_flops(batch):
    """Compute-cost estimate of a batch gradient (charged to executors)."""
    return 6.0 * batch.nnz
