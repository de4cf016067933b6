"""Factorization Machines on PS2.

The paper's introduction names FM alongside LR as the classification models
Tencent's user-profiling pipeline trains over 200M-feature instances
(Section 1).  The second-order FM

    y(x) = w0 + <w, x> + sum_{i<j} <v_i, v_j> x_i x_j

is a showcase multi-vector model: the weight vector plus ``n_factors``
latent-factor vectors, all ``derive``d from one pool so they are co-located,
pulled **as a block** for each minibatch's index union and updated by one
server-side ``zip`` over every parameter and gradient row — DCV machinery
end to end.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.core import kernels
from repro.linalg.sparse import SparseBatch
from repro.ml.losses import log1p_exp, sigmoid
from repro.ml.results import TrainResult


class FMModel:
    """Handles to the distributed FM parameters plus the local bias."""

    def __init__(self, ctx, dim, n_factors, init_scale=0.01):
        if n_factors < 1:
            raise ConfigError("n_factors must be >= 1")
        self.ctx = ctx
        self.dim = int(dim)
        self.n_factors = int(n_factors)
        self.bias = 0.0
        # One pool holds the weight row, the factor rows and their gradient
        # accumulators, so every vector is co-located and block-addressable.
        rows_needed = 2 * (n_factors + 1)
        self.weight = ctx.dense(dim, rows=rows_needed, name="fm",
                                allow_growth=False)
        self.factors = [self.weight.derive(name="fm.v%d" % f)
                        for f in range(n_factors)]
        self.weight_grad = self.weight.derive(name="fm.gw")
        self.factor_grads = [self.weight.derive(name="fm.gv%d" % f)
                             for f in range(n_factors)]
        rng = ctx.cluster.rng.get("fm-init")
        for factor in self.factors:
            factor.push(rng.standard_normal(dim) * init_scale)
        self._check_single_segment()

    def _check_single_segment(self):
        matrix_ids = {self.weight.matrix_id}
        matrix_ids.update(v.matrix_id for v in self.factors)
        matrix_ids.update(g.matrix_id for g in self.factor_grads)
        matrix_ids.add(self.weight_grad.matrix_id)
        if len(matrix_ids) != 1:
            raise ConfigError("FM parameters must share one pool segment")

    @property
    def matrix_id(self):
        return self.weight.matrix_id

    def parameter_rows(self):
        """Server rows of ``[w, v_0, ..., v_{k-1}]`` for block access."""
        return [self.weight.row] + [v.row for v in self.factors]

    def gradient_rows(self):
        return [self.weight_grad.row] + [g.row for g in self.factor_grads]

    def predict_margin(self, rows):
        """Raw margins for a list of SparseRow (driver-side evaluation)."""
        batch = SparseBatch(rows)
        client = self.ctx.coordinator_client
        block = client.pull_block(self.matrix_id, self.parameter_rows(),
                                  indices=batch.union)
        return np.array([_sample_margin(block, batch.positions[part],
                                        batch.values[part], self.bias)
                         for part in batch.slices], dtype=float)

    def predict_proba(self, rows):
        """P(label=1) for each instance."""
        return sigmoid(self.predict_margin(rows))


def _sample_margin(block, positions, values, bias):
    """FM margin from the pulled parameter block (row 0 = w, rest = V)."""
    w_vals = block[0, positions]
    v_sub = block[1:, positions]
    linear = float(np.dot(w_vals, values))
    s = v_sub @ values
    sq = (v_sub**2) @ (values**2)
    interaction = 0.5 * float(np.sum(s * s - sq))
    return bias + linear + interaction


def _batch_gradients(block, batch, bias):
    """Loss, bias gradient and parameter-block gradient for a minibatch
    (a :class:`~repro.linalg.sparse.SparseBatch`; *block* is pulled at
    its union)."""
    grad_block = np.zeros_like(block)
    grad_bias = 0.0
    loss_sum = 0.0
    for part, label in zip(batch.slices, batch.labels.tolist()):
        positions = batch.positions[part]
        values = batch.values[part]
        margin = _sample_margin(block, positions, values, bias)
        prob = float(sigmoid(np.asarray(margin)))
        loss_sum += float(log1p_exp(np.asarray(margin))) - label * margin
        g = prob - label
        grad_bias += g
        np.add.at(grad_block[0], positions, g * values)
        v_sub = block[1:, positions]
        s = v_sub @ values
        factor_grad = g * (np.outer(s, values) - v_sub * values**2)
        np.add.at(grad_block[1:], (slice(None), positions), factor_grad)
    return grad_block, grad_bias, loss_sum


def train_fm(ctx, rows, dim, n_factors=8, learning_rate=0.05,
             n_iterations=20, batch_fraction=0.3, seed=0, init_scale=0.01,
             target_loss=None, system="PS2-FM"):
    """Train a second-order FM classifier on PS2.

    Per iteration: workers block-pull ``w`` and all factor rows for their
    batch's index union, compute FM gradients locally, block-push them into
    the co-located gradient rows (deferred to the stage barrier), and the
    coordinator issues one ``zip`` over all ``2 * (n_factors + 1)`` rows
    that averages, applies SGD to and resets every (parameter, gradient)
    pair — no parameter ever round-trips for the update.
    """
    model = FMModel(ctx, dim, n_factors, init_scale=init_scale)
    data = ctx.parallelize(rows).cache()
    param_rows = model.parameter_rows()
    grad_rows = model.gradient_rows()
    # [w, gw, v0, gv0, ...]: the update round runs on each pair.  The
    # gradient rows start zero (pool init) and every round leaves them so.
    pairs = [dcv for pair in zip([model.weight] + model.factors,
                                 [model.weight_grad] + model.factor_grads)
             for dcv in pair]

    result = TrainResult(system=system, workload="fm-k%d" % n_factors)
    for iteration in range(n_iterations):
        sampled = data.sample(batch_fraction, seed=seed * 10000 + iteration)

        def gradient_task(task_ctx, iterator):
            batch = SparseBatch(list(iterator))
            if not batch:
                return (0.0, 0.0, 0)
            client = ctx.client_for(task_ctx.executor)
            block = client.pull_block(model.matrix_id, param_rows,
                                      indices=batch.union)
            grad_block, grad_bias, loss_sum = _batch_gradients(block, batch, model.bias)
            task_ctx.charge_flops(8.0 * n_factors * batch.nnz, tag="fm-gradient")
            task_ctx.defer(
                lambda: client.push_block_add(
                    model.matrix_id, grad_rows, grad_block, indices=batch.union
                )
            )
            return (loss_sum, grad_bias, len(batch))

        stats = sampled.map_partitions_with_context(
            lambda c, it: [gradient_task(c, it)]
        ).collect()
        total_loss = sum(s[0] for s in stats)
        total_bias_grad = sum(s[1] for s in stats)
        total_count = sum(s[2] for s in stats)

        if total_count > 0:
            scale = 1.0 / total_count
            model.bias -= learning_rate * total_bias_grad * scale
            pairs[0].zip(*pairs[1:]).map_partitions(
                kernels.update_round_kernel,
                args={"update": kernels.sgd_update_kernel,
                      "update_args": {"lr": learning_rate},
                      "grad_scale": scale, "group": 2},
                wait=False,
            )
            result.record(ctx.elapsed(), total_loss / total_count)
        else:
            result.record(ctx.elapsed(), result.final_loss or 0.0)
        result.iterations = iteration + 1
        if target_loss is not None and total_count > 0 \
                and total_loss / total_count <= target_loss:
            break

    result.elapsed = ctx.elapsed()
    result.extras["model"] = model
    return result
