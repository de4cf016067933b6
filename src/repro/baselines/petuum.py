"""Petuum-style baselines: a parameter server with dense-only communication.

The paper attributes PS2's LR win over Petuum to sparse pulls ("PS2 ...
only pulls the needed model parameters.  However, Petuum has to pull all of
the model", Section 6.3.1) and its LDA win to sparse communication plus
message compression (Section 6.3.3).  These trainers therefore run the same
synchronous algorithms as PS2 but pull and push **full dense vectors**.
"""

from __future__ import annotations

from repro.linalg.sparse import SparseBatch
from repro.ml import losses
from repro.ml.lda import train_lda
from repro.ml.results import TrainResult


def train_lr_petuum(ctx, rows, dim, learning_rate=0.618, n_iterations=20,
                    batch_fraction=0.1, seed=0, target_loss=None,
                    system="Petuum"):
    """Petuum-style LR with SGD: dense pulls, worker-applied increments.

    Workers pull the full weight vector, compute their batch gradient, and
    push ``-lr * grad / batch_size`` straight into the weights (Petuum's
    native ``inc`` application).  Statistically this matches synchronous
    minibatch SGD with the expected batch size.
    """
    data = ctx.parallelize(rows).cache()
    weight = ctx.dense(dim, rows=2, name="petuum-weight")
    expected_batch = max(1.0, batch_fraction * len(rows))

    result = TrainResult(system=system, workload="lr-sgd-petuum")
    for iteration in range(n_iterations):
        sampled = data.sample(batch_fraction, seed=seed * 10000 + iteration)

        def gradient_task(task_ctx, iterator):
            batch = SparseBatch(list(iterator))
            if not batch:
                return (0.0, 0)
            dense_weights = weight.pull(task_ctx=task_ctx)
            grad, loss_sum = losses.logistic_grad_dense(batch, dense_weights)
            task_ctx.charge_flops(losses.grad_flops(batch), tag="gradient")
            update = -learning_rate / expected_batch * grad
            weight.add(update, task_ctx=task_ctx)
            return (loss_sum, len(batch))

        stats = sampled.map_partitions_with_context(
            lambda c, it: [gradient_task(c, it)]
        ).collect()
        total_loss = sum(s[0] for s in stats)
        total_count = sum(s[1] for s in stats)
        loss = total_loss / max(1, total_count)
        result.record(ctx.elapsed(), loss)
        result.iterations = iteration + 1
        if target_loss is not None and total_count > 0 and loss <= target_loss:
            break

    result.elapsed = ctx.elapsed()
    result.extras["weight"] = weight
    return result


def train_lda_petuum(ctx, docs, vocab_size, **kwargs):
    """Petuum-style LDA: dense, uncompressed word-topic pulls/pushes."""
    kwargs.setdefault("system", "Petuum-LDA")
    return train_lda(ctx, docs, vocab_size, comm="petuum", **kwargs)
