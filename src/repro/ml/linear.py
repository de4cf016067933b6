"""Linear-model training on PS2 — the execution flow of Figure 3.

One iteration:

1. **model pull** — each worker pulls, *sparsely*, only the weights its
   minibatch touches (the sparse communication PS2 credits for beating
   Petuum);
2. **gradient calculation** — local numpy math, charged to the executor;
3. **gradient push** — a deferred ``DCV.add`` that commits with the task
   (exactly-once under retry), followed by the stage barrier;
4. **model update** — one coordinator round: a single server-side ``zip``
   over the co-located weight/aux/gradient DCVs that turns the pushed sum
   into the batch mean, applies the optimizer kernel and resets the
   gradient for the next iteration (``optimizer.step(grad_scale)``).  Only
   that one op descriptor per server crosses the wire; L-BFGS, multi-round
   by nature, spends a round on each of the three.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.linalg.sparse import SparseBatch
from repro.ml import losses
from repro.ml.optim import Adam, make_optimizer
from repro.ml.results import TrainResult

_LOSS_FUNCTIONS = {
    "logistic": losses.logistic_grad_batch,
    "hinge": losses.hinge_grad_batch,
}


def train_linear_ps2(ctx, rows, dim, loss="logistic", optimizer=None,
                     n_iterations=20, batch_fraction=0.1, seed=0,
                     target_loss=None, checkpoint_every=None, system="PS2",
                     pool_rows=8):
    """Train a linear model (LR or SVM) with PS2 + DCVs.

    *rows* is a list of :class:`~repro.linalg.sparse.SparseRow`; *dim* the
    feature dimension.  Returns a :class:`TrainResult` whose history holds
    ``(virtual_seconds, mean_batch_loss)`` per iteration; extras carry the
    bound optimizer (whose ``weight`` DCV is the trained model).

    ``pool_rows`` sizes the co-located DCV pool backing the model.  The
    default (8) fits any optimizer here (Adam + L-BFGS history); SGD only
    ever acquires weight + gradient, and a run that will be subject to
    hot-key replication wants the pool no larger than needed — a replica
    install ships every pool row of the shard, so unused slots are pure
    migration bytes.
    """
    if loss not in _LOSS_FUNCTIONS:
        raise ConfigError("unknown loss %r (have %s)" % (loss, sorted(_LOSS_FUNCTIONS)))
    grad_fn = _LOSS_FUNCTIONS[loss]
    if optimizer is None:
        optimizer = Adam()
    elif isinstance(optimizer, str):
        optimizer = make_optimizer(optimizer)

    data = ctx.parallelize(rows).cache()
    weight = ctx.dense(dim, rows=pool_rows, name="weight")
    gradient = optimizer.bind(weight)

    result = TrainResult(system=system, workload="%s-%s" % (loss, optimizer.name))
    for iteration in range(n_iterations):
        sampled = data.sample(batch_fraction, seed=seed * 10000 + iteration)

        def gradient_task(task_ctx, iterator):
            # Consistency gate / logical-clock tick: exact no-ops under BSP
            # (the stage barrier already synchronizes), the SSP wait and the
            # worker-cache renewal point under relaxed consistency.
            task_ctx.sync_clock()
            batch = SparseBatch(list(iterator))
            if not batch:
                task_ctx.advance_clock()
                return (0.0, 0)
            union_weights = weight.pull(indices=batch.union, task_ctx=task_ctx)
            grad_values, loss_sum = grad_fn(batch, union_weights)
            task_ctx.charge_flops(losses.grad_flops(batch), tag="gradient")
            gradient.add(grad_values, indices=batch.union, task_ctx=task_ctx)
            task_ctx.advance_clock()
            return (loss_sum, len(batch))

        stats = sampled.map_partitions_with_context(
            lambda task_ctx, it: [gradient_task(task_ctx, it)]
        ).collect()

        total_loss = sum(s[0] for s in stats)
        total_count = sum(s[1] for s in stats)
        if total_count > 0:
            optimizer.step(grad_scale=1.0 / total_count)
            result.record(ctx.elapsed(), total_loss / total_count)
        else:
            result.record(ctx.elapsed(), result.final_loss or 0.0)
        result.iterations = iteration + 1

        if checkpoint_every and (iteration + 1) % checkpoint_every == 0:
            ctx.checkpoint()
        if target_loss is not None and total_count > 0 \
                and total_loss / total_count <= target_loss:
            break

    result.elapsed = ctx.elapsed()
    result.extras["optimizer"] = optimizer
    result.extras["weight"] = weight
    return result


_LOSS_ONLY = {
    "logistic": losses.logistic_loss_batch,
    "hinge": lambda batch, weights: losses.hinge_grad_batch(batch, weights)[1],
}


def serve_linear_ps2(ctx, rows, weight, loss="logistic", n_passes=1,
                     system="PS2"):
    """Score a trained linear model over *rows*, *n_passes* times.

    The serving half of a train-then-serve pipeline: every pass pulls,
    sparsely, the weights each partition's rows touch and computes the
    loss locally — **pure reads**, no gradient pushes.  This is the
    read-dominated access pattern hot-key replication pays off on (the
    model rows stop changing, so replica fan-out traffic drops to zero
    while pull load still concentrates on the skew-hot shard).

    *weight* is the trained DCV (``result.extras["weight"]``).  Returns a
    :class:`TrainResult` whose history holds ``(virtual_seconds,
    mean_loss)`` per pass.
    """
    if loss not in _LOSS_ONLY:
        raise ConfigError("unknown loss %r (have %s)" % (loss, sorted(_LOSS_ONLY)))
    loss_fn = _LOSS_ONLY[loss]
    data = ctx.parallelize(rows).cache()
    result = TrainResult(system=system, workload="%s-serve" % loss)

    def score_task(task_ctx, iterator):
        task_ctx.sync_clock()
        batch = SparseBatch(list(iterator))
        if not batch:
            task_ctx.advance_clock()
            return (0.0, 0)
        union_weights = weight.pull(indices=batch.union, task_ctx=task_ctx)
        loss_sum = loss_fn(batch, union_weights)
        task_ctx.charge_flops(losses.grad_flops(batch) // 2, tag="serve")
        task_ctx.advance_clock()
        return (loss_sum, len(batch))

    for _ in range(n_passes):
        stats = data.map_partitions_with_context(
            lambda task_ctx, it: [score_task(task_ctx, it)]
        ).collect()
        total = sum(s[1] for s in stats)
        result.record(
            ctx.elapsed(),
            sum(s[0] for s in stats) / total if total else 0.0,
        )
    result.elapsed = ctx.elapsed()
    return result
