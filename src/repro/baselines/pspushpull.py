"""PS- baselines: parameter server with pull/push ONLY (no DCV column ops).

These are the "PS-" curves of Figure 9 — same parameter servers, same
sparse row access, but **no server-side computation**.  Multi-vector model
updates (Adam's four vectors) must therefore round-trip through the
workers: after the gradient barrier, every worker pulls its slice of the
weight/velocity/square/gradient vectors, applies the Adam equations
locally, and pushes three updated slices back — the communication the DCV
``zip`` eliminates.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.linalg.sparse import SparseBatch
from repro.ml import losses
from repro.ml.results import TrainResult


def train_lr_ps_pushpull(ctx, rows, dim, optimizer="adam", learning_rate=0.618,
                         beta1=0.9, beta2=0.999, eps=1e-8, n_iterations=20,
                         batch_fraction=0.1, seed=0, target_loss=None,
                         system=None):
    """Train LR with pull/push-only parameter servers (PS-Adam / PS-SGD).

    Statistically identical to the PS2 trainer (same sampling, same Adam
    math); only the model-update communication differs.
    """
    if optimizer not in ("adam", "sgd"):
        raise ConfigError("pull/push baseline supports 'adam' or 'sgd'")
    if system is None:
        system = "PS-Adam" if optimizer == "adam" else "PS-SGD"

    data = ctx.parallelize(rows).cache()
    weight = ctx.dense(dim, rows=8, name="pp-weight")
    gradient = weight.derive(name="pp-grad")
    gradient.zero()
    aux = {}
    if optimizer == "adam":
        aux["velocity"] = weight.derive(name="pp-velocity")
        aux["velocity"].fill(0.0)
        aux["square"] = weight.derive(name="pp-square")
        aux["square"].fill(0.0)

    n_workers = len(ctx.cluster.executors)
    workers_rdd = ctx.parallelize(range(n_workers), n_partitions=n_workers)

    result = TrainResult(system=system, workload="lr-%s-pushpull" % optimizer)
    for iteration in range(n_iterations):
        gradient.fill(0.0)
        sampled = data.sample(batch_fraction, seed=seed * 10000 + iteration)

        def gradient_task(task_ctx, iterator):
            batch = SparseBatch(list(iterator))
            if not batch:
                return (0.0, 0)
            union_weights = weight.pull(indices=batch.union, task_ctx=task_ctx)
            grad_values, loss_sum = losses.logistic_grad_batch(batch, union_weights)
            task_ctx.charge_flops(losses.grad_flops(batch), tag="gradient")
            gradient.add(grad_values, indices=batch.union, task_ctx=task_ctx)
            return (loss_sum, len(batch))

        stats = sampled.map_partitions_with_context(
            lambda c, it: [gradient_task(c, it)]
        ).collect()
        total_loss = sum(s[0] for s in stats)
        total_count = sum(s[1] for s in stats)
        step = iteration + 1

        # Worker-side model update.  As Section 6.2.1 describes the PS-
        # baseline: "It has to pull the gradient as well as the model onto
        # each worker, update the model and push the model back" — every
        # worker pulls the FULL vectors and pushes the full updated model.
        # In a real cluster all workers pull the same post-barrier snapshot
        # and write identical values; the sequential simulator reproduces
        # that by computing the update once and pushing the same arrays
        # from every worker (the traffic is still fully charged).
        if total_count > 0:
            canonical = {}

            def update_task(task_ctx, iterator):
                for _worker in iterator:
                    g = gradient.pull(task_ctx=task_ctx)
                    w = weight.pull(task_ctx=task_ctx)
                    v = s = None
                    if optimizer == "adam":
                        v = aux["velocity"].pull(task_ctx=task_ctx)
                        s = aux["square"].pull(task_ctx=task_ctx)
                    if not canonical:
                        # The first worker (in simulation order) sees the
                        # pre-update snapshot; its computation is the one
                        # every worker performs identically in a real run.
                        g = g / total_count
                        if optimizer == "sgd":
                            w = w - learning_rate * g
                        else:
                            s = beta2 * s + (1 - beta2) * g * g
                            v = beta1 * v + (1 - beta1) * g
                            s_hat = s / (1 - beta2**step)
                            v_hat = v / (1 - beta1**step)
                            w = w - learning_rate * v_hat / (
                                np.sqrt(s_hat) + eps
                            )
                            canonical["v"] = v
                            canonical["s"] = s
                        canonical["w"] = w
                    task_ctx.charge_flops(
                        (10.0 if optimizer == "adam" else 2.0) * dim,
                        tag="update",
                    )
                    if optimizer == "adam":
                        aux["velocity"].push(canonical["v"], task_ctx=task_ctx)
                        aux["square"].push(canonical["s"], task_ctx=task_ctx)
                    weight.push(canonical["w"], task_ctx=task_ctx)
                return None

            workers_rdd.map_partitions_with_context(
                lambda c, it: [update_task(c, it)]
            ).collect()

        loss = total_loss / max(1, total_count)
        result.record(ctx.elapsed(), loss)
        result.iterations = iteration + 1
        if target_loss is not None and total_count > 0 and loss <= target_loss:
            break

    result.elapsed = ctx.elapsed()
    result.extras["weight"] = weight
    return result
