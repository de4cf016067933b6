"""DistML-style baseline: an unsynchronized pull/push PS that loses updates.

The paper reports DistML "is not robust.  For example, the result of DistML
on KDDB dataset in Figure 10(a) cannot converge although we carefully tune
the hyperparameters" (and that it crashes outright on CTR).  We cannot run
the original binary, so we reproduce the *behavior* through the defect
class its design invites: DistML's monitor applies worker updates to the
store without synchronization, so concurrent read-modify-write cycles race.
The trainer models the race as

- **stale reads**: workers compute gradients against the model as of a few
  iterations ago (no barrier between pull and apply), and
- **lost updates**: overlapping writes resolve last-writer-wins, so only
  one worker's (unnormalized, full-learning-rate) update survives a round.

Under the paper's learning rate the model performs a stale random walk:
the loss curve stays flat around its starting value — the Figure 10(a)
shape — while all synchronized systems converge.  All pulls and pushes are
still fully charged to the cost model (DistML pays dense communication).
"""

from __future__ import annotations

from repro.common.rng import RngRegistry
from repro.linalg.sparse import SparseBatch
from repro.ml import losses
from repro.ml.results import TrainResult

#: How many iterations behind the workers' model snapshots run.
STALENESS = 2


def train_lr_distml(ctx, rows, dim, learning_rate=0.618, n_iterations=20,
                    batch_fraction=0.1, seed=0, system="DistML"):
    """DistML-style LR: dense pull/push with racy, unsynchronized applies."""
    data = ctx.parallelize(rows).cache()
    weight = ctx.dense(dim, rows=2, name="distml-weight")
    rng = RngRegistry(seed).get("distml-race")
    snapshots = [weight.pull()]

    result = TrainResult(system=system, workload="lr-sgd-distml")
    for iteration in range(n_iterations):
        sampled = data.sample(batch_fraction, seed=seed * 10000 + iteration)
        stale = snapshots[max(0, len(snapshots) - 1 - STALENESS)]

        def gradient_task(task_ctx, iterator):
            batch = SparseBatch(list(iterator))
            if not batch:
                return (None, 0.0, 0)
            # The pull is issued (and charged) but the worker's view is the
            # stale snapshot — there is no barrier forcing freshness.
            weight.pull(task_ctx=task_ctx)
            grad, loss_sum = losses.logistic_grad_dense(batch, stale)
            task_ctx.charge_flops(losses.grad_flops(batch), tag="gradient")
            return (grad, loss_sum, len(batch))

        stats = sampled.map_partitions_with_context(
            lambda c, it: [gradient_task(c, it)]
        ).collect()

        # Every worker pushes its full update; unsynchronized application
        # means one last writer wins.  All pushes are charged.
        contenders = []
        for grad, _loss, count in stats:
            if grad is None:
                continue
            update = stale - learning_rate * grad
            contenders.append(update)
        if contenders:
            winner = contenders[int(rng.integers(len(contenders)))]
            for update in contenders:
                weight.push(update)  # charged; earlier writes are clobbered
            weight.push(winner)
            snapshots.append(winner.copy())

        total_loss = sum(s[1] for s in stats)
        total_count = sum(s[2] for s in stats)
        result.record(ctx.elapsed(), total_loss / max(1, total_count))
        result.iterations = iteration + 1

    result.elapsed = ctx.elapsed()
    result.extras["weight"] = weight
    return result
