"""Spark-MLlib-style trainers: the driver is the parameter server.

These reproduce the execution process of Section 2 exactly:

1. *model broadcast* — the driver ships the full dense weight vector to all
   executors;
2. *gradient calculation* — executors compute dense gradients;
3. *gradient aggregation* — the driver collects one dense gradient **per
   executor** through its single NIC (the bottleneck of Figure 1);
4. *model update* — the driver applies the optimizer locally.

``TrainResult.extras["breakdown"]`` accumulates virtual seconds per step,
which is how the Figure 1(b) benchmark regenerates the paper's stacked bars.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import DRIVER
from repro.common.errors import ConfigError
from repro.costs import FLOAT_BYTES
from repro.linalg.sparse import SparseBatch, sorted_unique
from repro.ml import losses
from repro.ml.results import TrainResult


class _DriverOptimizer:
    """Driver-local optimizer state (the single-node model of MLlib)."""

    def __init__(self, kind, dim, learning_rate, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        if kind not in ("sgd", "adam"):
            raise ConfigError("driver optimizer must be 'sgd' or 'adam'")
        self.kind = kind
        self.learning_rate = learning_rate
        self.weights = np.zeros(dim)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.square = np.zeros(dim)
        self.velocity = np.zeros(dim)
        self.step_count = 0

    def apply(self, gradient):
        self.step_count += 1
        if self.kind == "sgd":
            self.weights -= self.learning_rate * gradient
            return 2.0 * gradient.size
        self.square = self.beta2 * self.square + (1 - self.beta2) * gradient**2
        self.velocity = (
            self.beta1 * self.velocity + (1 - self.beta1) * gradient
        )
        s_hat = self.square / (1 - self.beta2**self.step_count)
        v_hat = self.velocity / (1 - self.beta1**self.step_count)
        self.weights -= (
            self.learning_rate * v_hat / (np.sqrt(s_hat) + self.eps)
        )
        return 10.0 * gradient.size


def train_lr_mllib(ctx, rows, dim, optimizer="sgd", learning_rate=0.618,
                   n_iterations=20, batch_fraction=0.1, seed=0,
                   target_loss=None, system=None):
    """Train LR the Spark MLlib way (driver-centric).

    *ctx* is a :class:`~repro.core.context.PS2Context` (its parameter
    servers sit idle — only sparklite is used), so every system shares one
    cluster cost model.  History and extras match the PS2 trainer's.
    """
    if system is None:
        system = "SparkMLlib" if optimizer == "sgd" else "Spark-Adam"
    spark = ctx.spark
    cluster = ctx.cluster
    state = _DriverOptimizer(optimizer, dim, learning_rate)
    data = spark.parallelize(rows).cache()

    result = TrainResult(system=system, workload="lr-%s" % optimizer)
    breakdown = {"broadcast": 0.0, "gradient": 0.0, "aggregation": 0.0,
                 "update": 0.0}

    for iteration in range(n_iterations):
        # (1) model broadcast -------------------------------------------------
        t0 = cluster.elapsed()
        broadcast = spark.broadcast(state.weights, nbytes=dim * FLOAT_BYTES)
        cluster.barrier([DRIVER] + cluster.executors)
        t1 = cluster.elapsed()
        breakdown["broadcast"] += t1 - t0

        # (2) gradient calculation (results stay on the executors) ------------
        sampled = data.sample(batch_fraction, seed=seed * 10000 + iteration)

        def gradient_task(task_ctx, iterator):
            batch = SparseBatch(list(iterator))
            weights = broadcast.value
            grad, loss_sum = losses.logistic_grad_dense(batch, weights)
            task_ctx.charge_flops(losses.grad_flops(batch), tag="gradient")
            return (grad, loss_sum, len(batch))

        placed = spark.scheduler.run_stage(
            sampled.map_partitions_with_context(
                lambda c, it: [gradient_task(c, it)]
            ),
            lambda c, it: next(iter(it)),
            tag="mllib-gradient",
            gather_results=False,
        )
        t2 = cluster.elapsed()
        breakdown["gradient"] += t2 - t1

        # (3) gradient aggregation: every dense gradient into the driver NIC --
        total_grad = np.zeros(dim)
        total_loss = 0.0
        total_count = 0
        for executor, (grad, loss_sum, count) in placed:
            cluster.network.transfer(
                executor, DRIVER, dim * FLOAT_BYTES, tag="mllib-aggregate"
            )
            total_grad += grad
            total_loss += loss_sum
            total_count += count
        cluster.charge_flops(DRIVER, dim * len(placed), tag="mllib-combine")
        t3 = cluster.elapsed()
        breakdown["aggregation"] += t3 - t2

        # (4) model update on the driver ---------------------------------------
        if total_count > 0:
            flops = state.apply(total_grad / total_count)
            cluster.charge_flops(DRIVER, flops, tag="mllib-update")
        t4 = cluster.elapsed()
        breakdown["update"] += t4 - t3

        loss = total_loss / max(1, total_count)
        result.record(cluster.elapsed(), loss)
        result.iterations = iteration + 1
        if target_loss is not None and loss <= target_loss:
            break

    result.elapsed = cluster.elapsed()
    result.extras["weights"] = state.weights
    result.extras["breakdown"] = breakdown
    return result


def train_lda_mllib(ctx, docs, vocab_size, n_topics=20, n_iterations=10,
                    alpha=0.5, beta=0.01, seed=0, system="SparkMLlib-LDA"):
    """LDA the MLlib way: the driver holds the full word-topic matrix.

    Per iteration the driver broadcasts the dense ``n_topics x vocab``
    matrix and collects one dense count-delta matrix per executor — the
    same Gibbs statistics as the PS trainers (so convergence matches), with
    MLlib's driver-centric communication (so time does not).
    """
    from repro.common.rng import RngRegistry
    from repro.ml.lda import gibbs_sweep

    spark = ctx.spark
    cluster = ctx.cluster
    word_topic = np.zeros((n_topics, vocab_size))
    topic_totals = np.zeros(n_topics)
    matrix_bytes = n_topics * vocab_size * FLOAT_BYTES

    docs_rdd = spark.parallelize(list(enumerate(docs))).cache()
    state = {}

    def init_task(task_ctx, iterator):
        rng = RngRegistry(seed).get("lda-init-%d" % task_ctx.partition_id)
        local_docs = [np.asarray(w, dtype=np.int64) for _i, w in iterator]
        vocab = (
            sorted_unique(np.concatenate(local_docs))
            if local_docs else np.empty(0, dtype=np.int64)
        )
        word_positions = [np.searchsorted(vocab, words) for words in local_docs]
        doc_topic = np.zeros((len(local_docs), n_topics), dtype=np.int64)
        assignments = []
        delta = np.zeros((n_topics, vocab_size))
        delta_totals = np.zeros(n_topics)
        for doc_pos, words in enumerate(local_docs):
            z = rng.integers(n_topics, size=words.size)
            assignments.append(z)
            np.add.at(doc_topic[doc_pos], z, 1)
            np.add.at(delta, (z, words), 1)
            np.add.at(delta_totals, z, 1)
        state[task_ctx.partition_id] = {
            "docs": local_docs,
            "vocab": vocab,
            "word_positions": word_positions,
            "doc_topic": doc_topic,
            "assignments": assignments,
        }
        return (delta, delta_totals)

    for delta, delta_totals in docs_rdd.map_partitions_with_context(
        lambda c, it: [init_task(c, it)]
    ).collect():
        word_topic += delta
        topic_totals += delta_totals

    result = TrainResult(system=system, workload="lda-k%d" % n_topics)
    for iteration in range(n_iterations):
        broadcast = spark.broadcast(word_topic, nbytes=matrix_bytes)
        cluster.barrier([DRIVER] + cluster.executors)

        def sweep_task(task_ctx, iterator):
            for _ in iterator:
                pass
            local = state[task_ctx.partition_id]
            vocab = local["vocab"]
            if vocab.size == 0:
                return (np.zeros((n_topics, vocab_size)), np.zeros(n_topics),
                        0.0, 0)
            block = broadcast.value[:, vocab].astype(float)
            totals = topic_totals.copy()
            rng = RngRegistry(seed * 131 + iteration).get(
                "lda-%d" % task_ctx.partition_id
            )
            delta_block, delta_totals, loglik, n_tokens = gibbs_sweep(
                local, block, totals, vocab_size, alpha, beta, rng
            )
            task_ctx.charge_flops(6.0 * n_tokens * n_topics, tag="gibbs")
            delta = np.zeros((n_topics, vocab_size))
            delta[:, vocab] = delta_block
            return (delta, delta_totals, loglik, n_tokens)

        placed = spark.scheduler.run_stage(
            docs_rdd.map_partitions_with_context(
                lambda c, it: [sweep_task(c, it)]
            ),
            lambda c, it: next(iter(it)),
            tag="mllib-lda",
            gather_results=False,
        )
        total_ll = 0.0
        total_tokens = 0
        for executor, (delta, delta_totals, loglik, n_tokens) in placed:
            cluster.network.transfer(
                executor, DRIVER, matrix_bytes, tag="mllib-lda-aggregate"
            )
            word_topic += delta
            topic_totals += delta_totals
            total_ll += loglik
            total_tokens += n_tokens
        cluster.charge_flops(
            DRIVER, n_topics * vocab_size * len(placed), tag="mllib-lda-combine"
        )
        result.record(cluster.elapsed(), -total_ll / max(1, total_tokens))
        result.iterations = iteration + 1

    result.elapsed = cluster.elapsed()
    result.extras["word_topic"] = word_topic
    return result
