"""The paper's three code listings (Figures 3, 6 and 8), line for line.

The Scala snippets in the paper translate almost token-for-token onto this
package's Python API.  Each section below quotes the paper's listing in a
comment and runs the translation on a small simulated cluster.

Run:  python examples/paper_listings.py
"""

import numpy as np

from repro.common.rng import RngRegistry
from repro.core import kernels
from repro.data import preferential_attachment_graph, random_walks, \
    skipgram_pairs, sparse_classification
from repro.experiments import make_context
from repro.linalg.sparse import SparseBatch
from repro.ml import losses
from repro.ml.losses import sigmoid


def figure3_adam_for_lr():
    """Figure 3: "Adam for LR" — the paper's flagship listing.

    Scala:
        val weight   = DCV.dense(dim, 4)
        val velocity = DCV.derive(weight).fill(0.0)
        val square   = DCV.derive(weight).fill(0.0)
        val gradient = DCV.derive(weight)
        for (i <- 0 until numIterations) {
          gradient.zero()
          data.sample(fraction).mapPartition { case iterator =>
            val local_weight   = weight.pull()
            val local_gradient = calculateGradient(local_weight, iterator)
            gradient.add(local_gradient)
          }.foreach()
          weight.zip(velocity, square, gradient).mapPartition {
            case (w, v, s, g) => updateModel(w, v, s, g)
          }
        }
    """
    print("— Figure 3: Adam for LR " + "-" * 40)
    ctx = make_context(n_executors=4, n_servers=4, seed=1)
    rows, _ = sparse_classification(400, 2000, 12, seed=1)
    data = ctx.parallelize(rows).cache()
    dim, num_iterations, fraction = 2000, 10, 0.5

    weight = ctx.dense(dim, 4)                      # DCV.dense(dim, 4)
    velocity = weight.derive().fill(0.0)            # DCV.derive(weight).fill(0.0)
    square = weight.derive().fill(0.0)
    gradient = weight.derive()

    for i in range(num_iterations):
        gradient.zero()

        def map_partition(ctx_task, iterator):      # mapPartition { ... }
            rows = list(iterator)
            batch = SparseBatch(rows)
            local_weight = weight.pull(indices=batch.union, task_ctx=ctx_task)
            local_gradient, loss = losses.logistic_grad_batch(
                batch, local_weight
            )
            gradient.add(local_gradient / max(1, len(rows)),
                         indices=batch.union, task_ctx=ctx_task)
            return [loss / max(1, len(rows))]

        batch_losses = data.sample(fraction, seed=i) \
            .map_partitions_with_context(map_partition).collect()  # .foreach()

        # Server-side computation among the four co-located DCVs:
        weight.zip(velocity, square, gradient).map_partitions(
            kernels.adam_update_kernel,
            args=dict(lr=0.2, beta1=0.9, beta2=0.999, eps=1e-8, step=i + 1),
            wait=False,
        )
        if i % 3 == 0:
            print("  iter %2d  mean batch loss %.4f"
                  % (i, float(np.mean(batch_losses))))


def figure6_graph_embedding():
    """Figure 6: the graph-embedding (DeepWalk) listing.

    Scala:
        val first = DCV.dense(K, V*2)
        val embeddings = new Array[DCV](V*2)
        embeddings(0) = first
        for (i <- 1 until V*2) embeddings(i) = DCV.duplicate(u)
        data.map { case (u, v) =>
          val dot = input_u.dot(output_v)
          val sig = 1 - sigmoid(dot)
          input_u.iaxpy(output_v, sig*eta)
          output_v.iaxpy(input_u, sig*eta)
          calculateLoss(dot)
        }.sum()
    """
    print("— Figure 6: Graph Embedding " + "-" * 36)
    ctx = make_context(n_executors=4, n_servers=2, seed=2)
    adjacency = preferential_attachment_graph(30, seed=2)
    walks = random_walks(adjacency, 60, seed=2)
    pairs = skipgram_pairs(walks, window=4)[:200]
    V, K, eta = 30, 16, 0.2

    first = ctx.dense(K, V * 2, init="uniform", scale=0.1)
    embeddings = [first]
    for _i in range(1, V * 2):
        embeddings.append(first.duplicate())        # DCV.duplicate

    data = ctx.parallelize(pairs)

    def update(ctx_task, iterator):
        total = 0.0
        for u, v in iterator:
            input_u = embeddings[u]
            output_v = embeddings[v + V]
            dot = input_u.dot(output_v, task_ctx=ctx_task)
            sig = 1 - float(sigmoid(np.asarray(dot)))
            input_u.iaxpy(output_v, sig * eta, task_ctx=ctx_task)
            output_v.iaxpy(input_u, sig * eta, task_ctx=ctx_task)
            total += -np.log(max(1e-9, 1 - sig))    # calculateLoss(dot)
        return [total]

    loss = sum(data.map_partitions_with_context(update).collect())
    print("  %d pairs trained; summed loss %.3f; only scalars crossed "
          "the wire" % (len(pairs), loss))


def figure8_gbdt_histograms():
    """Figure 8: the GBDT histogram listing.

    Scala:
        val gradHist = DCV.dense(dim, 2).fill(0.0)
        val hessHist = DCV.derive(gradHist).fill(0.0)
        ...
        data.mapPartition { case iterator =>
          gradHist.add(buildGrad(iterator))
          hessHist.add(buildHess(iterator))
        }.foreach()
        val maxGain = gradHist.zip(hessHist).mapPartition {
          case (grad, hess) => computeInfoGain(grad, hess)
        }.max()
    """
    print("— Figure 8: GBDT split finding " + "-" * 33)
    ctx = make_context(n_executors=4, n_servers=4, seed=3)
    rng = RngRegistry(3).get("fig8")
    n_bins, n_features = 8, 5
    dim = n_bins * n_features

    grad_hist = ctx.dense(dim, 2, block=n_bins).fill(0.0)
    hess_hist = grad_hist.derive().fill(0.0)

    samples = list(range(400))
    data = ctx.parallelize(samples)

    def map_partition(ctx_task, iterator):
        count = sum(1 for _ in iterator)
        local_grad = rng.standard_normal(dim) * count / 100
        local_hess = np.abs(rng.standard_normal(dim)) * count / 100
        grad_hist.add(local_grad, task_ctx=ctx_task)   # gradHist.add(...)
        hess_hist.add(local_hess, task_ctx=ctx_task)
        return [count]

    data.map_partitions_with_context(map_partition).collect()  # .foreach()

    total_grad = grad_hist.sum()
    total_hess = hess_hist.sum()
    partials = grad_hist.zip(hess_hist).map_partitions(   # zip(...).max()
        kernels.split_gain_kernel,
        args=dict(n_bins=n_bins, parent_grad=total_grad,
                  parent_hess=total_hess, reg_lambda=1.0),
        n_response_scalars=5,
    )
    max_gain = partials.max()
    print("  best split: gain %.4f at feature %d, bin %d "
          "(found server-side)" % (max_gain[0], max_gain[1], max_gain[2]))


def main():
    figure3_adam_for_lr()
    figure6_graph_embedding()
    figure8_gbdt_histograms()


if __name__ == "__main__":
    main()
