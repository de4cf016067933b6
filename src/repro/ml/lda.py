"""Latent Dirichlet Allocation on PS2 via collapsed Gibbs sampling.

The word-topic count matrix (``n_topics x vocab``) lives on the parameter
servers as one DCV pool (column-partitioned over the vocabulary); the small
topic-totals vector is a separate DCV.  Per iteration every worker:

1. pulls the word-topic **block for its local vocabulary only** — the sparse
   communication PS2 credits for beating Petuum — with counts encoded as
   32-bit integers (the "message compression technique" of Section 6.3.3);
2. runs a collapsed Gibbs sweep over its tokens against local copies;
3. pushes the count deltas back (same sparse/compressed encoding).

``comm`` selects the communication discipline and is how the baselines
reuse this trainer:

- ``"ps2"``     — sparse block pulls/pushes, 4-byte values;
- ``"petuum"``  — dense pulls/pushes of the full vocabulary, 8-byte values;
- ``"glint"``   — dense, 8-byte, and pulls the model **twice** per sweep
  (the asynchronous refresh Glint performs mid-iteration).

Hyperparameters default to Table 4: alpha = 0.5, beta = 0.01.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import RngRegistry
from repro.linalg.sparse import sorted_unique
from repro.ml.results import TrainResult

_COMM_MODES = {
    "ps2": {"sparse": True, "value_bytes": 4, "pulls_per_iter": 1},
    "petuum": {"sparse": False, "value_bytes": 8, "pulls_per_iter": 1},
    "glint": {"sparse": False, "value_bytes": 8, "pulls_per_iter": 2},
}


def gibbs_sweep(state, word_topic_block, topic_totals, vocab_size, alpha,
                beta, rng):
    """One collapsed Gibbs pass over a worker's local tokens.

    ``state`` holds per-partition arrays (docs, assignments, doc_topic);
    ``word_topic_block`` is the ``n_topics x n_local_words`` count block
    (mutated locally as a working copy) and ``topic_totals`` the global
    topic counts (also a working copy).  Returns ``(delta_block,
    delta_totals, loglik, n_tokens)`` where the deltas are what must be
    pushed back to the servers.
    """
    n_topics = word_topic_block.shape[0]
    delta_block = np.zeros_like(word_topic_block)
    delta_totals = np.zeros(n_topics)
    beta_sum = vocab_size * beta
    loglik = 0.0
    n_tokens = 0

    for doc_pos, (words, local_word_pos) in enumerate(
        zip(state["docs"], state["word_positions"])
    ):
        doc_topic = state["doc_topic"][doc_pos]
        assignments = state["assignments"][doc_pos]
        doc_len = words.size
        for token_pos in range(doc_len):
            w_pos = local_word_pos[token_pos]
            old_topic = assignments[token_pos]
            # Remove the token's current assignment.
            doc_topic[old_topic] -= 1
            word_topic_block[old_topic, w_pos] -= 1
            topic_totals[old_topic] -= 1
            delta_block[old_topic, w_pos] -= 1
            delta_totals[old_topic] -= 1

            word_counts = word_topic_block[:, w_pos]
            probs = (doc_topic + alpha) * (word_counts + beta) / (
                topic_totals + beta_sum
            )
            cumulative = np.cumsum(probs)
            total = cumulative[-1]
            new_topic = int(
                np.searchsorted(cumulative, rng.random() * total)
            )
            new_topic = min(new_topic, n_topics - 1)

            doc_topic[new_topic] += 1
            word_topic_block[new_topic, w_pos] += 1
            topic_totals[new_topic] += 1
            delta_block[new_topic, w_pos] += 1
            delta_totals[new_topic] += 1
            assignments[token_pos] = new_topic

            # Per-token predictive log-likelihood under the current state.
            theta_phi = total / (doc_len - 1 + n_topics * alpha)
            loglik += math.log(max(theta_phi, 1e-300))
            n_tokens += 1
    return delta_block, delta_totals, loglik, n_tokens


def train_lda(ctx, docs, vocab_size, n_topics=20, n_iterations=10, alpha=0.5,
              beta=0.01, seed=0, comm="ps2", system=None):
    """Train LDA on the simulated cluster; returns a :class:`TrainResult`.

    History records ``(virtual_seconds, -mean_token_loglik)`` per iteration
    (lower is better, as in Figure 12's convergence curves).  Extras hold
    the final word-topic matrix (pulled once at the end, charged).
    """
    if comm not in _COMM_MODES:
        raise ConfigError("comm must be one of %s" % sorted(_COMM_MODES))
    mode = _COMM_MODES[comm]
    if system is None:
        system = {"ps2": "PS2-LDA", "petuum": "Petuum-LDA",
                  "glint": "Glint-LDA"}[comm]

    word_topic = ctx.dense(vocab_size, rows=n_topics, name="word_topic",
                           allow_growth=False)
    topic_rows = list(range(n_topics))
    matrix_id = word_topic.matrix_id
    totals_dcv = ctx.dense(n_topics, name="topic_totals")

    docs_rdd = ctx.parallelize(list(enumerate(docs))).cache()
    state = {}

    # -- initialization: random topic assignments, counts pushed once --------
    def init_task(task_ctx, iterator):
        rng = RngRegistry(seed).get("lda-init-%d" % task_ctx.partition_id)
        local_docs = []
        for _doc_id, words in iterator:
            local_docs.append(np.asarray(words, dtype=np.int64))
        vocab = (
            sorted_unique(np.concatenate(local_docs))
            if local_docs else np.empty(0, dtype=np.int64)
        )
        word_positions = [np.searchsorted(vocab, words) for words in local_docs]
        doc_topic = np.zeros((len(local_docs), n_topics), dtype=np.int64)
        assignments = []
        delta_block = np.zeros((n_topics, vocab.size))
        delta_totals = np.zeros(n_topics)
        for doc_pos, words in enumerate(local_docs):
            z = rng.integers(n_topics, size=words.size)
            assignments.append(z)
            np.add.at(doc_topic[doc_pos], z, 1)
            np.add.at(delta_block, (z, word_positions[doc_pos]), 1)
            np.add.at(delta_totals, z, 1)
        state[task_ctx.partition_id] = {
            "docs": local_docs,
            "vocab": vocab,
            "word_positions": word_positions,
            "doc_topic": doc_topic,
            "assignments": assignments,
        }
        client = ctx.client_for(task_ctx.executor)
        if vocab.size:
            task_ctx.defer(
                lambda: client.push_block_add(
                    matrix_id, topic_rows, delta_block, indices=vocab,
                    value_bytes=mode["value_bytes"],
                )
            )
        totals_dcv.add(delta_totals, task_ctx=task_ctx)
        task_ctx.charge_flops(4.0 * sum(d.size for d in local_docs), tag="lda-init")
        return sum(d.size for d in local_docs)

    docs_rdd.map_partitions_with_context(
        lambda c, it: [init_task(c, it)]
    ).collect()

    result = TrainResult(system=system, workload="lda-k%d" % n_topics)
    for iteration in range(n_iterations):

        def sweep_task(task_ctx, iterator):
            for _ in iterator:
                pass
            local = state[task_ctx.partition_id]
            vocab = local["vocab"]
            if vocab.size == 0:
                return (0.0, 0)
            client = ctx.client_for(task_ctx.executor)
            pull_indices = vocab if mode["sparse"] else None
            for _ in range(mode["pulls_per_iter"]):
                block = client.pull_block(
                    matrix_id, topic_rows, indices=pull_indices,
                    value_bytes=mode["value_bytes"],
                )
            if not mode["sparse"]:
                block = block[:, vocab]
            totals = totals_dcv.pull(task_ctx=task_ctx)
            rng = RngRegistry(seed * 131 + iteration).get(
                "lda-%d" % task_ctx.partition_id
            )
            delta_block, delta_totals, loglik, n_tokens = gibbs_sweep(
                local, block, totals, vocab_size, alpha, beta, rng
            )
            task_ctx.charge_flops(6.0 * n_tokens * n_topics, tag="gibbs")
            if mode["sparse"]:
                push_block, push_indices = delta_block, vocab
            else:
                push_block = np.zeros((n_topics, vocab_size))
                push_block[:, vocab] = delta_block
                push_indices = None
            task_ctx.defer(
                lambda: client.push_block_add(
                    matrix_id, topic_rows, push_block, indices=push_indices,
                    value_bytes=mode["value_bytes"],
                )
            )
            totals_dcv.add(delta_totals, task_ctx=task_ctx)
            return (loglik, n_tokens)

        stats = docs_rdd.map_partitions_with_context(
            lambda c, it: [sweep_task(c, it)]
        ).collect()
        total_ll = sum(s[0] for s in stats)
        total_tokens = sum(s[1] for s in stats)
        result.record(ctx.elapsed(), -total_ll / max(1, total_tokens))
        result.iterations = iteration + 1

    result.elapsed = ctx.elapsed()
    result.extras["word_topic_dcv"] = word_topic
    result.extras["matrix_id"] = matrix_id
    result.extras["n_topics"] = n_topics
    return result
