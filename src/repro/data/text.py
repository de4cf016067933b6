"""Synthetic corpora for the LDA workloads (PubMED / App analogues).

Documents are drawn from a ground-truth LDA model: per-document topic
mixtures from a Dirichlet, per-topic word distributions from a Dirichlet
over the vocabulary.  A Gibbs sampler trained on this data genuinely
recovers topic structure, so likelihood curves are meaningful.
"""

from __future__ import annotations

import numpy as np

from repro.common.rng import RngRegistry
from repro.linalg.sparse import sorted_unique


def synthetic_corpus(n_docs, vocab_size, n_topics=10, doc_length=50,
                     alpha=0.5, beta=0.01, seed=0):
    """Generate documents as arrays of word ids.

    Returns ``(docs, topic_word)`` where ``docs`` is a list of int arrays
    and ``topic_word`` the ground-truth ``n_topics x vocab_size`` word
    distributions (for diagnostics).
    """
    rng = RngRegistry(seed).get("corpus")
    topic_word = rng.dirichlet([beta] * vocab_size, size=n_topics)
    docs = []
    for _ in range(n_docs):
        theta = rng.dirichlet([alpha] * n_topics)
        topics = rng.choice(n_topics, size=doc_length, p=theta)
        words = np.empty(doc_length, dtype=np.int64)
        for topic in sorted_unique(topics):
            mask = topics == topic
            words[mask] = rng.choice(
                vocab_size, size=int(mask.sum()), p=topic_word[topic]
            )
        docs.append(words)
    return docs, topic_word
