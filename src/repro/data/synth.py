"""Seeded synthetic dataset generators.

The paper's datasets (KDDB, KDD12, CTR, PubMED, App, Gender, Graph1/2) are
either proprietary or far beyond laptop scale; each generator here produces
a scaled analogue preserving the property the experiments exercise — the
rows : features : nnz aspect ratio for classification, topic structure for
LDA corpora, and degree-skewed connectivity for graphs.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import RngRegistry
from repro.linalg.sparse import SparseRow, sorted_unique


def sparse_classification(n_rows, dim, nnz_per_row, seed=0, weight_sparsity=0.2,
                          noise=0.1):
    """Sparse binary-classification data with a planted linear separator.

    Feature indices follow a Zipf-ish skew (low indices more frequent, as in
    real CTR data); labels come from a logistic model over a planted weight
    vector with *weight_sparsity* fraction of active coordinates, flipped
    with probability *noise*.

    Returns ``(rows, true_weights)`` where ``rows`` is a list of
    :class:`SparseRow`.
    """
    if nnz_per_row > dim:
        raise ConfigError("nnz_per_row %d exceeds dim %d" % (nnz_per_row, dim))
    rng = RngRegistry(seed).get("sparse-classification")
    n_active = max(1, int(dim * weight_sparsity))
    true_weights = np.zeros(dim)
    active = rng.choice(dim, size=n_active, replace=False)
    true_weights[active] = rng.standard_normal(n_active)

    # Skewed index popularity: sample via a power transform of uniforms.
    def draw_indices():
        u = rng.random(nnz_per_row * 2)
        idx = sorted_unique((dim * u**2.0).astype(np.int64).clip(0, dim - 1))
        if idx.size > nnz_per_row:
            idx = rng.choice(idx, size=nnz_per_row, replace=False)
            idx.sort()
        return idx

    rows = []
    for _ in range(n_rows):
        indices = draw_indices()
        values = rng.standard_normal(indices.size) * 0.5 + 1.0
        margin = float(np.dot(true_weights[indices], values))
        prob = 1.0 / (1.0 + np.exp(-margin))
        label = 1.0 if rng.random() < prob else 0.0
        if rng.random() < noise:
            label = 1.0 - label
        rows.append(SparseRow(indices, values, label))
    return rows, true_weights


def dense_tabular(n_rows, n_features, seed=0, noise=0.1):
    """Dense tabular data with tree-friendly (axis-aligned) structure.

    Labels are produced by a random depth-3 decision list over feature
    thresholds, so gradient-boosted trees can genuinely fit it.  Returns
    ``(features, labels)`` as float arrays.
    """
    rng = RngRegistry(seed).get("dense-tabular")
    features = rng.random((n_rows, n_features))
    f1, f2, f3 = rng.choice(n_features, size=3, replace=False)
    t1, t2, t3 = rng.random(3) * 0.6 + 0.2
    labels = np.where(
        features[:, f1] > t1,
        np.where(features[:, f2] > t2, 1.0, 0.0),
        np.where(features[:, f3] > t3, 1.0, 0.0),
    )
    flip = rng.random(n_rows) < noise
    labels = np.where(flip, 1.0 - labels, labels)
    return features, labels
