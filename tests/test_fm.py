"""Factorization Machine tests: math against a numpy reference, training."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.rng import RngRegistry
from repro.linalg.sparse import SparseBatch, SparseRow
from repro.ml.fm import FMModel, _batch_gradients, _sample_margin, train_fm


def make_interaction_data(n_rows=300, dim=120, nnz=6, seed=9):
    """Labels carry genuine second-order structure (feature co-occurrence)."""
    rng = RngRegistry(seed).get("fm-data")
    rows = []
    for _ in range(n_rows):
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        score = (np.sum(idx < 15) >= 2) * 2.0 - 1.0
        score += rng.standard_normal() * 0.3
        rows.append(SparseRow(idx, np.ones(nnz), 1.0 if score > 0 else 0.0))
    return rows


def _reference_margin(w0, w, V, row):
    """Textbook FM formula, O(nnz^2) pairwise form."""
    x = row.to_dense(w.size)
    linear = w0 + float(np.dot(w, x))
    interaction = 0.0
    nz = np.nonzero(x)[0]
    for a in range(len(nz)):
        for b in range(a + 1, len(nz)):
            i, j = nz[a], nz[b]
            interaction += float(np.dot(V[:, i], V[:, j])) * x[i] * x[j]
    return linear + interaction


def test_sample_margin_matches_pairwise_formula():
    rng = np.random.default_rng(2)
    dim, k = 30, 4
    w = rng.standard_normal(dim) * 0.1
    V = rng.standard_normal((k, dim)) * 0.1
    row = SparseRow(np.array([2, 7, 11, 29]),
                    rng.standard_normal(4), 1.0)
    union = row.indices
    block = np.vstack([w[union], V[:, union]])
    positions = np.arange(4)
    fast = _sample_margin(block, positions, row.values, 0.3)
    slow = _reference_margin(0.3, w, V, row)
    assert fast == pytest.approx(slow)


def test_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    dim, k = 25, 3
    rows = make_interaction_data(n_rows=5, dim=dim, nnz=4, seed=4)
    batch = SparseBatch(rows)
    block = rng.standard_normal((k + 1, batch.union.size)) * 0.1
    bias = 0.1

    grad_block, grad_bias, loss = _batch_gradients(block, batch, bias)
    eps = 1e-6
    # bias gradient
    _g, _b, loss_up = _batch_gradients(block, batch, bias + eps)
    assert (loss_up - loss) / eps == pytest.approx(grad_bias, abs=1e-3)
    # a few block coordinates
    for r, c in [(0, 0), (1, 2), (k, batch.union.size - 1)]:
        bumped = block.copy()
        bumped[r, c] += eps
        _g, _b, loss_up = _batch_gradients(bumped, batch, bias)
        numeric = (loss_up - loss) / eps
        assert numeric == pytest.approx(grad_block[r, c], abs=1e-3)


def test_fm_model_parameters_colocated(make_ps2):
    ps2 = make_ps2()
    model = FMModel(ps2, 50, 4)
    for factor in model.factors + [model.weight_grad] + model.factor_grads:
        assert model.weight.is_colocated_with(factor)
    assert len(model.parameter_rows()) == 5
    assert len(set(model.parameter_rows() + model.gradient_rows())) == 10


def test_fm_rejects_zero_factors(make_ps2):
    with pytest.raises(ConfigError):
        FMModel(make_ps2(), 10, 0)


def test_fm_training_decreases_loss(make_ps2):
    rows = make_interaction_data(seed=9)
    result = train_fm(make_ps2(), rows, 120, n_factors=4, learning_rate=0.1,
                      n_iterations=20, batch_fraction=0.5, seed=9)
    assert result.history[0][1] == pytest.approx(np.log(2), abs=1e-2)
    assert result.final_loss < 0.9 * result.history[0][1]


def test_fm_beats_chance_on_interaction_data(make_ps2):
    rows = make_interaction_data(seed=9)
    result = train_fm(make_ps2(), rows, 120, n_factors=4, learning_rate=0.1,
                      n_iterations=30, batch_fraction=0.5, seed=9)
    model = result.extras["model"]
    probs = model.predict_proba(rows)
    labels = np.array([r.label for r in rows])
    acc = float(np.mean((probs > 0.5) == (labels > 0.5)))
    assert acc > 0.7


def test_fm_deterministic(make_ps2):
    rows = make_interaction_data(seed=9)

    def run():
        return train_fm(make_ps2(), rows, 120, n_factors=3,
                        n_iterations=4, batch_fraction=0.5, seed=5).history

    assert run() == run()


def test_fm_target_loss_stops(make_ps2):
    rows = make_interaction_data(seed=9)
    result = train_fm(make_ps2(), rows, 120, n_factors=4, learning_rate=0.2,
                      n_iterations=200, batch_fraction=0.5, seed=9,
                      target_loss=0.6)
    assert result.iterations < 200
    assert result.final_loss <= 0.6


def test_fm_pushes_are_stage_deferred(make_ps2):
    """Gradient block pushes land only at the barrier, like LR's."""
    ps2 = make_ps2()
    rows = make_interaction_data(n_rows=40, seed=9)
    result = train_fm(ps2, rows, 120, n_factors=2, n_iterations=2,
                      batch_fraction=1.0, seed=9)
    assert ps2.metrics.messages_by_tag["push-block:req"] > 0
    assert result.iterations == 2
