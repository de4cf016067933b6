"""LR/SVM trainer tests: convergence, options, statistical parity."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.data import sparse_classification
from repro.linalg.sparse import SparseBatch
from repro.ml.linear import train_linear_ps2
from repro.ml import losses
from repro.ml.lr import accuracy, train_logistic_regression
from repro.ml.optim import Adam, SGD
from repro.ml.svm import train_svm


@pytest.fixture(scope="module")
def small_data():
    rows, true_w = sparse_classification(400, 300, 12, seed=21)
    return rows, true_w


def test_lr_loss_decreases(make_ps2, small_data):
    rows, _ = small_data
    result = train_logistic_regression(
        make_ps2(), rows, 300, optimizer=Adam(learning_rate=0.2),
        n_iterations=25, batch_fraction=0.5, seed=21,
    )
    assert result.history[0][1] == pytest.approx(np.log(2), abs=1e-6)
    assert result.final_loss < 0.5 * result.history[0][1]


def test_lr_learns_signal(make_ps2, small_data):
    rows, _ = small_data
    result = train_logistic_regression(
        make_ps2(), rows, 300, optimizer=Adam(learning_rate=0.2),
        n_iterations=40, batch_fraction=0.5, seed=21,
    )
    weights = result.extras["weight"].materialize()
    assert accuracy(rows, weights) > 0.75
    _grad, loss_sum = losses.logistic_grad_dense(SparseBatch(rows), weights)
    assert loss_sum / len(rows) < 0.55


def test_lr_history_time_monotone(make_ps2, small_data):
    rows, _ = small_data
    result = train_logistic_regression(
        make_ps2(), rows, 300, optimizer="sgd", n_iterations=6,
        batch_fraction=0.3, seed=21,
    )
    times = [t for t, _l in result.history]
    assert times == sorted(times)
    assert result.iterations == 6
    assert result.elapsed >= times[-1]


def test_lr_target_loss_early_stop(make_ps2, small_data):
    rows, _ = small_data
    result = train_logistic_regression(
        make_ps2(), rows, 300, optimizer=Adam(learning_rate=0.2),
        n_iterations=100, batch_fraction=0.5, seed=21, target_loss=0.5,
    )
    assert result.iterations < 100
    assert result.final_loss <= 0.5
    assert result.time_to(0.5) is not None


def test_lr_checkpoint_every(make_ps2, small_data):
    rows, _ = small_data
    ctx = make_ps2()
    train_logistic_regression(
        ctx, rows, 300, optimizer="sgd", n_iterations=6,
        batch_fraction=0.3, seed=21, checkpoint_every=2,
    )
    assert ctx.metrics.counters.get("checkpoints", 0) > 0


def test_unknown_loss_rejected(make_ps2, small_data):
    rows, _ = small_data
    with pytest.raises(ConfigError):
        train_linear_ps2(make_ps2(), rows, 300, loss="poisson")


def test_optimizer_by_name(make_ps2, small_data):
    rows, _ = small_data
    result = train_logistic_regression(
        make_ps2(), rows, 300, optimizer="adagrad", n_iterations=3,
        batch_fraction=0.3, seed=21,
    )
    assert result.extras["optimizer"].name == "adagrad"


def test_svm_loss_decreases(make_ps2, small_data):
    rows, _ = small_data
    result = train_svm(
        make_ps2(), rows, 300, optimizer=SGD(learning_rate=0.05),
        n_iterations=30, batch_fraction=0.5, seed=21,
    )
    assert result.final_loss < result.history[0][1]
    weights = result.extras["weight"].materialize()
    assert accuracy(rows, weights) > 0.7


def test_lbfgs_full_batch_lr(make_ps2, small_data):
    rows, _ = small_data
    result = train_logistic_regression(
        make_ps2(), rows, 300, optimizer="lbfgs", n_iterations=12,
        batch_fraction=1.0, seed=21,
    )
    assert result.final_loss < 0.5


def test_identical_seeds_identical_runs(make_ps2, small_data):
    rows, _ = small_data

    def run():
        return train_logistic_regression(
            make_ps2(), rows, 300, optimizer="sgd", n_iterations=5,
            batch_fraction=0.3, seed=4,
        )

    a, b = run(), run()
    assert a.history == b.history


def test_different_server_counts_same_statistics(make_ps2, small_data):
    """Model math must not depend on the deployment shape."""
    rows, _ = small_data
    a = train_logistic_regression(
        make_ps2(n_servers=2), rows, 300, optimizer="sgd",
        n_iterations=5, batch_fraction=0.3, seed=4,
    )
    b = train_logistic_regression(
        make_ps2(n_servers=7), rows, 300, optimizer="sgd",
        n_iterations=5, batch_fraction=0.3, seed=4,
    )
    for (_ta, la), (_tb, lb) in zip(a.history, b.history):
        assert la == pytest.approx(lb, rel=1e-9)


def test_train_result_helpers():
    from repro.ml.results import TrainResult, speedup

    r = TrainResult(system="x", workload="y")
    assert r.final_loss is None
    assert r.best_loss() is None
    r.record(1.0, 0.9)
    r.record(2.0, 0.4)
    assert r.time_to(0.5) == 2.0
    assert r.time_to(0.1) is None
    assert r.best_loss() == 0.4

    s = TrainResult(system="s", workload="y")
    s.record(4.0, 0.4)
    assert speedup(s, r, 0.5) == pytest.approx(2.0)
    assert speedup(r, s, 0.01) is None
