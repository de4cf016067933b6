"""Integration tests: end-to-end orderings the paper's figures assert.

These are scaled-down versions of the benchmark experiments, kept fast
enough for the regular test suite; the full parameter sweeps live under
``benchmarks/``.
"""

import pytest

from repro.baselines import (
    train_lr_mllib,
    train_lr_petuum,
    train_lr_ps_pushpull,
)
from repro.costs import FIG13_NODE_FLOPS
from repro.data import sparse_classification
from repro.experiments import make_context
from repro.ml import train_logistic_regression


@pytest.fixture(scope="module")
def medium_lr():
    rows, _ = sparse_classification(600, 40000, 20, seed=55)
    return rows


KW = dict(n_iterations=5, batch_fraction=0.1, seed=55)


def test_figure9_ordering_ps2_ps_spark(medium_lr):
    """Figure 9(a): PS2-Adam < PS-Adam < Spark-Adam in time-to-loss."""
    ps2 = train_logistic_regression(
        make_context(seed=55), medium_lr, 40000, optimizer="adam", **KW
    )
    ps = train_lr_ps_pushpull(
        make_context(seed=55), medium_lr, 40000, optimizer="adam", **KW
    )
    spark = train_lr_mllib(
        make_context(seed=55), medium_lr, 40000, optimizer="adam", **KW
    )
    assert ps2.elapsed < ps.elapsed < spark.elapsed
    # identical statistics throughout
    assert ps2.final_loss == pytest.approx(ps.final_loss)
    assert ps2.final_loss == pytest.approx(spark.final_loss)


def test_figure10_ordering_ps2_petuum_mllib(medium_lr):
    """Figure 10: PS2 < Petuum < MLlib on LR with SGD."""
    ps2 = train_logistic_regression(
        make_context(seed=55), medium_lr, 40000, optimizer="sgd", **KW
    )
    petuum = train_lr_petuum(make_context(seed=55), medium_lr, 40000, **KW)
    mllib = train_lr_mllib(
        make_context(seed=55), medium_lr, 40000, optimizer="sgd", **KW
    )
    assert ps2.elapsed < petuum.elapsed < mllib.elapsed


def test_figure13a_more_resources_go_faster():
    """Figure 13(a): doubling workers+servers speeds PS2 up.

    CPUs are derated so per-worker compute is non-trivial relative to the
    fixed task overhead, restoring the paper's compute:overhead ratio
    (:data:`repro.costs.FIG13_NODE_FLOPS`).
    """
    rows, _ = sparse_classification(4000, 40000, 25, seed=55)

    def run(n_executors, n_servers):
        return train_logistic_regression(
            make_context(n_executors=n_executors, n_servers=n_servers,
                         seed=55, node_flops=FIG13_NODE_FLOPS),
            rows, 40000, optimizer="sgd", n_iterations=5,
            batch_fraction=0.5, seed=55,
        )

    base = run(5, 5)
    more_workers = run(10, 5)
    more_both = run(10, 10)
    assert more_workers.elapsed < base.elapsed
    assert more_both.elapsed < more_workers.elapsed


def test_figure13b_model_size_scaling():
    """Figure 13(b): PS2's per-iteration time grows far slower than MLlib's."""
    def per_iter(dim, trainer, **kwargs):
        rows, _ = sparse_classification(200, dim, 10, seed=3)
        result = trainer(make_context(seed=3), rows, dim,
                         n_iterations=3, batch_fraction=0.3, seed=3, **kwargs)
        return result.elapsed / 3

    small_d, big_d = 4000, 120000
    mllib_growth = (per_iter(big_d, train_lr_mllib, optimizer="sgd")
                    / per_iter(small_d, train_lr_mllib, optimizer="sgd"))
    ps2_growth = (per_iter(big_d, train_logistic_regression, optimizer="sgd")
                  / per_iter(small_d, train_logistic_regression,
                             optimizer="sgd"))
    assert mllib_growth > 2 * ps2_growth


def test_figure13c_failures_same_solution_more_time(medium_lr):
    """Figure 13(c): task failures cost time, never correctness."""
    clean = train_logistic_regression(
        make_context(seed=55, task_failure_prob=0.0), medium_lr, 40000,
        optimizer="sgd", **KW
    )
    faulty = train_logistic_regression(
        make_context(seed=55, task_failure_prob=0.15), medium_lr, 40000,
        optimizer="sgd", **KW
    )
    assert faulty.elapsed > clean.elapsed
    for (_ta, la), (_tb, lb) in zip(clean.history, faulty.history):
        assert la == pytest.approx(lb, rel=1e-9)


def test_server_failure_mid_training_recovers(medium_lr):
    """A server crash between iterations recovers from checkpoints and the
    job completes (Section 5.3's server-failure story)."""
    ctx = make_context(seed=55)
    rows = medium_lr

    # Train a bit, checkpoint, then crash a server; training continues.
    result_a = train_logistic_regression(
        ctx, rows, 40000, optimizer="sgd", n_iterations=2,
        batch_fraction=0.1, seed=55, checkpoint_every=1,
    )
    ctx.master.server(2).crash()
    weight = result_a.extras["weight"]
    pulled = weight.pull()  # transparent recovery
    assert pulled.shape == (40000,)
    assert ctx.metrics.counters.get("recoveries", 0) == 1
