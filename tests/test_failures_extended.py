"""Executor failure recovery and histogram-subtraction equivalence tests."""

import numpy as np
import pytest

from repro.common.errors import ClusterError, JobAbortedError
from repro.data import dense_tabular, sparse_classification
from repro.ml import train_gbdt, train_logistic_regression
from repro.ml.gbdt import _SubtractionHistExchange


# -- executor failure (Section 5.3, "Executor Failure") -------------------------

def test_fail_executor_redistributes_partitions(make_ps2):
    ps2 = make_ps2(n_executors=4)
    data = ps2.parallelize(range(100))
    assert data.sum() == 4950.0
    ps2.cluster.fail_executor("executor-1")
    assert ps2.cluster.alive_executors == \
        ["executor-0", "executor-2", "executor-3"]
    # The job still completes, with the dead executor's partitions moved.
    assert data.sum() == 4950.0
    assert ps2.metrics.counters["partition-reloads"] > 0


def test_executor_recovery_charges_input_reload(make_ps2):
    ps2 = make_ps2(n_executors=4)
    data = ps2.parallelize([np.zeros(1000)] * 8, n_partitions=4)
    data.count()
    before = ps2.metrics.bytes_for_tag("executor-recovery")
    ps2.cluster.fail_executor("executor-2")
    data.count()
    moved = ps2.metrics.bytes_for_tag("executor-recovery") - before
    # Partition 2 held two 8KB arrays; its reload ships them again.
    assert moved >= 16000


def test_fail_non_executor_rejected(make_ps2):
    ps2 = make_ps2()
    with pytest.raises(ClusterError):
        ps2.cluster.fail_executor("server-0")
    with pytest.raises(ClusterError):
        ps2.cluster.fail_executor("driver")


def test_all_executors_dead_aborts(make_ps2):
    ps2 = make_ps2(n_executors=2)
    data = ps2.parallelize(range(4))
    ps2.cluster.fail_executor("executor-0")
    ps2.cluster.fail_executor("executor-1")
    with pytest.raises(JobAbortedError):
        data.count()


def test_training_survives_executor_failure_mid_run(make_ps2):
    """Kill an executor between LR iterations; training completes and the
    statistics are unchanged (data is reloaded, not lost)."""
    rows, _ = sparse_classification(200, 1000, 10, seed=41)

    reference = train_logistic_regression(
        make_ps2(), rows, 1000, optimizer="sgd", n_iterations=6,
        batch_fraction=0.5, seed=41,
    )

    ps2 = make_ps2()
    first = train_logistic_regression(
        ps2, rows, 1000, optimizer="sgd", n_iterations=3,
        batch_fraction=0.5, seed=41,
    )
    assert first.iterations == 3
    ps2.cluster.fail_executor("executor-3")
    # Continue on the same cluster: a fresh run converges fine with 3 nodes.
    cont = train_logistic_regression(
        ps2, rows, 1000, optimizer="sgd", n_iterations=3,
        batch_fraction=0.5, seed=41,
    )
    assert cont.iterations == 3
    assert reference.final_loss < np.log(2)


# -- GBDT histogram subtraction ----------------------------------------------------

@pytest.fixture(scope="module")
def tabular():
    return dense_tabular(400, 8, seed=37, noise=0.05)


def test_subtraction_matches_plain_trees(make_ps2, tabular):
    X, y = tabular
    kwargs = dict(n_trees=4, max_depth=3, n_bins=8, seed=3)
    plain = train_gbdt(make_ps2(), X, y, method="ps2", **kwargs)
    subtracted = train_gbdt(make_ps2(), X, y, method="ps2",
                            hist_subtraction=True, **kwargs)
    # Exact in exact arithmetic; float reassociation (parent-sum minus
    # child-sum vs direct build) can flip near-tie splits, so compare
    # trajectories with tolerance.
    for (_ta, la), (_tb, lb) in zip(plain.history, subtracted.history):
        assert la == pytest.approx(lb, rel=5e-3)


def test_subtraction_reduces_histogram_traffic(make_ps2, tabular):
    X, y = tabular
    kwargs = dict(n_trees=3, max_depth=4, n_bins=16, seed=3)
    ctx_plain = make_ps2()
    plain = train_gbdt(ctx_plain, X, y, method="ps2", **kwargs)
    ctx_sub = make_ps2()
    subtracted = train_gbdt(ctx_sub, X, y, method="ps2",
                            hist_subtraction=True, **kwargs)
    plain_push = ctx_plain.metrics.bytes_for_tag("push:req")
    sub_push = ctx_sub.metrics.bytes_for_tag("push:req")
    assert sub_push < 0.8 * plain_push
    assert subtracted.elapsed < plain.elapsed


def test_subtraction_requires_ps2_method(make_ps2, tabular):
    from repro.common.errors import ConfigError

    X, y = tabular
    with pytest.raises(ConfigError):
        train_gbdt(make_ps2(), X, y, method="allreduce",
                   hist_subtraction=True)


def test_subtraction_frees_node_histograms_between_trees(make_ps2, tabular):
    X, y = tabular
    ps2 = make_ps2()
    result = train_gbdt(ps2, X, y, n_trees=3, max_depth=3, n_bins=8,
                        method="ps2", hist_subtraction=True, seed=3)
    assert result.iterations == 3
    # The exchange holds only the last tree's leftovers; pools were recycled
    # rather than growing 2 rows per node per tree.
    model = result.extras["model"]
    assert len(model.trees) == 3


def test_subtraction_exchange_start_tree_resets(make_ps2):
    ps2 = make_ps2()
    anchor = ps2.dense(16, rows=4, block=4)
    exchange = _SubtractionHistExchange(ps2, anchor, 16, 4, 1.0, 1e-6)
    grad = anchor.derive()
    hess = anchor.derive()
    exchange.hists[0] = (grad, hess)
    exchange.start_tree()
    assert exchange.hists == {}
