"""Tests for the experiment harness: Table 3 registry and reporting."""

import dataclasses

import pytest

from repro.config import ClusterConfig, ElasticitySpec, FailureConfig, \
    NetworkSpec, NodeSpec
from repro.experiments import (
    SUPPORT_MATRIX,
    TRAINER_INDEX,
    WORKLOADS,
    curve_summary,
    format_speedup,
    format_table,
    make_context,
    support_rows,
)
from repro.ml.results import TrainResult


def test_support_matrix_matches_paper_table3():
    # Spot-check every row against the paper's check marks.
    supports = {(system, workload) for system, row in SUPPORT_MATRIX.items()
                for workload, supported in row.items() if supported}
    assert ("PS2", "DeepWalk") in supports
    assert ("Spark MLlib", "DeepWalk") not in supports
    assert ("Spark MLlib", "GBDT") in supports
    assert ("Glint", "LR") not in supports
    assert ("Glint", "LDA") in supports
    assert ("XGboost", "GBDT") in supports
    assert ("XGboost", "LDA") not in supports
    assert ("Petuum", "GBDT") not in supports
    assert ("DistML", "LR") in supports
    assert all(("PS2", w) in supports for w in WORKLOADS)


def test_only_ps2_covers_everything():
    full = [s for s, row in SUPPORT_MATRIX.items() if all(row.values())]
    assert full == ["PS2"]


def test_every_supported_cell_has_a_trainer():
    for system, row in support_rows():
        for workload, supported in row.items():
            if supported:
                assert (system, workload) in TRAINER_INDEX


def test_trainer_index_paths_resolve():
    import importlib

    for target in TRAINER_INDEX.values():
        module_path, attr = target.split(" ")[0].rsplit(".", 1)
        module = importlib.import_module(module_path)
        assert hasattr(module, attr)


def test_make_context_shapes():
    ctx = make_context(n_executors=3, n_servers=5, seed=9)
    assert len(ctx.cluster.executors) == 3
    assert len(ctx.cluster.servers) == 5


def test_make_context_failure_prob():
    ctx = make_context(task_failure_prob=0.5)
    assert ctx.cluster.failures.task_failure_prob == 0.5


#: A valid non-default value for every ClusterConfig field, plus the
#: companion fields its construction rules require.
NON_DEFAULT = {
    "n_executors": (3, {}),
    "n_servers": (4, {}),
    "node": (NodeSpec(flops=1e9), {}),
    "network": (NetworkSpec(latency=2e-4), {}),
    "failures": (FailureConfig(checkpoint_interval=0.5), {}),
    "consistency": ("ssp", {}),
    "staleness": (2, {"consistency": "ssp"}),
    "replication": ("topk", {}),
    "hot_key_fraction": (0.25, {"replication": "topk"}),
    "replication_factor": (2, {"replication": "topk"}),
    "rebalance_interval": (0.01, {"replication": "topk"}),
    "timeseries_window": (0.5, {}),
    "wire_codec": ("int8", {}),
    "chain_replicas": (1, {}),
    "elasticity": (ElasticitySpec(mode="auto"), {}),
    "seed": (7, {}),
}


@pytest.mark.parametrize("name", [
    field.name for field in dataclasses.fields(ClusterConfig)])
def test_make_context_forwards_every_cluster_field(name):
    """``make_context`` restates no field: each one it is given lands in
    the cluster's config."""
    value, companions = NON_DEFAULT[name]
    assert value != getattr(ClusterConfig(), name)
    fields = dict(n_executors=2, n_servers=3, **companions)
    fields[name] = value
    ctx = make_context(**fields)
    assert getattr(ctx.cluster.config, name) == value


def test_make_context_shortcuts_refine_given_fields():
    ctx = make_context(node=NodeSpec(nic_bandwidth=1e6), node_flops=1e9,
                       failures=FailureConfig(checkpoint_interval=0.5),
                       task_failure_prob=0.25, elasticity="auto")
    config = ctx.cluster.config
    assert config.node == NodeSpec(flops=1e9, nic_bandwidth=1e6)
    assert config.failures == FailureConfig(task_failure_prob=0.25,
                                            checkpoint_interval=0.5)
    assert config.elasticity == ElasticitySpec(mode="auto")


# -- report formatting -------------------------------------------------------------

def test_format_table_aligns():
    out = format_table(["sys", "time"], [("PS2", "1s"), ("MLlibXX", "20s")])
    lines = out.splitlines()
    assert len({len(line) for line in lines if line.strip()}) <= 2
    assert "PS2" in out and "MLlibXX" in out


def test_format_table_title():
    out = format_table(["a"], [("x",)], title="My Table")
    assert out.startswith("My Table")


def test_format_speedup():
    assert format_speedup(3.456) == "3.46x"
    assert format_speedup(None) == "n/a"


def test_curve_summary():
    r = TrainResult(system="s", workload="w")
    assert curve_summary(r) == "(no history)"
    for i in range(10):
        r.record(i, 1.0 / (i + 1))
    text = curve_summary(r, points=4)
    assert text.count("(") == 4
    assert "0.1000" in text  # the final point is always included
