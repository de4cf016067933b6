"""Hot-key replication ablation — Zipf-skewed LR, replication off vs on.

Runs the same train-then-serve LR pipeline twice on identical hardware:
once with ``ClusterConfig.replication="off"`` and once with the NuPS-style
hot-key manager enabled (``"topk"``).  The dataset's feature popularity is
Zipf-skewed (low indices dominate, as in CTR data), so under the column
layout one server owns the hot head of the feature range and serves about
half of all pull traffic — the single-server hotspot of Figure 4.

Expected shape, asserted below:

- **bit-identical losses** — replicas are kept in lockstep by synchronous
  fan-out, so turning replication on must not change a single float of the
  training/serving history;
- **lower makespan with replication on** — serve passes are pure reads,
  and the read router spreads the hot shard's pulls over
  ``1 + replication_factor`` queues;
- **lower max/mean per-server byte ratio** — the wire volume itself moves
  off the hot server, not just the latency.

The regime is deliberately byte-dominated (slow NICs, low latency, fast
CPUs): replication trades extra messages (fan-out, migration) for fewer
bytes on the hottest NIC, so its win only materializes where per-byte
costs outweigh per-message fixed costs — see the DESIGN.md §11 notes on
the cost model.
"""

import pytest

from benchmarks._common import ITERATIONS as SERVE_PASSES
from benchmarks._common import emit, run_once
from repro.config import ClusterConfig, NetworkSpec, NodeSpec
from repro.core.context import PS2Context
from repro.data.synth import sparse_classification
from repro.experiments import format_table
from repro.ml.linear import serve_linear_ps2, train_linear_ps2

# CI's benchmark-smoke job runs the ablation at reduced scale
# (SERVE_PASSES = ``_common.ITERATIONS`` = 4); the shape assertions hold at
# any scale.

TRAIN_ITERATIONS = 2
N_ROWS, DIM, NNZ = 800, 8192, 64

#: Byte-dominated hardware: 100 Mbit/s NICs, 10 us latency, derated only
#: lightly on compute so the hot NIC queue — not the CPUs — bounds stages.
NODE = dict(flops=2e11, nic_bandwidth=1.25e7)
NET = dict(latency=1e-5, bandwidth=1.25e7)


def _make_context(replication):
    config = ClusterConfig(
        n_executors=16,
        n_servers=8,
        seed=7,
        node=NodeSpec(**NODE),
        network=NetworkSpec(**NET),
        replication=replication,
        hot_key_fraction=0.125,
        replication_factor=3,
    )
    return PS2Context(config=config)


def _run(replication):
    ctx = _make_context(replication)
    rows, _ = sparse_classification(N_ROWS, DIM, NNZ, seed=7)
    trained = train_linear_ps2(
        ctx, rows, DIM, optimizer="sgd", n_iterations=TRAIN_ITERATIONS,
        batch_fraction=0.25, seed=7, pool_rows=2,
    )
    served = serve_linear_ps2(
        ctx, rows, trained.extras["weight"], n_passes=SERVE_PASSES,
    )
    metrics = ctx.cluster.metrics
    per_server = [
        metrics.bytes_sent.get(node_id, 0.0)
        + metrics.bytes_received.get(node_id, 0.0)
        for node_id in ctx.cluster.servers
    ]
    mean = sum(per_server) / len(per_server)
    return {
        "losses": [loss for _t, loss in trained.history + served.history],
        "makespan": ctx.elapsed(),
        "byte_ratio": max(per_server) / mean if mean else 0.0,
        "replica_reads": metrics.counters.get("replica-reads", 0),
        "fan_outs": metrics.counters.get("replica-fanouts", 0),
        "promotions": metrics.counters.get("replica-promotions", 0),
        "migration_bytes": metrics.bytes_for_tag("replica-migrate"),
    }


def _sweep():
    return {"off": _run("off"), "topk": _run("topk")}


@pytest.mark.benchmark(group="ablation")
def test_replication_ablation(benchmark):
    outcomes = run_once(benchmark, _sweep)
    off, on = outcomes["off"], outcomes["topk"]

    table = [
        (label, "%.6f s" % o["makespan"], "%.3f" % o["byte_ratio"],
         o["replica_reads"], o["fan_outs"], "%.0f" % o["migration_bytes"])
        for label, o in (("off", off), ("topk", on))
    ]
    text = format_table(
        ["replication", "makespan", "max/mean bytes", "replica reads",
         "fan-outs", "migration B"],
        table,
    )
    text += "\nmakespan win: %.1f%%" % (
        100.0 * (1.0 - on["makespan"] / off["makespan"])
    )
    emit("ablation_replication", text)

    benchmark.extra_info["off_makespan"] = off["makespan"]
    benchmark.extra_info["topk_makespan"] = on["makespan"]
    benchmark.extra_info["off_byte_ratio"] = off["byte_ratio"]
    benchmark.extra_info["topk_byte_ratio"] = on["byte_ratio"]

    # Replication must never change the math: same seed, same floats.
    assert on["losses"] == off["losses"]
    # The manager actually engaged on this workload.
    assert on["promotions"] > 0 and on["replica_reads"] > 0
    # ... and paid off: lower makespan AND lower byte skew.
    assert on["makespan"] < off["makespan"]
    assert on["byte_ratio"] < off["byte_ratio"]
    # The off run is bit-wise oblivious to the feature existing.
    assert off["replica_reads"] == 0 and off["fan_outs"] == 0
