"""The four workloads: seeded inputs, per-repeat set-up, the timed stream.

Every workload is driven through the program's public API only
(``PS2Context``, ``PSClient`` ops, ``train_logistic_regression``,
``run_serving``); the program never sees the seed, only what
:meth:`generate` made from it.  Sizes are fixed per workload so the
virtual clock is a pure function of ``(workload, seed)``; ``smoke``
divides them by about ten.

Why each workload exists is recorded in ``BENCHMARK.json`` (``why``)
and in README.md; the short form:

- ``storm-bare``   framework-bound, on the bulk fast path;
- ``storm-allon``  the identical op stream with every optional
  subsystem on — the per-message path nobody had timed;
- ``train-lr-adam`` kernel/sparklite/DCV-bound, transport a minority;
- ``serve-zipf-chain`` open-loop Zipf serving where the *virtual*
  latency tail is the product.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.config import ClusterConfig, FailureConfig, NetworkSpec, NodeSpec
from repro.core.context import PS2Context
from repro.data import dataset, spec
from repro.ml import lr
from repro.serving import ServingScenario, scenario as serving


class Storm:
    """The fig13 PS-op storm: 100 workers / 50 servers, dim ~5000.

    Closed loop, one op in flight: per iteration one worker issues a
    dense and a sparse ``push_add`` + ``pull_row`` (reads and writes
    50/50); every 5th iteration the coordinator adds a coalesced
    ``pull_block`` / ``push_block_add`` over 8 rows.  Unit of work: one
    client op.
    """

    unit = "op"
    open_loop = False
    read_tag, write_tag = "pull", "push"
    op_marks = ("ps.client.",)  # every client-op span is one unit of work
    n_workers, n_servers = 100, 50
    block_rows = list(range(8))
    pool_rows = 16

    def __init__(self, name, iterations, config):
        self.name = name
        self.iterations = iterations
        self.config = config

    def generate(self, seed, smoke=False):
        rng = np.random.default_rng([int(seed), 0x5702])
        # The dimension carries a few columns of seed jitter so no two
        # seeds share a virtual timeline (every wire size moves a little).
        dim = 5000 + int(rng.integers(-4, 5))
        nnz = dim // 7
        return {
            "seed": int(seed),
            "iterations": max(20, self.iterations // 10) if smoke
            else self.iterations,
            "dim": dim,
            "dense_vals": rng.normal(size=(4, dim)),
            # Two index sets, reused by identity: the client's pooled
            # sparse plans key on the index array object.
            "idx": [np.sort(rng.choice(dim, size=nnz, replace=False))
                    .astype(np.int64) for _ in range(2)],
            "sparse_vals": rng.normal(size=(4, nnz)),
            "blocks": rng.normal(size=(2, len(self.block_rows), dim)),
        }

    def build(self, inputs):
        ctx = PS2Context(config=ClusterConfig(
            n_executors=self.n_workers, n_servers=self.n_servers,
            seed=inputs["seed"], **self.config))
        return SimpleNamespace(
            ctx=ctx,
            dense=ctx.dense(inputs["dim"], rows=self.pool_rows,
                            name="storm-dense"),
            sparse=ctx.sparse(inputs["dim"], rows=4, name="storm-sparse"),
        )

    def planned_units(self, inputs):
        n = inputs["iterations"]
        return 4 * n + 2 * ((n + 4) // 5)

    def run(self, state, inputs):
        """The timed op stream; returns the number of ops that completed."""
        ctx, dense, sparse = state.ctx, state.dense, state.sparse
        executors = ctx.cluster.executors
        dense_vals, sparse_vals = inputs["dense_vals"], inputs["sparse_vals"]
        idx, blocks = inputs["idx"], inputs["blocks"]
        block_rows = self.block_rows
        coord = ctx.coordinator_client
        done = 0
        for it in range(inputs["iterations"]):
            client = ctx.client_for(executors[it % len(executors)])
            try:
                client.push_add(dense.matrix_id, dense.row, dense_vals[it % 4])
                done += 1
                client.pull_row(dense.matrix_id, dense.row)
                done += 1
                client.push_add(sparse.matrix_id, sparse.row,
                                sparse_vals[it % 4], idx[it % 2])
                done += 1
                client.pull_row(sparse.matrix_id, sparse.row, idx[it % 2])
                done += 1
                if it % 5 == 0:
                    coord.pull_block(dense.matrix_id, block_rows)
                    done += 1
                    coord.push_block_add(dense.matrix_id, block_rows,
                                         blocks[(it // 5) % 2])
                    done += 1
            except Exception:  # a failed op is counted, not fatal
                continue
        return done

    def finish(self, state, inputs):
        """Final state, pulled through the same client API (untimed)."""
        coord = state.ctx.coordinator_client
        dense, sparse = state.dense, state.sparse
        return {
            "dense": coord.pull_block(dense.matrix_id,
                                      list(range(self.pool_rows))),
            "dense_row": dense.row,
            "sparse": coord.pull_row(sparse.matrix_id, sparse.row),
        }


#: Every optional subsystem on: each trips one ``Transport._bulk_ok``
#: condition.  The crash is scheduled far past the run's end — failures
#: armed, never fired.
ALL_ON = dict(
    chain_replicas=1, replication="topk", replication_factor=2,
    rebalance_interval=0.01, wire_codec="auto", timeseries_window=0.005,
    failures=FailureConfig(server_failure_times=((3, 1e9),)),
)


class TrainLR:
    """PS2-Adam logistic regression on the CTR analogue (Figure 9).

    600 K dims, 20 workers / 20 servers, ``batch_fraction=0.1``.  Unit
    of work: one training iteration.
    """

    name = "train-lr-adam"
    unit = "iteration"
    open_loop = False
    # Gradient pushes and update kernels are fire-and-forget: the client
    # sees a constant RPC charge.  What a write costs shows in the stage
    # it commits in (task launch to last commit), so that is the write-
    # side latency reported here.
    read_tag, write_tag = "pull", "stage"
    op_marks = ("ml.zero_grad",)  # called once as every iteration starts
    iterations = 50

    def generate(self, seed, smoke=False):
        return {
            "seed": int(seed),
            "iterations": 5 if smoke else self.iterations,
            # Adam at lr 0.618 overshoots for ~40 iterations (seeds 1-24
            # checked); a smoke-length run cannot be asked to converge.
            "converges": not smoke,
            "rows": dataset("ctr", seed=int(seed)),
            "dim": spec("ctr").params["dim"],
        }

    def build(self, inputs):
        return SimpleNamespace(result=None, ctx=PS2Context(
            config=ClusterConfig(n_executors=20, n_servers=20,
                                 seed=inputs["seed"])))

    def planned_units(self, inputs):
        return inputs["iterations"]

    def run(self, state, inputs):
        try:
            state.result = lr.train_logistic_regression(
                state.ctx, inputs["rows"], inputs["dim"], optimizer="adam",
                system="PS2-Adam", n_iterations=inputs["iterations"],
                batch_fraction=0.1, seed=inputs["seed"])
        except Exception:
            return 0
        return state.result.iterations

    def finish(self, state, inputs):
        result = state.result
        if result is None:
            return {"losses": np.zeros(0), "weights": np.zeros(0)}
        return {
            "losses": np.array([loss for _t, loss in result.history]),
            "weights": result.extras["weight"].pull(),
        }


class ServeZipf:
    """Open-loop Zipf serving over a chain-replicated lazy table.

    Arrivals are pinned on the virtual clock (a slow system does not
    receive less load); latency counts from each request's scheduled
    arrival.  Hardware is the byte-dominated spec of
    ``bench_serving_elastic.py``.  Unit of work: one request.
    """

    name = "serve-zipf-chain"
    unit = "request"
    open_loop = True
    read_tag, write_tag = "serve:read", "serve:update"
    op_marks = ("ps.client.pull_or_create",)  # every request starts with one
    slo = 0.020
    nominal_rate = 1200.0
    duration = 5.0
    probe_duration = 1.0
    rate_range = (400.0, 3200.0)

    def scenario(self, rate, duration):
        return ServingScenario(
            name="perf-zipf", duration=duration, base_rate=rate,
            n_items=4096, dim=64, keys_per_request=8, zipf_exponent=1.1,
            read_fraction=0.8, profile="flat", slo_target=self.slo)

    def generate(self, seed, smoke=False, rate=None, duration=None):
        scenario = self.scenario(
            rate or self.nominal_rate,
            duration or (self.duration / 10 if smoke else self.duration))
        return {
            "seed": int(seed),
            "scenario": scenario,
            # run_serving regenerates this same stream from the cluster
            # seed; the copy here is the oracle's.
            "stream": scenario.traffic(int(seed)).generate(scenario.duration),
        }

    def build(self, inputs):
        return SimpleNamespace(result=None, ctx=PS2Context(
            config=ClusterConfig(
                n_executors=4, n_servers=4, seed=inputs["seed"],
                node=NodeSpec(flops=2e11, nic_bandwidth=4e6),
                network=NetworkSpec(latency=1e-5, bandwidth=4e6),
                chain_replicas=1)))

    def planned_units(self, inputs):
        return len(inputs["stream"])

    def run(self, state, inputs):
        try:
            state.result = serving.run_serving(state.ctx,
                                               inputs["scenario"])
        except Exception:
            return 0
        return state.result["requests"]

    def finish(self, state, inputs):
        result = state.result
        touched = sorted({row for request in inputs["stream"]
                          for row in request.ids})
        if result is None or not touched:
            return {"touched": touched, "final": np.zeros((0, 0))}
        final = state.ctx.coordinator_client.pull_or_create(
            result["table"], touched)
        return {"touched": touched, "final": final}


#: Serving rates (requests per virtual second) whose read p99 the traced
#: run reports besides the nominal one: well under and over saturation.
FIXED_RATES = (600, 2000)

WORKLOADS = {
    workload.name: workload for workload in (
        Storm("storm-bare", 1000, {}),
        Storm("storm-allon", 250, ALL_ON),
        TrainLR(),
        ServeZipf(),
    )
}
