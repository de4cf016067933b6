"""Figure 13(a,b) — scalability of PS2 (Section 6.4).

(a) Resource grid on the CTR analogue: the paper trains with 50w/50s
    (4519 s), 100w/50s (2865 s) and 100w/100s (2199 s) — both more workers
    and more servers help, with ~2.05x for doubled resources.  We sweep
    5/5 -> 10/5 -> 10/10 -> 20/20 with CPUs derated to restore the paper's
    compute-to-overhead ratio (``repro.costs.FIG13_NODE_FLOPS``).

(b) Model-size sweep, 20w/20s: MLlib's per-iteration time degrades ~168x
    over 40K -> 60M features while PS2's grows only 8.5x.

Host throughput: the paper validated on clusters up to 2700 machines; what
keeps this reproduction at laptop scale is how many simulated events the
*host* sustains per wall-clock second.  ``test_fig13_host_throughput``
drives a PS-op storm (dense/sparse row fan-outs + coalesced block ops) over
a 100w/50s fabric and asserts the measured events-per-host-second against
``THROUGHPUT_FLOOR`` — the simulator-speedup regression gate.
"""

import time

import numpy as np
import pytest

from benchmarks._common import ITERATIONS as BENCH_ITERATIONS
from benchmarks._common import emit, run_once
from repro.baselines import train_lr_mllib
from repro.costs import FIG13_NODE_FLOPS
from repro.data import dataset, spec, sparse_classification
from repro.experiments import format_table, make_context
from repro.ml import train_logistic_regression

RESOURCE_GRID = [(5, 5), (10, 5), (10, 10), (20, 20)]
FEATURE_SWEEP = [400, 30_000, 300_000, 600_000]
ITERATIONS = 5

#: Floor for simulated events per host-second (regression gate), set when
#: the vectorized fast path landed: 87 757 events/s before it, 245 055
#: best-of-5 after.
THROUGHPUT_FLOOR = 110_000


@pytest.mark.benchmark(group="fig13")
def test_fig13a_resource_scalability(benchmark):
    def run():
        rows = dataset("ctr", seed=17)
        dim = spec("ctr").params["dim"]
        timings = {}
        for n_executors, n_servers in RESOURCE_GRID:
            result = train_logistic_regression(
                make_context(n_executors=n_executors, n_servers=n_servers,
                             seed=17, node_flops=FIG13_NODE_FLOPS),
                rows, dim, optimizer="sgd", n_iterations=ITERATIONS,
                batch_fraction=0.5, seed=17,
            )
            timings[(n_executors, n_servers)] = result.elapsed
        return timings

    timings = run_once(benchmark, run)
    base = timings[RESOURCE_GRID[0]]
    table = [
        ("%dw / %ds" % grid, "%.4f s" % timings[grid],
         "%.2fx" % (base / timings[grid]))
        for grid in RESOURCE_GRID
    ]
    doubled = base / timings[(10, 10)]
    text = format_table(
        ["resources", "time (%d iterations)" % ITERATIONS, "speedup vs 5w/5s"],
        table,
        title="Figure 13(a): PS2 scalability on CTR "
              "(paper: ~2.05x for doubled resources)",
    )
    emit("fig13a_scalability", text)
    benchmark.extra_info["doubled_resources_speedup"] = round(doubled, 2)

    # Shape: each step of the grid helps; doubling everything helps a lot.
    assert timings[(10, 5)] < timings[(5, 5)]
    assert timings[(10, 10)] < timings[(10, 5)]
    assert timings[(20, 20)] < timings[(10, 10)]
    assert doubled > 1.4


@pytest.mark.benchmark(group="fig13")
def test_fig13b_model_size_scalability(benchmark):
    def run():
        rows_out = []
        ps2_per_iter = {}
        mllib_per_iter = {}
        for dim in FEATURE_SWEEP:
            data, _ = sparse_classification(400, dim, 20, seed=17)
            # CPUs derated as in 13(a): PS2's dim-proportional server-side
            # work (zero + update kernels over D/S elements) is what grows
            # with model size, and must be visible next to fixed overheads.
            ps2 = train_logistic_regression(
                make_context(seed=17, node_flops=FIG13_NODE_FLOPS), data, dim,
                optimizer="sgd", n_iterations=ITERATIONS,
                batch_fraction=0.1, seed=17,
            )
            mllib = train_lr_mllib(
                make_context(seed=17, node_flops=FIG13_NODE_FLOPS), data, dim,
                optimizer="sgd", n_iterations=ITERATIONS,
                batch_fraction=0.1, seed=17,
            )
            ps2_per_iter[dim] = ps2.elapsed / ITERATIONS
            mllib_per_iter[dim] = mllib.elapsed / ITERATIONS
            rows_out.append((
                "%dK" % (dim // 10),
                "%.5f s" % ps2_per_iter[dim],
                "%.5f s" % mllib_per_iter[dim],
            ))
        return rows_out, ps2_per_iter, mllib_per_iter

    rows_out, ps2_per_iter, mllib_per_iter = run_once(benchmark, run)
    small, big = FEATURE_SWEEP[0], FEATURE_SWEEP[-1]
    ps2_growth = ps2_per_iter[big] / ps2_per_iter[small]
    mllib_growth = mllib_per_iter[big] / mllib_per_iter[small]
    text = format_table(
        ["features (paper-scale)", "PS2 time/iter", "MLlib time/iter"],
        rows_out,
        title="Figure 13(b): per-iteration time vs model size "
              "(growth PS2 %.1fx vs MLlib %.1fx; paper: 8.5x vs 168x)"
              % (ps2_growth, mllib_growth),
    )
    emit("fig13b_model_size", text)
    benchmark.extra_info["ps2_growth_x"] = round(ps2_growth, 1)
    benchmark.extra_info["mllib_growth_x"] = round(mllib_growth, 1)

    # Shape: PS2's degradation is far milder than MLlib's.
    assert mllib_growth > 5 * ps2_growth
    assert ps2_growth < 20


@pytest.mark.benchmark(group="fig13")
def test_fig13_host_throughput(benchmark):
    """PS-op storm: how many simulated events the host sustains per second.

    Unlike 13(a)/(b), this cell is deliberately framework-bound — dense and
    sparse row fan-outs plus coalesced block ops over 100 workers / 50
    servers, with next to no ML math — so its events-per-host-second tracks
    the simulator core (NIC timeline bookings, message dispatch, counter
    stamps) rather than numpy kernels.  The measured rate is asserted
    against ``THROUGHPUT_FLOOR`` so the vectorization win cannot silently
    regress.
    """

    def run():
        ctx = make_context(n_executors=100, n_servers=50, seed=17)
        dim = 5000
        dense = ctx.dense(dim, rows=16, name="storm-dense")
        sparse = ctx.sparse(dim, rows=4, name="storm-sparse")
        executors = ctx.cluster.executors
        dense_vals = np.full(dim, 0.5)
        idx = np.arange(0, dim, 7, dtype=np.int64)
        sparse_vals = np.full(idx.size, 0.25)
        block_rows = list(range(8))
        block = np.full((len(block_rows), dim), 0.125)
        started = time.perf_counter()
        for it in range(BENCH_ITERATIONS * 25):
            client = ctx.client_for(executors[it % len(executors)])
            client.push_add(dense.matrix_id, dense.row, dense_vals)
            client.pull_row(dense.matrix_id, dense.row)
            client.push_add(sparse.matrix_id, sparse.row, sparse_vals, idx)
            client.pull_row(sparse.matrix_id, sparse.row, idx)
            if it % 5 == 0:
                coord = ctx.coordinator_client
                coord.pull_block(dense.matrix_id, block_rows)
                coord.push_block_add(dense.matrix_id, block_rows, block)
        wall = time.perf_counter() - started
        metrics = ctx.metrics
        events = metrics.total_messages() + sum(metrics.compute_counts.values())
        return events, wall, ctx.elapsed()

    events, wall, makespan = run_once(benchmark, run)
    eps = events / wall
    benchmark.extra_info["host_events_per_second"] = round(eps, 1)
    benchmark.extra_info["simulated_events"] = events
    emit(
        "fig13_host_throughput",
        "Figure 13 (host): PS-op storm sustained %d simulated events in "
        "%.3f host-seconds (%.0f events/s; virtual makespan %.4f s)"
        % (events, wall, eps, makespan),
    )

    # Host throughput is machine-dependent; the floor is set well below
    # the post-vectorization rate on the recording machine but above
    # anything the per-message slow path can reach.
    assert eps >= THROUGHPUT_FLOOR, (
        "simulator throughput regressed: %.0f events/s < floor %.0f"
        % (eps, THROUGHPUT_FLOOR)
    )
