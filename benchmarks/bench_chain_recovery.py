"""Fault-tolerance ablation — chained replication vs checkpoint-only recovery.

Replays one open-loop serving stream (Zipf-free uniform reads with a
sprinkle of writes against a lazy table, plus a dense ballast matrix that
makes the crashed server's state non-trivial) three ways on identical
hardware and seed:

- ``baseline``  — chain replication on (M=1), nothing fails;
- ``chain``     — chain on (M=1), the middle server dies mid-serve;
- ``checkpoint``— chain off, same crash: recovery restores the last
  snapshot from simulated stable storage.

Each arm records every request's end-to-end latency (completion minus
open-loop arrival) so the recovery modes are compared where it matters —
the post-crash tail:

- the chain arm drops zero requests and its post-crash p99 stays within
  2x of the no-crash baseline: reads route to the ring successor the
  moment the primary dies, and the one promotion moves shard state at
  NIC speed;
- the checkpoint arm pays a visible pause: the first request that needs
  the dead server stalls behind retry backoff plus a storage-bandwidth
  restore, and open-loop arrivals pile up behind it;
- both crash arms are bit-identical under the seed (rerun asserted).
"""

import numpy as np
import pytest

from benchmarks._common import ITERATIONS, emit, run_once
from repro.experiments import format_table, make_context

# CI's benchmark-smoke job runs the ablation at reduced scale
# (``_common.ITERATIONS`` = 4); the shape assertions hold at any scale.

SEED = 23
DIM = 64
N_ITEMS = 256
KEYS = 8
#: Dense ballast rows co-resident on the servers: state the crashed
#: server must get back one way (promotion) or the other (restore).
BALLAST_ROWS = 96
BALLAST_DIM = 4096
#: Requests scale with the iteration knob (ITERATIONS=10 -> 2000);
#: enough post-crash samples that the one-time promotion/resync spike
#: (a handful of requests) sits beyond the 99th percentile.
N_REQUESTS = 200 * ITERATIONS
CRASH_STEP = int(N_REQUESTS * 0.4)
#: Open-loop arrival rate (req/s of virtual time) across 2 workers.
RATE = 500.0
READ_FRACTION = 0.9


def _run_arm(chain_replicas, crash):
    ctx = make_context(n_executors=2, n_servers=3, seed=SEED,
                       chain_replicas=chain_replicas)
    cluster = ctx.cluster
    master = ctx.master
    table = master.create_table(DIM, name="serve")
    ballast = master.create_matrix(BALLAST_DIM, n_rows=BALLAST_ROWS,
                                   name="ballast")
    clients = [ctx.client_for(node) for node in cluster.executors]

    # Warm phase: materialize the whole table and the ballast, then
    # snapshot — the state every recovery mode starts from.
    for start in range(0, N_ITEMS, 64):
        clients[0].pull_or_create(table, list(range(start, start + 64)))
    for row in range(BALLAST_ROWS):
        clients[0].push_assign(ballast, row, np.full(BALLAST_DIM, 1.0 + row))
    master.checkpoint_all()
    cluster.barrier()
    start_time = cluster.clock.global_time()

    rng = np.random.default_rng(SEED)
    gaps = rng.exponential(1.0 / RATE, size=N_REQUESTS)
    ids = rng.integers(0, N_ITEMS, size=(N_REQUESTS, KEYS))
    is_read = rng.random(N_REQUESTS) < READ_FRACTION
    arrivals = start_time + np.cumsum(gaps)

    latencies = np.zeros(N_REQUESTS)
    for step in range(N_REQUESTS):
        if crash and step == CRASH_STEP:
            master.servers[1].crash()
        worker = step % len(clients)
        node = cluster.executors[worker]
        cluster.clock.set_at_least(node, arrivals[step])
        request_ids = [int(i) for i in ids[step]]
        if is_read[step]:
            clients[worker].pull_or_create(table, request_ids)
        else:
            values = clients[worker].pull_or_create(table, request_ids)
            clients[worker].push_add(table, request_ids[0],
                                     values[0] * 1e-3)
        latencies[step] = cluster.clock.now(node) - arrivals[step]

    counters = cluster.metrics.counters
    post = latencies[CRASH_STEP:]
    return {
        "latencies": latencies,
        "post_p99": float(np.quantile(post, 0.99)),
        "post_max": float(post.max()),
        "makespan": ctx.elapsed(),
        "dropped": counters.get("client-dropped-ops", 0),
        "recoveries": counters.get("server-recoveries", 0),
        "promotions": counters.get("chain-promotions", 0),
        "fallbacks": counters.get("chain-fallbacks", 0),
        "restores": counters.get("recoveries", 0),
    }


def _sweep():
    return {
        "baseline": _run_arm(1, crash=False),
        "chain": _run_arm(1, crash=True),
        "chain_repeat": _run_arm(1, crash=True),
        "checkpoint": _run_arm(0, crash=True),
    }


@pytest.mark.benchmark(group="ablation")
def test_chain_recovery(benchmark):
    outcomes = run_once(benchmark, _sweep)
    baseline = outcomes["baseline"]
    chain = outcomes["chain"]
    repeat = outcomes["chain_repeat"]
    checkpoint = outcomes["checkpoint"]

    table = [
        (label, "%.6f s" % o["post_p99"], "%.6f s" % o["post_max"],
         "%.6f s" % o["makespan"], o["dropped"],
         o["promotions"], o["restores"])
        for label, o in (("baseline (no crash)", baseline),
                         ("chain M=1 + crash", chain),
                         ("checkpoint-only + crash", checkpoint))
    ]
    text = format_table(
        ["arm", "post-crash p99", "post-crash max", "makespan",
         "dropped", "promotions", "restores"],
        table,
    )
    text += "\nchain post-crash p99 vs baseline: %.2fx" % (
        chain["post_p99"] / baseline["post_p99"])
    text += "\ncheckpoint pause vs chain worst case: %.1fx" % (
        checkpoint["post_max"] / chain["post_max"])
    emit("chain_recovery", text)

    benchmark.extra_info["baseline_post_p99"] = baseline["post_p99"]
    benchmark.extra_info["chain_post_p99"] = chain["post_p99"]
    benchmark.extra_info["checkpoint_post_max"] = checkpoint["post_max"]

    # The chain arm dropped nothing and recovered by promotion alone.
    assert chain["dropped"] == 0
    assert chain["promotions"] >= 1
    assert chain["fallbacks"] == 0 and chain["restores"] == 0
    assert chain["recoveries"] == 1
    # Zero-downtime headline: post-crash p99 within 2x of never crashing.
    assert chain["post_p99"] <= 2.0 * baseline["post_p99"]
    # The checkpoint-only arm took the storage restore and visibly paused.
    assert checkpoint["restores"] == 1
    assert checkpoint["post_max"] > chain["post_max"]
    # Both crash arms served every request correctly all the same.
    assert checkpoint["dropped"] == 0
    # Bit-identical under the seed: the whole crash trajectory replays.
    assert np.array_equal(repeat["latencies"], chain["latencies"])
    assert repeat["makespan"] == chain["makespan"]
    assert repeat["post_p99"] == chain["post_p99"]
