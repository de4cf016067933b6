"""Worker-side communication collectives used by baseline systems.

XGBoost finds splits with AllReduce over full gradient histograms — the
"vast communication cost" the paper blames for its GBDT gap (Section 6.3.2).
The ring AllReduce model charges each participant ``2 * (W-1)/W * nbytes``
through its NIC plus per-step latency, the standard cost of the
reduce-scatter + all-gather ring.
"""

from __future__ import annotations

from repro.costs import MESSAGE_OVERHEAD_BYTES


def ring_allreduce(cluster, executors, nbytes, tag="allreduce"):
    """Charge a ring AllReduce of *nbytes* across *executors*.

    All participants first synchronize (the collective is bulk-synchronous),
    then every NIC moves ``2 * (W-1)/W * nbytes`` in ``2*(W-1)`` latency-bound
    steps.  Clocks of all executors advance to the common completion time,
    which is returned.
    """
    executors = list(executors)
    n = len(executors)
    if n <= 1:
        return cluster.clock.now(executors[0]) if executors else 0.0
    start = cluster.clock.barrier(executors)
    chunk = float(nbytes) / n
    steps = 2 * (n - 1)
    per_node_bytes = steps * (chunk + MESSAGE_OVERHEAD_BYTES)
    duration = 0.0
    for node in executors:
        bandwidth = cluster.network.bandwidth_of(node)
        duration = max(
            duration,
            per_node_bytes / bandwidth + steps * cluster.network.latency,
        )
    # Account traffic: each node sends `steps` chunks to its ring neighbor.
    cluster.metrics.record_transfer_many([
        (node, executors[(position + 1) % n], per_node_bytes, tag, 1)
        for position, node in enumerate(executors)])
    end = start + duration
    for node in executors:
        cluster.clock.set_at_least(node, end)
    return end
