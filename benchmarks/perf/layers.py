"""Per-layer metrics: shim self times plus counts read from public state.

Everything here is computed from the *traced* repeat: its shim recorder
gives calls / self time per layer and the exact counts the probes read
off arguments and return values; its context gives the public counters
(``MetricsRegistry``, ``TimelineResource.busy_seconds()``,
``NetworkModel.nic_utilization``).  The traced repeat's virtual digest
equals the untraced repeats', so those counters are the untraced run's
too.
"""

from __future__ import annotations

from benchmarks.perf.shims import LAYERS

#: Tags of induced replication traffic (fan-out pushes, copy streams).
REPLICATION_TAGS = ("replica-push", "replica-migrate", "replica-control",
                    "chain-sync", "chain-control", "chain-promote")


def _tagged(by_tag, prefixes):
    return sum(value for tag, value in by_tag.items()
               if tag.split(":")[0] in prefixes)


def layer_metrics(rec, ctx, virtual, stream):
    """``{metric name: (value, unit)}`` read right after a traced stream.

    *stream* is the serving request list (``None`` elsewhere): the k-th
    request's lateness is its first op's start minus its scheduled time.
    """
    cluster = ctx.cluster
    metrics = ctx.metrics
    counters = metrics.counters
    out = {}

    table = rec.layer_table()
    for layer in LAYERS:
        row = table[layer]
        out[layer + ".calls"] = (row["calls"], "count")
        out[layer + ".self_s"] = (row["self_s"], "s")
        out[layer + ".self_share"] = (row["self_share"], "share")

    # ps.client
    out["ps.client.read_self_s"] = (rec.bucket_self("ps.client:read"), "s")
    out["ps.client.write_self_s"] = (rec.bucket_self("ps.client:write"), "s")
    hits = sum(metrics.cache_hits.values())
    lookups = hits + sum(metrics.cache_misses.values())
    out["ps.client.cache_hit_rate"] = (hits / lookups if lookups else 0.0,
                                       "share")

    # ps.transport: PS request/response traffic is tagged "<op>:req|resp"
    wire = sum(n for tag, n in metrics.messages_by_tag.items()
               if tag.endswith((":req", ":resp")))
    logical = sum(n for tag, n in metrics.logical_messages_by_tag.items()
                  if tag.endswith((":req", ":resp")))
    out["ps.transport.wire_messages"] = (wire, "count")
    out["ps.transport.logical_messages"] = (logical, "count")
    out["ps.transport.coalesce_ratio"] = (logical / wire if wire else 1.0,
                                          "ratio")
    out["ps.transport.op_retries"] = (counters.get("op-retries", 0), "count")
    out["ps.transport.routing_rpcs"] = (
        metrics.messages_by_tag.get("routing:req", 0), "count")

    # ps.server
    probe = rec.counts
    served = probe["fast_messages"] + probe["dispatched_messages"]
    out["ps.server.dispatch_calls"] = (rec.calls("ps.server.dispatch"),
                                       "count")
    out["ps.server.fast_fanout_share"] = (
        probe["fast_messages"] / served if served else 0.0, "share")
    cpus = [server.cpu for server in ctx.master.servers]
    wait_by_resource = probe["wait_by_resource"]
    cpu_wait = sum(wait_by_resource.get(id(cpu), 0.0) for cpu in cpus)
    out["ps.server.cpu_busy_s"] = (sum(cpu.busy_seconds() for cpu in cpus),
                                   "s")
    out["ps.server.cpu_wait_s"] = (max(cpu_wait, 0.0), "s")
    out["ps.server.request_imbalance"] = (metrics.load_imbalance()[2],
                                          "ratio")

    # ps.replication
    out["ps.replication.fanout_messages"] = (
        counters.get("replica-fanouts", 0) + counters.get("chain-fanouts", 0),
        "count")
    out["ps.replication.fanout_bytes"] = (
        _tagged(metrics.bytes_by_tag, REPLICATION_TAGS), "B")
    out["ps.replication.replica_reads"] = (
        counters.get("replica-reads", 0) + counters.get("chain-reads", 0),
        "count")
    out["ps.replication.fenced_or_skipped"] = (
        counters.get("replica-fanout-fenced", 0)
        + counters.get("replica-fanout-skipped", 0), "count")

    # ps.costmodel / ps.codecs
    decisions = sum(metrics.codec_decisions.values())
    lossy = sum(n for (_tag, codec), n in metrics.codec_decisions.items()
                if codec != "identity")
    out["ps.costmodel.decisions"] = (decisions, "count")
    out["ps.codecs.compressed_share"] = (
        lossy / decisions if decisions else 0.0, "share")
    out["ps.codecs.bytes_saved"] = (
        sum(metrics.codec_bytes_saved.values()), "B")

    # cluster.network / cluster.resource / cluster.metrics
    makespan = virtual["makespan"]
    nic_busy = [cluster.network.nic_utilization(node)
                for node in cluster.node_ids]
    total_wait = sum(wait_by_resource.values())
    out["cluster.network.transfers"] = (metrics.total_messages(), "count")
    out["cluster.network.nic_busy_s"] = (
        sum(send + recv for send, recv in nic_busy), "s")
    out["cluster.network.nic_wait_s"] = (max(total_wait - cpu_wait, 0.0), "s")
    out["cluster.network.peak_nic_util"] = (
        max(max(pair) for pair in nic_busy) / makespan if makespan else 0.0,
        "share")
    out["cluster.resource.reservations"] = (probe["reservations"], "count")
    out["cluster.resource.wait_s"] = (total_wait, "s")
    out["cluster.resource.peak_intervals"] = (probe["peak_intervals"],
                                              "count")
    events = metrics.total_messages() + sum(metrics.compute_counts.values())
    out["cluster.metrics.records"] = (
        events + sum(hist.count for hist in metrics.latency.values()),
        "count")

    # ml / sparklite
    kernel_calls = sum(calls for name, (calls, _s) in rec.by_name.items()
                       if name.startswith("ml.") and name.endswith("_kernel"))
    out["ml.kernel_calls"] = (kernel_calls, "count")
    out["ml.kernel_self_s"] = (rec.bucket_self("ml:kernel"), "s")
    out["ml.gradient_self_s"] = (rec.bucket_self("ml:gradient"), "s")
    latency = metrics.latency
    out["sparklite.stages"] = (
        latency["stage"].count if "stage" in latency else 0, "count")
    out["sparklite.tasks"] = (
        latency["task"].count if "task" in latency else 0, "count")
    out["sparklite.task_retries"] = (counters.get("task-retries", 0),
                                     "count")

    # serving
    starts = probe["request_starts"]
    late = [max(0.0, start - request.time)
            for start, request in zip(starts, stream or ())]
    out["serving.requests"] = (len(starts), "count")
    out["serving.lazy_creates"] = (counters.get("lazy-creates", 0), "count")
    out["serving.late_start_s"] = (sum(late) / len(late) if late else 0.0,
                                   "s")

    out["sim.events"] = (events, "count")
    out["bench.unattributed_share"] = (table["bench"]["self_share"], "share")
    out["bench.shims_missing"] = (len(rec.missing), "count")
    return out
