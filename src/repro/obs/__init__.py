"""Observability for the PS2 simulator: tracing, time series, reports.

The subsystem has these layers:

- :mod:`repro.obs.tracer` — structured spans over the virtual clocks,
  recorded by instrumentation in the PS client/server, the network model
  and the sparklite scheduler, connected across nodes by the transport's
  ``trace_ctx`` threading.  Disabled by default; enabling it never changes
  simulation results or the code path that produces them (spans only
  *read* clocks).
- :mod:`repro.obs.histogram` — streaming log-bucketed latency histograms,
  always on inside :class:`~repro.cluster.metrics.MetricsRegistry`.
- :mod:`repro.obs.timeseries` — a passive virtual-time-windowed sampler
  (per-window rates, windowed percentiles, NIC-backlog gauges), enabled by
  ``ClusterConfig.timeseries_window``.
- :mod:`repro.obs.critical_path` — walks the causal span DAG backward from
  the makespan-defining span and attributes virtual time to compute /
  network / queueing / staleness-wait / retry-backoff.
- :mod:`repro.obs.bench` — structured ``BENCH_<name>.json`` perf records,
  the trajectory file and the CI regression gate.
- :mod:`repro.obs.chrometrace` / :mod:`repro.obs.report` — exporters: a
  ``chrome://tracing``-compatible JSON document (spans + time-series
  counter tracks) and a plain-text breakdown.

``set_default_tracing(True)`` makes every *subsequently built* cluster
start with its tracer enabled — the hook the benchmark runner's
``--trace`` flag uses, since benchmarks construct their own contexts.
``set_bench_capture(True)`` similarly registers every subsequently built
cluster for the benchmark harness's BENCH-record capture (tracing not
required).
"""

from __future__ import annotations

from repro.obs.bench import append_trajectory, bench_record, compare_records, \
    load_record, validate_record, write_record
from repro.obs.chrometrace import timeseries_counter_events, to_chrome_trace, \
    trace_events, write_chrome_trace
from repro.obs.critical_path import CriticalPathResult, analyze, \
    stage_breakdowns
from repro.obs.histogram import StreamingHistogram
from repro.obs.report import hot_shard_table, latency_table, render_report, \
    server_table
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.tracer import Span, Tracer

#: Whether clusters built from now on start with tracing enabled.
_DEFAULT_TRACING = False

#: Clusters constructed with tracing on while the default was enabled —
#: drained by the benchmark runner to export every traced context at once.
_TRACED_CLUSTERS = []

#: Whether clusters built from now on are captured for BENCH records.
_BENCH_CAPTURE = False

#: Every cluster constructed while bench capture was on — drained by the
#: benchmark harness to build one BENCH_<name>.json per benchmark.
_BENCH_CLUSTERS = []


def set_default_tracing(enabled):
    """Enable/disable tracing for clusters constructed after this call."""
    global _DEFAULT_TRACING
    _DEFAULT_TRACING = bool(enabled)


def default_tracing():
    """The current construction-time default for cluster tracers."""
    return _DEFAULT_TRACING


def register_traced_cluster(cluster):
    """Track *cluster* for batch export (called by ``Cluster.__init__``).

    Only clusters born with tracing enabled are registered, so normal runs
    never accumulate references here.
    """
    _TRACED_CLUSTERS.append(cluster)


def drain_traced_clusters():
    """Return and clear the traced-cluster registry."""
    global _TRACED_CLUSTERS
    drained, _TRACED_CLUSTERS = _TRACED_CLUSTERS, []
    return drained


def set_bench_capture(enabled):
    """Register every subsequently built cluster for BENCH capture."""
    global _BENCH_CAPTURE
    _BENCH_CAPTURE = bool(enabled)


def bench_capture():
    """Whether clusters built now are registered for BENCH capture."""
    return _BENCH_CAPTURE


def register_bench_cluster(cluster):
    """Track *cluster* for BENCH-record building (``Cluster.__init__``)."""
    _BENCH_CLUSTERS.append(cluster)


def drain_bench_clusters():
    """Return and clear the bench-capture registry."""
    global _BENCH_CLUSTERS
    drained, _BENCH_CLUSTERS = _BENCH_CLUSTERS, []
    return drained


__all__ = [
    "Span",
    "Tracer",
    "StreamingHistogram",
    "TimeSeriesSampler",
    "CriticalPathResult",
    "analyze",
    "stage_breakdowns",
    "bench_record",
    "validate_record",
    "write_record",
    "load_record",
    "append_trajectory",
    "compare_records",
    "trace_events",
    "timeseries_counter_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "latency_table",
    "server_table",
    "hot_shard_table",
    "render_report",
    "set_default_tracing",
    "default_tracing",
    "register_traced_cluster",
    "drain_traced_clusters",
    "set_bench_capture",
    "bench_capture",
    "register_bench_cluster",
    "drain_bench_clusters",
]
