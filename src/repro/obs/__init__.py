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
- :mod:`repro.obs.chrometrace` — exporter of a ``chrome://tracing``-
  compatible JSON document (spans + time-series counter tracks).
- :mod:`repro.obs.report` — the plain-text report, a renderer of
  :meth:`~repro.cluster.metrics.MetricsRegistry.snapshot`: one keyed
  table per tag-, counter- or node-keyed section (latency, traffic,
  every counter, compute ops, worker cache, codec decisions), a header
  of the run's non-default config fields, and the few views the
  snapshot cannot hold (per-server load, hot shards, replica and chain
  maps, SLO classes, time series, trace summary, critical path).

The package keeps no module-level state: every cluster owns its tracer
(``cluster.tracer.enable()`` turns it on), and the benchmark harness
captures the clusters a benchmark builds itself.
"""

from __future__ import annotations

from repro.obs.chrometrace import timeseries_counter_events, to_chrome_trace, \
    trace_events, write_chrome_trace
from repro.obs.critical_path import CriticalPathResult, analyze, \
    stage_breakdowns
from repro.obs.histogram import StreamingHistogram
from repro.obs.report import hot_shard_table, render_report, server_table
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.tracer import Span, Tracer

__all__ = [
    "Span",
    "Tracer",
    "StreamingHistogram",
    "TimeSeriesSampler",
    "CriticalPathResult",
    "analyze",
    "stage_breakdowns",
    "trace_events",
    "timeseries_counter_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "server_table",
    "hot_shard_table",
    "render_report",
]
