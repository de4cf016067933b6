"""Benchmark-runner capture: the regression gate + ``--obs-trace`` exports.

An autouse fixture records every simulated cluster a benchmark constructs
(it wraps ``Cluster.__init__`` for the one benchmark).  After the
benchmark, the virtual ``(makespan, wire bytes)`` of each context is
checked against the pinned table in ``benchmarks/_common.py``
(``_common.check_pins``; gated benchmarks at ``REPRO_BENCH_ITERATIONS=4``
only).

``pytest benchmarks/... --obs-trace`` additionally enables span tracing
for every simulated cluster as soon as it is built.  After each benchmark,
the traced contexts are exported as one merged chrome-trace JSON plus an
``*_obs.txt`` breakdown (latency percentiles, server utilization, hot
shards, critical-path attribution).

Neither capture perturbs the cost model (spans only read the virtual
clocks), so instrumented and plain benchmark numbers are identical.
"""

from __future__ import annotations

import re

import pytest

from benchmarks import _common


def pytest_addoption(parser):
    group = parser.getgroup("repro observability")
    group.addoption(
        "--obs-trace", action="store_true", default=False,
        help="record spans in every simulated cluster and export chrome "
             "traces + observability reports next to benchmark results",
    )
    group.addoption(
        "--obs-trace-out", default=None,
        help="explicit chrome-trace output path (default: "
             "benchmarks/results/<benchmark>.trace.json)",
    )


@pytest.fixture(autouse=True)
def _obs_capture(request, monkeypatch):
    """Capture every simulated cluster a benchmark builds: gate it against
    its pins (always) and export traces/reports (under --obs-trace)."""
    from repro.cluster.cluster import Cluster

    traced = request.config.getoption("--obs-trace")
    captured = []
    build = Cluster.__init__

    def capturing_init(cluster, *args, **kwargs):
        build(cluster, *args, **kwargs)
        if traced:
            cluster.tracer.enable()
        captured.append(cluster)

    monkeypatch.setattr(Cluster, "__init__", capturing_init)
    yield
    name = re.sub(r"\W+", "_", request.node.name).strip("_")
    if traced:
        _common.emit_observability(
            name, captured,
            trace_out=request.config.getoption("--obs-trace-out"),
        )
    _common.check_pins(
        name,
        [(cluster.elapsed(), cluster.metrics.total_bytes())
         for cluster in captured],
    )
