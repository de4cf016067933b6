"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper: it runs the
experiment once under ``benchmark.pedantic`` (the simulation is
deterministic — repeated timing only measures the host, not the system
under study), prints the regenerated rows/series, and persists them under
``benchmarks/results/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The benchmarks' one scale knob: Adam iterations, serving passes or
#: stream length, depending on the benchmark (CI runs 4).
ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERATIONS", "10"))

#: The regression gate: virtual ``(makespan_s, total_wire_bytes)`` of every
#: simulated context a gated benchmark builds, in construction order,
#: recorded at ``PINNED_ITERATIONS``.  The autouse fixture in
#: ``benchmarks/conftest.py`` checks each run against it with
#: :func:`check_pins`.  Re-pin an intended cost-model change by editing
#: the numbers here.
PINS = {
    "test_fig09ab_dcv_effect_on_lr": [
        (0.007615719400000022, 1886624.0),
        (0.04299113699999956, 541406144.0),
        (0.08043912179999989, 154174720.0),
        (0.00825016854999999, 8486272.0),
        (0.14488758615000005, 2698405792.0),
        (0.3779212628000002, 768933120.0),
    ],
    "test_fig10_lr_end_to_end": [
        (0.03362950840000008, 14815264.0),
        (0.062465778199999634, 771348480.0),
        (0.3991123182000046, 768820480.0),
        (0.6960777485999867, 1175557440.0),
        (0.03358631120000011, 9965728.0),
        (0.08895613409999865, 1411604480.0),
        (0.708085333899997, 1409076480.0),
        (1.2480402642998332, 2152613440.0),
    ],
    "test_fig13_host_throughput": [
        (0.019984300999999958, 27076800.0),
    ],
    "test_serving_elastic_step": [
        (1.8567164011960287, 8907184.0),
        (1.0016476251958615, 9942000.0),
        (1.0016476251958615, 9942000.0),
    ],
    "test_chain_recovery": [
        (1.6865048604904382, 13995264.0),
        (1.6865048604904382, 17285144.0),
        (1.6865048604904382, 17285144.0),
        (1.6820213314404382, 7438504.0),
    ],
    "test_replication_ablation": [
        (0.08144176292499998, 3881728.0),
        (0.07603247609500008, 4102344.0),
    ],
}

#: The ``REPRO_BENCH_ITERATIONS`` the pins were recorded at; runs at any
#: other scale are not gated.
PINNED_ITERATIONS = 4

#: Largest tolerated relative increase over a pin (improvements always
#: pass): virtual costs are deterministic, so a trip means a change really
#: moved the modeled cost.
MAKESPAN_TOLERANCE = 0.05
BYTES_TOLERANCE = 0.02


def emit(name, text):
    """Print a result block and persist it to benchmarks/results/<name>.txt."""
    banner = "\n=== %s ===\n" % name
    print(banner + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s.txt" % name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def run_once(benchmark, fn):
    """Execute *fn* exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def emit_observability(name, clusters, trace_out=None):
    """Export traced *clusters* of one benchmark: chrome trace + breakdown.

    Called by the autouse fixture in ``benchmarks/conftest.py`` under
    ``--obs-trace`` after a benchmark finishes.  Writes one merged
    chrome-trace JSON (one process block per traced context, plus counter
    tracks for any context with the time-series sampler enabled) and one
    ``<name>_obs.txt`` report next to the benchmark's regular results.

    First every traced stage is checked for the critical-path walk's
    partition invariant — categories must sum to the stage makespan within
    1% — so a broken DAG fails the benchmark run instead of producing a
    silently wrong artifact.
    """
    import json

    from repro.obs import render_report, stage_breakdowns, \
        timeseries_counter_events, to_chrome_trace

    if not clusters:
        return None
    for index, cluster in enumerate(clusters):
        for span, result in stage_breakdowns(cluster.tracer):
            attributed = sum(result.categories.values())
            if span.duration > 0 and \
                    abs(attributed - span.duration) > 0.01 * span.duration:
                raise AssertionError(
                    "%s ctx%d %s: critical-path categories sum to %.6f s "
                    "but the stage makespan is %.6f s (>1%% apart)"
                    % (name, index, span.op, attributed, span.duration)
                )
    labeled = [("ctx%d" % i, c.tracer) for i, c in enumerate(clusters)]
    document = to_chrome_trace(labeled)
    counter_pid = 1000
    for index, cluster in enumerate(clusters):
        sampler = cluster.timeseries
        if sampler is not None:
            sampler.finalize()
            document["traceEvents"].extend(timeseries_counter_events(
                sampler, counter_pid,
                process_name="ctx%d/timeseries" % index,
            ))
            counter_pid += 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = trace_out or os.path.join(
        RESULTS_DIR, "%s.trace.json" % name
    )
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)

    reports = [
        render_report(cluster, title="%s / ctx%d" % (name, index))
        for index, cluster in enumerate(clusters)
    ]
    emit(name + "_obs", "\n\n".join(reports)
         + "\nchrome trace: %s" % trace_path)
    return trace_path


def check_pins(name, runs, iterations=ITERATIONS):
    """Fail if benchmark *name* regressed past its ``PINS`` entry.

    *runs* holds one ``(makespan_s, total_wire_bytes)`` per simulated
    context, in construction order.  Benchmarks without pins and runs at
    any scale but ``PINNED_ITERATIONS`` are not gated.  Raises
    ``AssertionError`` naming the benchmark and every context that
    regressed, or when the context count differs from the pins'.
    """
    pins = PINS.get(name)
    if pins is None or iterations != PINNED_ITERATIONS:
        return
    if len(runs) != len(pins):
        raise AssertionError(
            "%s: built %d simulated contexts, the pins list %d"
            % (name, len(runs), len(pins))
        )
    failures = []
    for index, (run, pin) in enumerate(zip(runs, pins)):
        for metric, value, baseline, tolerance in (
            ("makespan", run[0], pin[0], MAKESPAN_TOLERANCE),
            ("wire bytes", run[1], pin[1], BYTES_TOLERANCE),
        ):
            if value > baseline * (1.0 + tolerance):
                failures.append(
                    "%s ctx%d: %s %.6g > baseline %.6g (+%.2f%%, "
                    "tolerance %.0f%%)"
                    % (name, index, metric, value, baseline,
                       100.0 * (value / baseline - 1.0), 100.0 * tolerance)
                )
    if failures:
        raise AssertionError("\n".join(failures))
