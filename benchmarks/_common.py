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
#: :func:`check_pins`.  A benchmark that ignores ``REPRO_BENCH_ITERATIONS``
#: is pinned at its own fixed scale, noted next to its pin, and gated in
#: the same 4-iteration run.  Re-pin an intended cost-model change by
#: editing the numbers here.
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
    # Fixed scale (5 SGD iterations): ignores REPRO_BENCH_ITERATIONS.
    "test_fig01_mllib_time_per_iteration_and_breakdown": [
        (0.0075118952, 820480.0),
        (0.030360135200000003, 48180480.0),
        (0.23877313519999976, 480180480.0),
        (0.47034313520000043, 960180480.0),
    ],
    # Fixed scale (2 DeepWalk passes): ignores REPRO_BENCH_ITERATIONS.
    "test_fig09cd_dcv_effect_on_deepwalk": [
        (0.05268711800000139, 3183232.0),
        (0.09854232049999878, 13716256.0),
        (0.1683114171999964, 50333280.0),
        (0.2573031840000447, 76406880.0),
    ],
    # Fixed scale (20 trees): ignores REPRO_BENCH_ITERATIONS.
    "test_fig11_gbdt_ps2_vs_xgboost": [
        (1.2265742823996926, 278485280.0),
        (3.1351738246797702, 433870751.9999252),
    ],
    # Fixed scale (5 sweeps): ignores REPRO_BENCH_ITERATIONS.
    "test_fig12_lda": [
        (0.014289551650000253, 74569624.0),
        (0.06280727484999944, 942150152.0),
        (0.08368932284999958, 1406438152.0),
        (0.011283643149999998, 11769576.0),
        (0.07381665880000002, 127105600.0),
        (0.008888093350000004, 30909816.0),
    ],
    # Fixed scale (5 SGD iterations): ignores REPRO_BENCH_ITERATIONS.
    "test_fig13a_resource_scalability": [
        (0.45368342240000004, 40781976.0),
        (0.41198970919999994, 42716360.0),
        (0.2402256139999999, 42801520.0),
        (0.12900021120000005, 43753600.0),
    ],
    # Fixed scale (5 SGD iterations): ignores REPRO_BENCH_ITERATIONS.
    "test_fig13b_model_size_scalability": [
        (0.009093998800000017, 777632.0),
        (0.00985107200000003, 820480.0),
        (0.009827151600000025, 772288.0),
        (0.19534296319999972, 48180480.0),
        (0.04160539640000002, 766208.0),
        (1.8872709631999935, 480180480.0),
        (0.0791004043999999, 776160.0),
        (3.767190963200004, 960180480.0),
    ],
    # Fixed scale (20 iterations): ignores REPRO_BENCH_ITERATIONS.
    "test_fig13c_task_failure_tolerance": [
        (0.03362292095000012, 14685760.0),
        (0.04269479015000017, 14819616.0),
        (0.05970932980000033, 15468784.0),
    ],
    "test_codec_ablation": [
        (0.13793390207999912, 1534688.0),
        (0.05827694207999761, 613088.0),
        (0.046660302080002325, 478688.0),
        (0.07468078208000285, 744416.0),
        (0.012585587854999993, 132272.0),
        (0.010905223964999997, 99892.0),
        (0.003347468399999999, 132272.0),
        (0.003347468399999999, 132272.0),
    ],
    # Fixed scale: ignores REPRO_BENCH_ITERATIONS.
    "test_ablation_colocated_vs_realigned_dot": [
        (0.0009049336000000003, 104640.0),
        (0.0009076336000000003, 824640.0),
        (0.0014644352000000001, 8024640.0),
    ],
    # Fixed scale (4 iterations): ignores REPRO_BENCH_ITERATIONS.
    "test_ablation_sparse_pull_vs_dense_pull": [
        (0.00705981145000001, 933152.0),
        (0.01810115400000002, 256680960.0),
        (0.008277966300000007, 24960256.0),
        (0.018115612800000014, 256680960.0),
        (0.017230386150000006, 305699936.0),
        (0.018394912800000014, 256680960.0),
    ],
    # Fixed scale (2 DeepWalk passes): ignores REPRO_BENCH_ITERATIONS.
    "test_ablation_deepwalk_server_count_tradeoff": [
        (0.06374391440000196, 2621280.0),
        (0.11978882569999791, 11157024.0),
        (0.07570359919999782, 6188880.0),
        (0.13564899859999854, 15835440.0),
        (0.09563957519999323, 12134880.0),
        (0.16221910210000315, 23632800.0),
        (0.17538609279999887, 35918880.0),
        (0.26861553840003943, 54822240.0),
    ],
    "test_consistency_ablation": [
        (0.006207514700000004, 98936.0),
        (0.0058133186999999985, 100376.0),
        (0.005597280799999998, 95832.0),
        (0.005597280799999998, 95832.0),
    ],
    "test_consistency_ablation_is_deterministic": [
        (0.006207514700000004, 98936.0),
        (0.0058133186999999985, 100376.0),
        (0.005597280799999998, 95832.0),
        (0.005597280799999998, 95832.0),
        (0.006207514700000004, 98936.0),
        (0.0058133186999999985, 100376.0),
        (0.005597280799999998, 95832.0),
        (0.005597280799999998, 95832.0),
    ],
    # Fixed scale: ignores REPRO_BENCH_ITERATIONS.
    "test_ablation_histogram_subtraction": [
        (0.4886676210000205, 110695200.0),
        (0.3444187095000021, 58896480.0),
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
