"""The measuring protocol: one workload, one process, two clocks.

Per process: imports and data generation once (timed into ``setup_s``),
one untimed warm-up repeat, then up to ``REPEATS`` timed repeats inside
the ``--seconds`` budget, each on a fresh ``PS2Context`` (construction +
allocation is that repeat's set-up, the op stream its timed section).
Host numbers are medians over the repeats; virtual numbers are exact and
every repeat must produce the same ``virtual_digest``.

The warm-up repeat doubles as the *observed* repeat: a tap on its
``MetricsRegistry.observe`` keeps the raw per-op virtual latencies, so
percentiles are exact order statistics instead of 2 %-bucket midpoints.
Its digest must equal the timed repeats' — the tap watched the same run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time

import numpy as np

from benchmarks.perf import layers, shims
from benchmarks.perf.oracle import make_oracle
from benchmarks.perf.workloads import FIXED_RATES, WORKLOADS

#: Timed repeats per run (fewer only when the ``--seconds`` budget ends).
REPEATS = 7
MIN_REPEATS = 3
#: A repeat whose wall/CPU ratio exceeds this was descheduled: re-run it.
NOISY_RATIO = 1.15

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def read_virtual(ctx):
    """The virtual-clock state of a finished run, from public counters."""
    metrics = ctx.metrics
    return {
        "makespan": ctx.elapsed(),
        "wire_bytes": metrics.total_bytes(),
        "bytes_by_tag": dict(sorted(metrics.bytes_by_tag.items())),
        "messages_by_tag": dict(sorted(metrics.messages_by_tag.items())),
        "latency": dict(sorted(metrics.latency_summary().items())),
    }


def virtual_digest(virtual, outputs):
    """sha256 over the virtual numbers and the oracle's output values."""
    digest = hashlib.sha256(
        json.dumps(virtual, sort_keys=True).encode("utf-8"))
    for key in sorted(outputs):
        value = outputs[key]
        if isinstance(value, np.ndarray):
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode("utf-8"))
    return digest.hexdigest()


def run_repeat(workload, oracle, inputs, tap=None, recorder=None):
    """Set up a fresh context, run the stream once, check its outputs.

    Returns a dict: host times, units done, the virtual state read before
    the oracle's own verification pulls, the digest and any failures.
    """
    if recorder is not None:
        # before the context exists: hooks bind methods at construction
        shims.install(recorder)
    try:
        gc.collect()
        t0 = time.perf_counter()
        state = workload.build(inputs)
        setup = time.perf_counter() - t0
        if tap is not None:
            observe = state.ctx.metrics.observe

            def tapped(tag, seconds):
                tap.setdefault(tag, []).append(seconds)
                observe(tag, seconds)

            state.ctx.metrics.observe = tapped
        gc.collect()
        if recorder is not None:
            recorder.start()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        done = workload.run(state, inputs)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        if recorder is not None:
            recorder.stop()
    finally:
        if recorder is not None:
            shims.uninstall(recorder)
    virtual = read_virtual(state.ctx)
    repeat = {"setup": setup, "wall": wall, "cpu": cpu, "done": done,
              "virtual": virtual}
    if recorder is not None:
        repeat["per_layer"] = layers.layer_metrics(
            recorder, state.ctx, virtual, inputs.get("stream"))
    outputs = workload.finish(state, inputs)
    repeat["failures"] = oracle.check(state, inputs, outputs)
    repeat["copies_verified"] = state.copies_verified
    repeat["digest"] = virtual_digest(virtual, outputs)
    return repeat


def percentile(samples, q):
    """``(value, q used, n)``: the highest percentile <= *q* that still
    has at least ten samples beyond it."""
    n = len(samples)
    for candidate in (q, 95, 90, 50):
        if candidate <= q and n * (100 - candidate) / 100.0 >= 10:
            return float(np.percentile(samples, candidate)), candidate, n
    return (float(np.percentile(samples, 50)) if n else 0.0), 50, n


def summarize(values):
    """Median, quartiles and count of a host timing."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# -- serving: fixed rates and the highest rate that meets the SLO ----------

def probe_rate(workload, seed, rate, duration):
    """Run the serving stream at *rate*; ``(meets SLO, read p99)``.

    Meets = read p99 within the SLO, nothing dropped, and the stream
    drained within one SLO of its last arrival (a backlog that grows with
    the stream fails this at any length)."""
    inputs = workload.generate(seed, rate=rate, duration=duration)
    state = workload.build(inputs)
    workload.run(state, inputs)
    ctx = state.ctx
    p99 = ctx.metrics.percentile(workload.read_tag, 99)
    lag = ctx.elapsed() - inputs["stream"][-1].time
    dropped = ctx.metrics.counters.get("client-dropped-ops", 0)
    ok = (state.result is not None and not dropped
          and p99 <= workload.slo and lag <= workload.slo)
    return ok, p99


def probe_duration(workload, smoke):
    """Virtual seconds per serving probe (shorter under ``--smoke``)."""
    return workload.probe_duration / (4 if smoke else 1)


def max_rate(workload, seed, smoke):
    """Deterministic bisection over ``rate_range`` to 1/64 of the range."""
    lo, hi = workload.rate_range
    duration = probe_duration(workload, smoke)
    for _ in range(3 if smoke else 6):
        mid = (lo + hi) / 2.0
        if probe_rate(workload, seed, mid, duration)[0]:
            lo = mid
        else:
            hi = mid
    return lo


# -- one measured run --------------------------------------------------------

def environment():
    """What the numbers were measured on (recorded, never gated)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "threads": {key: os.environ.get(key) for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(name, seed, seconds, trace, smoke, started):
    """Run the protocol for workload *name*; returns the result dict."""
    workload = WORKLOADS[name]
    oracle = make_oracle(workload)
    inputs = workload.generate(seed, smoke)
    one_time = time.perf_counter() - started
    planned = workload.planned_units(inputs)
    repeats_wanted = 2 if smoke else REPEATS

    samples = {}
    warm = run_repeat(workload, oracle, inputs, tap=samples)
    checked = [warm]
    timed, noisy = [], 0
    loop_start = time.perf_counter()
    while len(timed) < repeats_wanted:
        over = time.perf_counter() - loop_start > seconds
        if over and len(timed) >= min(MIN_REPEATS, repeats_wanted):
            break
        repeat = run_repeat(workload, oracle, inputs)
        checked.append(repeat)
        if repeat["wall"] > NOISY_RATIO * repeat["cpu"] \
                and noisy < repeats_wanted and not over:
            noisy += 1
            continue
        timed.append(repeat)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = recorder = None
    if trace:
        recorder = shims.Recorder(op_marks=workload.op_marks)
        traced = run_repeat(workload, oracle, inputs, recorder=recorder)
        checked.append(traced)

    failures = [text for repeat in checked for text in repeat["failures"]]
    failures += oracle.finalize(inputs)
    digests = sorted({repeat["digest"] for repeat in checked})
    if len(digests) != 1:
        failures.append("virtual_digest differs between the observed, timed "
                        "and traced repeats: %s" % digests)

    attempted = planned * len(timed)
    failed = sum(planned if repeat["failures"] else planned - repeat["done"]
                 for repeat in timed)
    if failures and not failed:
        failed = attempted  # a digest or trajectory failure taints the run

    virtual = timed[0]["virtual"]
    wall = summarize([repeat["wall"] for repeat in timed])
    setup = summarize([repeat["setup"] for repeat in [warm] + timed])
    reads = samples.get(workload.read_tag, [])
    writes = samples.get(workload.write_tag, [])
    read_p50, _q, n_reads = percentile(reads, 50)
    read_p99, read_q, _n = percentile(reads, 99)
    write_p99, write_q, n_writes = percentile(writes, 99)
    if workload.open_loop:
        rate = max_rate(workload, seed, smoke)
        missed = sum(1 for value in reads + writes if value > workload.slo)
        slo_miss_share = (missed + planned - warm["done"]) / float(planned)
    else:
        # a closed loop's highest rate is the one it ran at
        rate = planned / virtual["makespan"]
        slo_miss_share = 0.0

    end_to_end = {
        "setup_s": dict(setup, unit="s", one_time_s=one_time,
                        median=one_time + setup["median"],
                        q1=one_time + setup["q1"], q3=one_time + setup["q3"]),
        "host_ops_per_s": {
            "median": planned / wall["median"], "q1": planned / wall["q3"],
            "q3": planned / wall["q1"], "n": wall["n"], "unit": "1/s"},
        "peak_rss_mb": {"median": peak_rss_mb, "unit": "MB"},
        "virtual_makespan_s": {"median": virtual["makespan"], "unit": "s"},
        "wire_bytes": {"median": virtual["wire_bytes"], "unit": "B"},
        "virtual_read_p50_s": {"median": read_p50, "unit": "s",
                               "n": n_reads, "percentile": 50},
        "virtual_read_p99_s": {"median": read_p99, "unit": "s",
                               "n": n_reads, "percentile": read_q},
        "virtual_write_p99_s": {"median": write_p99, "unit": "s",
                                "n": n_writes, "percentile": write_q},
        "virtual_max_rate_rps": {"median": rate, "unit": "1/s"},
    }
    result = {
        "workload": name, "seed": seed, "smoke": bool(smoke),
        "unit_of_work": workload.unit, "units_per_repeat": planned,
        "repeats": len(timed), "noisy_repeats": noisy,
        "attempted": attempted, "failed": failed,
        "failed_op_share": failed / float(attempted),
        "slo_miss_share": slo_miss_share,
        "failures": failures,
        "virtual_digest": digests[0],
        "timed_wall_s": dict(wall, unit="s"),
        "end_to_end": end_to_end,
        "virtual": virtual,
        "environment": environment(),
    }

    if traced is not None:
        per_layer = traced["per_layer"]
        events = per_layer["sim.events"][0]
        per_layer.update({
            "sim.host_us_per_event": (1e6 * wall["median"] / events, "us"),
            "bench.trace_overhead_ratio": (traced["wall"] / wall["median"],
                                           "ratio"),
            "bench.noisy_repeats": (noisy, "count"),
            "bench.failed_op_share": (result["failed_op_share"], "share"),
            "ps.replication.copies_verified": (traced["copies_verified"],
                                               "count"),
            "serving.slo_miss_share": (slo_miss_share, "share"),
        })
        for fixed in FIXED_RATES:  # printed for every workload; 0 = n/a
            p99 = 0.0
            if workload.open_loop:
                p99 = probe_rate(workload, seed, fixed,
                                 probe_duration(workload, smoke))[1]
            per_layer["serving.read_p99_at_%d_s" % fixed] = (p99, "s")
        result["per_layer"] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in sorted(per_layer.items())}
        result["spans_file"] = write_spans(name, recorder)
    return result


def write_spans(name, recorder):
    """Dump the raw spans and the per-name aggregates as JSON lines."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "%s.spans.jsonl" % name)
    origin = recorder.started
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, span in enumerate(recorder.spans):
            if span is None:
                continue
            span_name, start, end, parent, op = span
            handle.write(json.dumps({
                "id": span_id, "name": span_name, "start": start - origin,
                "end": end - origin, "parent": parent, "op": op}) + "\n")
        for span_name, (calls, inclusive) in sorted(recorder.by_name.items()):
            if calls:
                handle.write(json.dumps({
                    "aggregate": span_name, "calls": calls,
                    "inclusive_s": inclusive}) + "\n")
        for layer, row in recorder.layer_table().items():
            handle.write(json.dumps(dict(row, layer=layer)) + "\n")
    return os.path.relpath(path, os.path.dirname(OUT_DIR))
