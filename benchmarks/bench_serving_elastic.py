"""Serving-tier ablation — static topology vs elastic under a 4x load step.

Replays the same Zipf-skewed, step-profile serving stream twice on
identical hardware: once with the topology frozen at 2 workers / 2 PS
servers (``ElasticitySpec(mode="off")``) and once with the autoscaler
live (``mode="auto"``), then a third time elastic again to assert
seeded determinism of the whole control loop.

The regime is deliberately byte-dominated (slow NICs, low latency, fast
CPUs — the same derating the replication ablation uses): the post-step
arrival rate exceeds what 2 workers and 2 servers can drain, so the
static arm's NIC queues grow without bound and its windowed read p99
climbs for the rest of the run.  The elastic arm sees the same step,
crosses the NIC-backlog / SLO thresholds, and grows both tiers —
live shard migration included — until the backlog drains.

Expected shape, asserted below:

- the static arm never resizes and both arms serve the identical
  request stream (same seed, same arrivals, same lazy-created rows);
- the elastic arm adds at least one PS server AND at least one worker
  mid-run (after the load step, before the stream ends);
- the elastic arm's post-step windowed read p99 stays below the static
  arm's, and it finishes the stream sooner;
- running the elastic arm twice under the same seed is bit-identical:
  same makespan, same scaling events at the same virtual times.
"""

import pytest

from benchmarks._common import ITERATIONS, emit, run_once
from repro.config import ElasticitySpec, NetworkSpec, NodeSpec
from repro.experiments import format_table, make_context
from repro.serving import ServingScenario, run_serving

# CI's benchmark-smoke job runs the ablation at reduced scale
# (``_common.ITERATIONS`` = 4); the shape assertions hold at any scale.

#: Byte-dominated hardware: ~30 Mbit/s NICs, 10 us latency, fast CPUs —
#: the post-step stream saturates the NICs, not the compute.
NODE = dict(flops=2e11, nic_bandwidth=4e6)
NET = dict(latency=1e-5, bandwidth=4e6)

SEED = 7
#: Time-series window (virtual s) — the autoscaler's p99 signal and the
#: post-step comparison below both read these windows.
WINDOW = 0.1
#: Stream length scales with the iteration knob (ITERATIONS=10 -> 2.5 s).
DURATION = 0.25 * ITERATIONS
#: The load steps 4x at this fraction of the stream.
STEP_AT = 0.4
BASE_RATE = 600.0
#: Loose enough that the pre-step load sits under it at 2w/2s on this
#: hardware — only the 4x step pushes the windowed p99 across.
SLO_TARGET = 2e-2

STATIC = ElasticitySpec()
ELASTIC = ElasticitySpec(
    mode="auto",
    min_servers=2, max_servers=6,
    min_workers=2, max_workers=6,
    # Above the pre-step steady-state queueing delay (a few ms on this
    # hardware) so only the post-step backlog crosses it.
    scale_up_backlog=2e-2,
    scale_down_backlog=1e-4,
    slo_target=SLO_TARGET,
    cooldown=0.05,
)


def _scenario():
    return ServingScenario(
        name="bench-step",
        duration=DURATION,
        base_rate=BASE_RATE,
        n_items=192,
        dim=64,
        keys_per_request=8,
        n_users=64,
        zipf_exponent=1.1,
        read_fraction=0.9,
        profile="step",
        step_at=STEP_AT,
        step_factor=4.0,
        slo_target=SLO_TARGET,
    )


def _make_context(spec):
    return make_context(n_executors=2, n_servers=2, seed=SEED,
                        node=NodeSpec(**NODE), network=NetworkSpec(**NET),
                        timeseries_window=WINDOW, elasticity=spec)


def _post_step_p99(ctx):
    """Mean and max windowed ``serve:read`` p99 over post-step windows."""
    step_time = STEP_AT * DURATION
    ctx.cluster.timeseries.finalize()
    points = [
        value
        for end, value in ctx.cluster.slo.series("read", q="p99")
        if end - WINDOW >= step_time and value > 0.0
    ]
    if not points:
        return 0.0, 0.0
    return sum(points) / len(points), max(points)


def _run(spec):
    ctx = _make_context(spec)
    result = run_serving(ctx, _scenario())
    mean_p99, max_p99 = _post_step_p99(ctx)
    result["post_step_mean_p99"] = mean_p99
    result["post_step_max_p99"] = max_p99
    return result


def _sweep():
    return {
        "static": _run(STATIC),
        "elastic": _run(ELASTIC),
        "elastic_repeat": _run(ELASTIC),
    }


@pytest.mark.benchmark(group="ablation")
def test_serving_elastic_step(benchmark):
    outcomes = run_once(benchmark, _sweep)
    static, elastic = outcomes["static"], outcomes["elastic"]
    repeat = outcomes["elastic_repeat"]

    table = [
        (label, "%.6f s" % o["makespan"],
         "%.6f s" % o["post_step_mean_p99"],
         "%.6f s" % o["post_step_max_p99"],
         o["violations"], "%dw/%ds" % (o["n_workers"], o["n_servers"]),
         len(o["events"]))
        for label, o in (("static", static), ("elastic", elastic))
    ]
    text = format_table(
        ["topology", "makespan", "post-step mean p99", "post-step max p99",
         "SLO misses", "final size", "resizes"],
        table,
    )
    text += "\npost-step mean-p99 win: %.1f%%" % (
        100.0 * (1.0 - elastic["post_step_mean_p99"]
                 / static["post_step_mean_p99"])
    )
    for event in elastic["events"]:
        text += "\n  t=%.3f %s %s (backlog=%.2e p99=%.2e) -> %dw/%ds" % (
            event["time"], event["direction"], "+".join(event["actions"]),
            event["backlog"], event["p99"],
            event["n_workers"], event["n_servers"],
        )
    emit("serving_elastic_step", text)

    benchmark.extra_info["static_makespan"] = static["makespan"]
    benchmark.extra_info["elastic_makespan"] = elastic["makespan"]
    benchmark.extra_info["static_post_step_p99"] = static["post_step_mean_p99"]
    benchmark.extra_info["elastic_post_step_p99"] = \
        elastic["post_step_mean_p99"]
    benchmark.extra_info["elastic_resizes"] = len(elastic["events"])

    # Same seed, same stream: both arms serve identical traffic and the
    # lazy table grows to the identical coverage.
    assert static["requests"] == elastic["requests"]
    assert static["created_rows"] == elastic["created_rows"]
    assert static["lazy_creates"] == static["created_rows"]
    # The static arm is frozen: no autoscaler, no resizes, 2w/2s forever.
    assert static["events"] == []
    assert static["n_workers"] == 2 and static["n_servers"] == 2
    # The elastic arm grew BOTH tiers mid-run (after the step, before
    # the stream ended).
    step_time = STEP_AT * DURATION
    ups = [e for e in elastic["events"] if e["direction"] == "up"]
    assert any("server+1" in e["actions"] for e in ups)
    assert any("worker+1" in e["actions"] for e in ups)
    assert all(step_time <= e["time"] < elastic["makespan"] for e in ups)
    # ... and it paid off: lower post-step windowed p99, earlier finish.
    assert elastic["post_step_mean_p99"] < static["post_step_mean_p99"]
    assert elastic["post_step_max_p99"] < static["post_step_max_p99"]
    assert elastic["makespan"] < static["makespan"]
    # The whole control loop is deterministic under the seed.
    assert repeat["makespan"] == elastic["makespan"]
    assert repeat["events"] == elastic["events"]
    assert repeat["slo"] == elastic["slo"]
