"""The serving tier: traffic, SLO tracking, autoscaling, scenarios, CLI.

Property tests (Hypothesis) pin the three contracts the subsystem leans on:

1. a :class:`TrafficGenerator` stream is a pure function of its seed —
   same seed, bit-identical stream, every time;
2. drawn from one CDF per stream, it is exactly the stream one
   ``Generator.choice`` per request draws (kept here as the oracle);
3. the Zipf exponent monotonically controls skew: head mass is strictly
   increasing in the exponent (checked on the analytic pmf, no sampling
   noise).

The rest covers the SLO tracker's windowed/cumulative views, the
autoscaler's signals/cooldown/bounds, scenario resolution, the open-loop
driver (including seeded determinism of a full elastic run, and its
coalesced writes against a value oracle), the report section and the
``python -m repro serve`` command.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.common.errors import ConfigError
from repro.common.rng import generator
from repro.config import ClusterConfig, ElasticitySpec
from repro.core.context import PS2Context
from repro.experiments.runner import make_context
from repro.obs.report import render_report
from repro.serving import (Autoscaler, SCENARIOS, ServingScenario,
                           SLOTracker, TrafficGenerator, run_serving)
from repro.serving.scenario import get_scenario
from repro.serving.traffic import MIN_RATE_FACTOR, ServingRequest
from tests.test_replication import _assert_copies_match_primaries


# -- traffic: determinism (property) ------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_items=st.integers(min_value=1, max_value=64),
    exponent=st.floats(min_value=0.0, max_value=3.0,
                       allow_nan=False, allow_infinity=False),
    profile=st.sampled_from(["flat", "step", "diurnal"]),
)
@settings(max_examples=40, deadline=None)
def test_same_seed_same_stream(seed, n_items, exponent, profile):
    def build():
        return TrafficGenerator(
            seed=seed, n_items=n_items, base_rate=200.0,
            zipf_exponent=exponent, keys_per_request=3, profile=profile,
        ).generate(0.25)

    first, second = build(), build()
    assert first == second  # bit-identical: times, kinds, users and ids
    times = [r.time for r in first]
    assert times == sorted(times)
    assert all(0.0 <= t < 0.25 for t in times)
    assert all(len(r.ids) == 3 for r in first)
    assert all(0 <= i < n_items for r in first for i in r.ids)


@given(seeds=st.tuples(st.integers(min_value=0, max_value=10**6),
                       st.integers(min_value=0, max_value=10**6)))
@settings(max_examples=20, deadline=None)
def test_different_seeds_usually_differ(seeds):
    a, b = seeds
    streams = [
        TrafficGenerator(seed=s, n_items=32, base_rate=500.0).generate(0.2)
        for s in (a, b)
    ]
    if a == b:
        assert streams[0] == streams[1]
    elif streams[0] and streams[1]:
        # Arrival times come from a continuous distribution: two distinct
        # seeds colliding on the full time vector would be an RNG bug.
        assert [r.time for r in streams[0]] != [r.time for r in streams[1]]


# -- traffic: Zipf skew is monotone in the exponent (property) ----------------


@given(
    n_items=st.integers(min_value=2, max_value=512),
    low=st.floats(min_value=0.0, max_value=2.5,
                  allow_nan=False, allow_infinity=False),
    bump=st.floats(min_value=0.05, max_value=1.5,
                   allow_nan=False, allow_infinity=False),
)
@settings(max_examples=60, deadline=None)
def test_zipf_head_mass_increases_with_exponent(n_items, low, bump):
    flat = TrafficGenerator.zipf_probabilities(n_items, low)
    skewed = TrafficGenerator.zipf_probabilities(n_items, low + bump)
    assert flat.shape == skewed.shape == (n_items,)
    assert np.isclose(flat.sum(), 1.0) and np.isclose(skewed.sum(), 1.0)
    # More exponent -> strictly more mass on the head item ...
    assert skewed[0] > flat[0]
    # ... and strictly less on the tail item.
    assert skewed[-1] < flat[-1]
    # Each pmf is itself non-increasing in rank.
    assert np.all(np.diff(flat) <= 0) and np.all(np.diff(skewed) <= 0)


def test_zipf_exponent_zero_is_uniform():
    p = TrafficGenerator.zipf_probabilities(8, 0.0)
    assert np.allclose(p, 1.0 / 8.0)


# -- traffic: profiles and validation -----------------------------------------


def test_step_profile_rate_factor():
    gen = TrafficGenerator(seed=0, n_items=8, base_rate=100.0,
                           profile="step", step_at=1.0, step_factor=4.0)
    assert gen.rate_factor(0.5) == 1.0
    assert gen.rate_factor(1.0) == 4.0
    assert gen.rate_at(2.0) == 400.0


def test_diurnal_profile_is_floored():
    gen = TrafficGenerator(seed=0, n_items=8, base_rate=100.0,
                           profile="diurnal", period=1.0, amplitude=5.0)
    # The trough would be negative; the floor keeps the process alive.
    assert gen.rate_factor(0.75) == MIN_RATE_FACTOR
    assert gen.rate_factor(0.25) == pytest.approx(6.0)


def test_step_stream_is_denser_after_step():
    gen = TrafficGenerator(seed=3, n_items=8, base_rate=400.0,
                           profile="step", step_at=0.5, step_factor=4.0)
    stream = gen.generate(1.0)
    before = sum(1 for r in stream if r.time < 0.5)
    after = sum(1 for r in stream if r.time >= 0.5)
    assert after > 2 * before


@pytest.mark.parametrize("kwargs", [
    dict(n_items=0),
    dict(base_rate=0.0),
    dict(read_fraction=1.5),
    dict(keys_per_request=0),
    dict(profile="bogus"),
])
def test_traffic_validation(kwargs):
    defaults = dict(seed=0, n_items=8, base_rate=100.0)
    defaults.update(kwargs)
    with pytest.raises(ConfigError):
        TrafficGenerator(**defaults)


def test_keys_exceeding_catalogue_draw_with_replacement():
    gen = TrafficGenerator(seed=0, n_items=2, base_rate=200.0,
                           keys_per_request=5)
    stream = gen.generate(0.2)
    assert stream and all(len(r.ids) == 5 for r in stream)


def test_an_exponent_that_underflows_the_tail_is_rejected():
    # 2 ** -2000 is 0.0: only the head item could ever be drawn.
    with pytest.raises(ConfigError, match="non-zero probability"):
        TrafficGenerator(seed=0, n_items=4, base_rate=100.0,
                         zipf_exponent=2000.0, keys_per_request=2)


# -- traffic: one CDF per stream == one Generator.choice per request ----------


def _choice_stream(gen, duration):
    """The stream as one ``Generator.choice`` per request draws it — the
    generator's original loop, kept here as the law's oracle."""
    rng = generator(gen.seed, "serving-traffic")
    replace = gen.keys_per_request > gen.n_items
    requests = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / gen.rate_at(t))
        if t >= duration:
            break
        user = int(rng.integers(gen.n_users))
        kind = "read" if rng.random() < gen.read_fraction else "update"
        ids = rng.choice(gen.n_items, size=gen.keys_per_request,
                         replace=replace, p=gen.probabilities)
        requests.append(ServingRequest(t, kind, user,
                                       tuple(int(i) for i in ids)))
    return requests


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_items=st.one_of(st.integers(min_value=1, max_value=12),
                      st.integers(min_value=13, max_value=4096)),
    keys=st.integers(min_value=1, max_value=12),
    exponent=st.floats(min_value=0.5, max_value=3.0,
                       allow_nan=False, allow_infinity=False),
    profile=st.sampled_from(["flat", "step", "diurnal"]),
)
@example(seed=17, n_items=4096, keys=8, exponent=1.1, profile="flat")
@example(seed=5, n_items=8, keys=8, exponent=0.5, profile="step")  # k = n
@example(seed=3, n_items=3, keys=5, exponent=3.0, profile="diurnal")  # k > n
@example(seed=1, n_items=1, keys=1, exponent=1.0, profile="flat")
@settings(max_examples=60, deadline=None)
def test_the_stream_is_the_one_choice_per_request_draws(
        seed, n_items, keys, exponent, profile):
    gen = TrafficGenerator(seed=seed, n_items=n_items, base_rate=150.0,
                           zipf_exponent=exponent, keys_per_request=keys,
                           profile=profile, step_at=0.1, period=0.2)
    # Times, kinds, users and ids, exactly.
    assert gen.generate(0.25) == _choice_stream(gen, 0.25)


# -- SLO tracker --------------------------------------------------------------


def _windowed_cluster(window=0.5):
    from repro.cluster.cluster import Cluster

    return Cluster(ClusterConfig(n_executors=2, n_servers=2, seed=42,
                                 timeseries_window=window))


def test_slo_tracker_counts_and_summary(cluster):
    slo = SLOTracker(cluster, slo_target=1e-3)
    slo.observe("read", 5e-4)
    slo.observe("read", 2e-3)  # violation
    slo.observe("update", 5e-4)
    assert slo.requests == {"read": 2, "update": 1}
    assert slo.violations == {"read": 1}
    assert cluster.metrics.counters["slo-violations"] == 1
    assert slo.violation_rate("read") == 0.5
    assert slo.violation_rate() == pytest.approx(1.0 / 3.0)
    summary = slo.summary()
    assert summary["read"]["requests"] == 2
    assert summary["read"]["violations"] == 1
    assert summary["read"]["p99"] >= summary["read"]["p50"] > 0.0
    assert summary["update"]["violations"] == 0


def test_slo_tracker_zero_target_never_violates(cluster):
    slo = SLOTracker(cluster)
    slo.observe("read", 100.0)
    assert slo.violations == {}
    assert "slo-violations" not in cluster.metrics.counters


def test_slo_windowed_reads_last_closed_window():
    cluster = _windowed_cluster(window=0.5)
    slo = SLOTracker(cluster, slo_target=1e-3)
    assert slo.windowed("read") == 0.0  # nothing closed yet
    slo.observe("read", 2e-3)
    cluster.clock.set_at_least(cluster.executors[0], 0.6)
    cluster.timeseries.maybe_flush()
    assert slo.windowed("read", q="p99") == pytest.approx(2e-3)
    assert slo.windowed("update") == 0.0  # silent class: no signal
    points = slo.series("read", q="p99")
    assert points and points[0][1] == pytest.approx(2e-3)


def test_slo_windowed_without_sampler_is_no_signal(cluster):
    slo = SLOTracker(cluster, slo_target=1e-3)
    slo.observe("read", 2e-3)
    assert slo.windowed("read") == 0.0
    assert slo.series("read") == []


# -- autoscaler ---------------------------------------------------------------


def _elastic_ctx(spec, window=0.0, n=2):
    config = ClusterConfig(n_executors=n, n_servers=n, seed=42,
                           timeseries_window=window, elasticity=spec)
    return PS2Context(config=config)


def test_autoscaler_off_mode_never_acts():
    ctx = _elastic_ctx(ElasticitySpec())
    scaler = Autoscaler(ctx)
    assert scaler.maybe_scale() is None
    assert scaler.events == []


def test_autoscaler_scales_up_on_backlog():
    spec = ElasticitySpec(mode="auto", min_servers=2, max_servers=4,
                          min_workers=2, max_workers=4,
                          scale_up_backlog=1e-3, cooldown=0.0)
    ctx = _elastic_ctx(spec)
    scaler = Autoscaler(ctx, spec)
    # Saturate one server's NIC, then measure against the arrival
    # frontier (t=0): the receive horizon extends far past it even
    # though the completion clocks have already caught up.
    server = ctx.master.servers[0].node_id
    ctx.cluster.network.transfer("driver", server, 10**7, tag="flood")
    assert scaler.backlog_seconds(0.0) > 1e-3
    assert scaler.backlog_seconds() == 0.0  # vs the global clock: drained
    event = scaler.maybe_scale(0.0)
    assert event is not None and event["direction"] == "up"
    assert event["reason"] == "backlog"
    assert "server+1" in event["actions"] and "worker+1" in event["actions"]
    assert ctx.master.n_servers == 3
    assert len(ctx.cluster.executors) == 3
    assert ctx.metrics.counters["autoscale-up"] == 1


def test_autoscaler_scales_up_on_windowed_slo_breach():
    spec = ElasticitySpec(mode="auto", min_servers=2, max_servers=4,
                          min_workers=2, max_workers=4,
                          slo_target=1e-3, cooldown=0.0,
                          scale_up_backlog=1e9)  # backlog signal muted
    ctx = _elastic_ctx(spec, window=0.5)
    slo = SLOTracker(ctx.cluster, slo_target=1e-3)
    scaler = Autoscaler(ctx, spec, slo=slo)
    slo.observe("read", 5e-3)  # breach, but the window is still open
    ctx.cluster.clock.set_at_least(ctx.cluster.executors[0], 0.6)
    ctx.cluster.timeseries.maybe_flush()
    event = scaler.maybe_scale()
    assert event is not None and event["reason"] == "slo"
    assert event["p99"] == pytest.approx(5e-3)


def test_autoscaler_scales_down_with_hysteresis():
    spec = ElasticitySpec(mode="auto", min_servers=1, max_servers=4,
                          min_workers=1, max_workers=4,
                          scale_down_backlog=1e-4, cooldown=0.0)
    ctx = _elastic_ctx(spec)
    scaler = Autoscaler(ctx, spec)
    event = scaler.maybe_scale()  # idle cluster: drain
    assert event is not None and event["direction"] == "down"
    assert event["reason"] == "drain"
    assert ctx.master.n_servers == 1
    assert len(ctx.cluster.executors) == 1
    assert ctx.metrics.counters["autoscale-down"] == 1
    # At the floor, draining again is a no-op (no phantom events).
    assert scaler.maybe_scale() is None
    assert len(scaler.events) == 1


def test_autoscaler_respects_bounds():
    spec = ElasticitySpec(mode="auto", min_servers=2, max_servers=2,
                          min_workers=2, max_workers=2,
                          scale_up_backlog=1e-6, scale_down_backlog=0.0,
                          cooldown=0.0)
    ctx = _elastic_ctx(spec)
    scaler = Autoscaler(ctx, spec)
    server = ctx.master.servers[0].node_id
    ctx.cluster.network.transfer("driver", server, 10**7, tag="flood")
    # Both tiers pinned: the breach cannot act, and no event is logged.
    assert scaler.maybe_scale(0.0) is None
    assert scaler.events == []
    assert ctx.master.n_servers == 2


def test_autoscaler_cooldown_blocks_second_action():
    spec = ElasticitySpec(mode="auto", min_servers=1, max_servers=8,
                          min_workers=1, max_workers=8,
                          scale_down_backlog=1e-4, cooldown=0.5)
    ctx = _elastic_ctx(spec, n=4)
    scaler = Autoscaler(ctx, spec)
    ctx.cluster.clock.set_at_least(ctx.cluster.executors[0], 1.0)
    assert scaler.maybe_scale() is not None
    assert scaler.maybe_scale() is None  # inside the cooldown window
    ctx.cluster.clock.set_at_least(ctx.cluster.executors[0], 2.0)
    assert scaler.maybe_scale() is not None
    assert len(scaler.events) == 2


# -- scenarios and the driver -------------------------------------------------


def test_scenario_registry_and_unknown():
    assert set(SCENARIOS) == {"smoke", "step", "diurnal"}
    assert get_scenario("smoke").profile == "flat"
    with pytest.raises(ConfigError):
        get_scenario("black-friday")


def test_run_serving_smoke_static():
    ctx = make_context(n_executors=2, n_servers=2, seed=3,
                       timeseries_window=0.25)
    result = run_serving(ctx, "smoke")
    assert result["scenario"] == "smoke"
    assert result["requests"] > 0
    assert result["events"] == []  # elasticity off: no autoscaler at all
    assert result["n_servers"] == 2 and result["n_workers"] == 2
    # Lazy creation engaged and the master registry agrees with the
    # server-side creation counter (create-once across all workers).
    assert 0 < result["created_rows"] <= 128
    assert result["lazy_creates"] == result["created_rows"]
    assert result["makespan"] > 0.0
    assert ctx.master.info(result["table"]).lazy
    # The SLO tracker is installed where the report can find it.
    assert ctx.cluster.slo is not None
    assert ctx.cluster.slo.requests["read"] > 0


def test_run_serving_elastic_builds_autoscaler_and_report():
    ctx = make_context(n_executors=2, n_servers=2, seed=3,
                       timeseries_window=0.25, elasticity="auto")
    result = run_serving(ctx, "smoke")
    # The default-bounded spec drains the idle smoke workload down.
    assert any(e["direction"] == "down" for e in result["events"])
    assert result["n_servers"] < 2 or result["n_workers"] < 2
    text = render_report(ctx.cluster)
    assert "-- slo classes --" in text
    assert "serve:read" in text
    assert ["lazy-creates", str(result["created_rows"])] in \
        [line.split() for line in text.splitlines()]


def test_run_serving_is_deterministic_under_seed():
    def run():
        ctx = make_context(n_executors=2, n_servers=2, seed=11,
                           timeseries_window=0.25, elasticity="auto")
        return run_serving(ctx, "smoke")

    first, second = run(), run()
    assert first == second


def assert_serving_matches_oracle(ctx, result, scenario):
    """Every row the stream touched == its lazy-init value plus
    ``update_scale`` times the number of update ids naming it.

    The init values come from a fresh, update-free context on one server
    (lazy init is layout-independent), with as many tables created as
    the run's table id needs; the run's rows are read back through the
    coordinator."""
    seed = ctx.cluster.config.seed
    stream = scenario.traffic(seed).generate(scenario.duration)
    touched = sorted({row for request in stream for row in request.ids})
    updates = Counter(row for request in stream if request.kind == "update"
                      for row in request.ids)
    fresh = make_context(n_executors=1, n_servers=1, seed=seed)
    for _ in range(result["table"] + 1):
        table = fresh.master.create_table(scenario.dim)
    expected = (fresh.coordinator_client.pull_or_create(table, touched)
                + scenario.update_scale
                * np.array([updates[row] for row in touched])[:, None])
    got = ctx.coordinator_client.pull_or_create(result["table"], touched)
    assert np.allclose(got, expected, rtol=1e-9, atol=1e-15)


def test_an_update_repeating_ids_writes_each_row_once_with_its_multiplicity():
    # More keys than items: every request repeats ids, so each update
    # folds them into one row per id carrying delta x multiplicity — a
    # block push refuses a repeated row, whose second copy would leave
    # the chain successor one write behind.
    scenario = ServingScenario(name="repeats", duration=0.5, base_rate=200.0,
                               n_items=3, dim=8, keys_per_request=5,
                               read_fraction=0.5)
    ctx = make_context(n_executors=2, n_servers=3, seed=4, chain_replicas=1)
    result = run_serving(ctx, scenario)
    stream = scenario.traffic(4).generate(scenario.duration)
    assert any(request.kind == "update" for request in stream)
    assert result["requests"] == len(stream)
    assert ctx.metrics.counters["chain-fanouts"] > 0
    assert "replica-fanout-skipped" not in ctx.metrics.counters
    assert_serving_matches_oracle(ctx, result, scenario)
    assert _assert_copies_match_primaries(ctx.master) == 3


def test_run_serving_works_without_timeseries():
    # window=0 disables the sampler: the driver and the SLO tracker must
    # degrade gracefully (no windowed signal, cumulative stats intact).
    ctx = make_context(n_executors=2, n_servers=2, seed=5)
    result = run_serving(ctx, "smoke")
    assert result["requests"] > 0
    assert ctx.cluster.timeseries is None
    assert ctx.cluster.slo.windowed("read") == 0.0
    assert ctx.cluster.slo.summary()["read"]["p99"] > 0.0


# -- CLI ----------------------------------------------------------------------


def test_cli_serve_smoke(capsys):
    assert main(["serve", "smoke", "--workers", "2", "--servers", "2",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "-- slo classes --" in out
    assert "requests served:" in out
    assert "embedding rows created lazily:" in out
    assert "final topology: 2 servers / 2 workers" in out


def test_cli_serve_elastic(capsys):
    assert main(["serve", "smoke", "--workers", "2", "--servers", "2",
                 "--seed", "3", "--elastic"]) == 0
    out = capsys.readouterr().out
    assert "(elastic)" in out
    assert "scale" in out  # at least the drain event line


def test_cli_serve_unknown_scenario(capsys):
    assert main(["serve", "black-friday"]) == 1
    assert "unknown scenario" in capsys.readouterr().out
