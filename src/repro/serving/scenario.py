"""Named serving scenarios and the open-loop driver.

A :class:`ServingScenario` bundles everything one online-serving run
needs — the traffic shape, the embedding-table geometry, the SLO target
— into a frozen, named record; :data:`SCENARIOS` is the registry the CLI
(``python -m repro serve <scenario>``) and the elastic-serving benchmark
resolve names against.

:func:`run_serving` replays a scenario's request stream **open-loop**
against one :class:`~repro.core.context.PS2Context`: each request's
arrival is pinned on the virtual clock (``set_at_least`` — a worker that
is still busy simply starts late, and the backlog shows up as latency),
reads go through the lazy ``get_or_create`` pull path so the embedding
table grows with the id coverage of the traffic, updates read-modify-
write the same rows as one coalesced block write, and every completion
feeds the
:class:`~repro.serving.slo.SLOTracker`.  With elasticity configured
(``ClusterConfig.elasticity.mode == "auto"``) an
:class:`~repro.serving.autoscaler.Autoscaler` is polled between
requests and may resize either tier mid-stream — live shard migration
included.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigError
from repro.serving.autoscaler import Autoscaler
from repro.serving.slo import SLOTracker
from repro.serving.traffic import TrafficGenerator


@dataclass(frozen=True)
class ServingScenario:
    """One named serving workload (traffic shape + table + SLO)."""

    name: str
    #: Stream length in virtual seconds.
    duration: float = 2.0
    #: Baseline arrival rate (requests per virtual second).
    base_rate: float = 400.0
    #: Catalogue size (the id space reads draw from).
    n_items: int = 256
    #: Embedding dimension of the lazy table.
    dim: int = 32
    #: Ids per read request (one inference batch's lookups).
    keys_per_request: int = 4
    #: Simulated user population size.
    n_users: int = 64
    #: Zipf exponent of the item popularity distribution.
    zipf_exponent: float = 1.1
    #: Fraction of requests that are reads (the rest are updates).
    read_fraction: float = 0.9
    #: Load profile: "flat", "step" or "diurnal".
    profile: str = "flat"
    #: Step profile: when the load steps, as a fraction of ``duration``.
    step_at: float = 0.5
    #: Step profile: the post-step rate multiplier.
    step_factor: float = 4.0
    #: Diurnal profile: sinusoid period in virtual seconds.
    period: float = 1.0
    #: Diurnal profile: sinusoid amplitude (fraction of base rate).
    amplitude: float = 0.5
    #: Latency SLO for reads, in virtual seconds (0 disables).
    slo_target: float = 0.002
    #: Magnitude of one online-learning update step.
    update_scale: float = 1e-3

    def traffic(self, seed):
        """The scenario's :class:`TrafficGenerator` under *seed*."""
        return TrafficGenerator(
            seed=seed,
            n_items=self.n_items,
            base_rate=self.base_rate,
            zipf_exponent=self.zipf_exponent,
            read_fraction=self.read_fraction,
            keys_per_request=self.keys_per_request,
            n_users=self.n_users,
            profile=self.profile,
            step_at=self.step_at * self.duration,
            step_factor=self.step_factor,
            period=self.period,
            amplitude=self.amplitude,
        )


#: The scenario registry the CLI and benchmarks resolve names against.
SCENARIOS = {
    "smoke": ServingScenario(name="smoke", duration=1.0, base_rate=200.0,
                             n_items=128, profile="flat"),
    "step": ServingScenario(name="step", duration=2.0, base_rate=400.0,
                            profile="step", step_at=0.5, step_factor=4.0),
    "diurnal": ServingScenario(name="diurnal", duration=2.0, base_rate=300.0,
                               profile="diurnal", period=1.0, amplitude=0.8),
}


def get_scenario(name):
    """Resolve a scenario by name (raises ``ConfigError`` when unknown)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            "unknown serving scenario %r (expected one of %s)"
            % (name, ", ".join(sorted(SCENARIOS)))
        ) from None


def run_serving(ctx, scenario, autoscaler=None):
    """Replay *scenario*'s request stream open-loop against *ctx*.

    Creates the lazy embedding table, installs an
    :class:`~repro.serving.slo.SLOTracker` on the cluster (as
    ``cluster.slo``, where the report's serving section finds it), and
    dispatches requests round-robin over the **currently active**
    executors — re-read every request, so elastic worker changes take
    effect mid-stream.  A request is two fan-outs: every request pulls
    its ids through ``pull_or_create``; an update then adds
    ``update_scale`` to each of those rows in one ``push_block_add``
    (one wire message per owning server, and one forwarded wire message
    per primary and chain holder), an id the request repeats folded into one
    row carrying the delta times its multiplicity.  With
    ``elasticity.mode == "auto"`` in the
    cluster config (and no explicit *autoscaler*), an autoscaler is
    constructed and polled after every completed request.

    Returns a result dict: request/violation counts, the per-class
    latency summary, the autoscaler's event log, final topology sizes,
    and the table's created-row count.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    cluster = ctx.cluster
    master = ctx.master
    clock = cluster.clock
    table = master.create_table(scenario.dim, init="random", scale=0.01,
                                name="emb-%s" % scenario.name)
    slo = SLOTracker(cluster, slo_target=scenario.slo_target)
    cluster.slo = slo
    if autoscaler is None and cluster.config.elasticity.mode == "auto":
        autoscaler = Autoscaler(ctx, cluster.config.elasticity, slo=slo)
    stream = scenario.traffic(cluster.config.seed).generate(scenario.duration)
    update_delta = np.full(scenario.dim, scenario.update_scale)
    served = 0
    for position, request in enumerate(stream):
        workers = cluster.executors
        worker = workers[position % len(workers)]
        # Open-loop arrival: the request *arrives* at its scheduled time
        # regardless of cluster state; a busy worker starts it late and
        # the queueing delay is part of the observed latency.
        clock.set_at_least(worker, request.time)
        client = ctx.client_for(worker)
        client.pull_or_create(table, request.ids)
        if request.kind == "update":
            # Online learning: read-modify-write on the rows just pulled
            # (the get_or_create above guarantees they exist), as one
            # coalesced write.  An id the request repeats is one row
            # carrying delta x multiplicity: a block push names each row
            # once.
            counts = Counter(request.ids)
            client.push_block_add(
                table, list(counts),
                np.multiply.outer(list(counts.values()), update_delta))
        slo.observe(request.kind, clock.now(worker) - request.time)
        served += 1
        if autoscaler is not None:
            # The request's scheduled time is the arrival frontier: the
            # backlog signal and the cooldown run on the open-loop
            # arrival timeline, not the (possibly far ahead) completion
            # clocks.
            autoscaler.maybe_scale(request.time)
    if cluster.timeseries is not None:
        cluster.timeseries.maybe_flush()
    info = master.info(table)
    return {
        "scenario": scenario.name,
        "table": table,
        "requests": served,
        "created_rows": len(info.created_rows),
        "lazy_creates": cluster.metrics.counters.get("lazy-creates", 0),
        "makespan": cluster.elapsed(),
        "slo": slo.summary(),
        "violations": sum(slo.violations.values()),
        "events": list(autoscaler.events) if autoscaler is not None else [],
        "n_servers": master.n_servers,
        "n_workers": len(cluster.executors),
    }
