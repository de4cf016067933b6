"""Shared experiment plumbing: context factories and run configs."""

from __future__ import annotations

from repro.config import ClusterConfig, ElasticitySpec, FailureConfig, \
    NodeSpec
from repro.core.context import PS2Context


def make_context(n_executors=20, n_servers=20, seed=0, task_failure_prob=0.0,
                 strict_colocation=False, node_flops=None, failures=None,
                 consistency="bsp", staleness=0,
                 replication="off", hot_key_fraction=0.1,
                 replication_factor=0, rebalance_interval=0.0,
                 timeseries_window=0.0, wire_codec="off", chain_replicas=0,
                 elasticity=None):
    """A fresh PS2 context on a fresh simulated cluster.

    ``failures`` takes a full :class:`repro.config.FailureConfig` (crash
    schedules, partition windows, checkpoint interval, retry knobs) for the
    fault-tolerance experiments; ``task_failure_prob`` stays as a shortcut
    for the common Bernoulli-task-failure case and is ignored when a full
    config is passed.

    Every system under comparison gets its own context (its own clocks and
    metrics) over identically configured hardware — the controlled-variable
    setup the paper's comparisons rely on.

    ``node_flops`` derates the simulated CPUs.  The datasets here are about
    four orders of magnitude smaller than the paper's, but per-task fixed
    overheads don't shrink with the data; experiments whose *shape* depends
    on per-worker compute being non-trivial (the Figure 13(a) scalability
    sweep) derate the CPUs (:data:`repro.costs.FIG13_NODE_FLOPS`) to
    restore the paper's compute-to-overhead ratio.  Comparisons between
    systems are unaffected: all contenders run on identical hardware either
    way.

    ``consistency`` / ``staleness`` select the execution model for the
    staleness-ablation experiments: ``"bsp"`` (default, the paper's
    behaviour), ``"ssp"`` with the given staleness bound, or ``"asp"``.

    ``replication`` / ``hot_key_fraction`` / ``replication_factor`` /
    ``rebalance_interval`` configure the NuPS-style hot-key replication
    manager for the skew-ablation experiments; the default ``"off"``
    constructs no manager at all (bit-identical to a pre-replication run).

    ``timeseries_window`` enables the virtual-time-windowed metrics
    sampler with windows of that many virtual seconds (0 disables it; the
    sampler is passive either way).

    ``wire_codec`` configures the wire-codec cost model for the
    compression-ablation experiments; the default ``"off"`` constructs no
    cost model at all (bit-identical to a pre-codec run).

    ``chain_replicas`` configures chained shard replication (M successor
    replicas per primary, promoted on crash) for the fault-tolerance
    experiments; the default 0 constructs no chain replicator at all
    (bit-identical to a pre-chain run).

    ``elasticity`` configures elastic scaling for the serving-tier
    experiments: pass a full :class:`repro.config.ElasticitySpec`, or the
    mode string ``"auto"`` as a shortcut for the default-bounded spec.
    The default ``None`` keeps the topology static (bit-identical to a
    pre-elasticity run).
    """
    if elasticity is None:
        elasticity = ElasticitySpec()
    elif isinstance(elasticity, str):
        elasticity = ElasticitySpec(mode=elasticity)
    node = NodeSpec() if node_flops is None else NodeSpec(flops=node_flops)
    config = ClusterConfig(
        n_executors=n_executors,
        n_servers=n_servers,
        node=node,
        seed=seed,
        failures=failures
        if failures is not None
        else FailureConfig(task_failure_prob=task_failure_prob),
        consistency=consistency,
        staleness=staleness,
        replication=replication,
        hot_key_fraction=hot_key_fraction,
        replication_factor=replication_factor,
        rebalance_interval=rebalance_interval,
        timeseries_window=timeseries_window,
        wire_codec=wire_codec,
        chain_replicas=chain_replicas,
        elasticity=elasticity,
    )
    return PS2Context(config=config, strict_colocation=strict_colocation)
