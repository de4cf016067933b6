"""Configuration objects for the simulated cluster and experiments.

This module is the one statement of the configuration schema:
:func:`repro.experiments.make_context` forwards its fields to
:class:`ClusterConfig` instead of restating them.  A knob is here only if
something outside the tests sets it; fixed protocol choices, such as the
retry policy, are prices in :mod:`repro.costs`.

The hardware defaults are the testbed of Section 6.1 of the paper, priced
in :mod:`repro.costs` (:data:`~repro.costs.NODE_FLOPS`,
:data:`~repro.costs.TEN_GBPS`, :data:`~repro.costs.LINK_LATENCY`); they are
the only prices a run can change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.costs import LINK_LATENCY, NODE_FLOPS, TEN_GBPS


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one simulated machine.

    ``flops`` is the effective double-precision throughput the cost model
    charges against (:data:`~repro.costs.NODE_FLOPS` says how it was
    derated).
    """

    flops: float = NODE_FLOPS
    nic_bandwidth: float = TEN_GBPS

    def __post_init__(self):
        if self.flops <= 0:
            raise ConfigError("flops must be positive, got %r" % (self.flops,))
        if self.nic_bandwidth <= 0:
            raise ConfigError(
                "nic_bandwidth must be positive, got %r" % (self.nic_bandwidth,)
            )

    def compute_seconds(self, flops):
        """Virtual seconds this node needs for *flops* floating-point ops."""
        return float(flops) / self.flops


@dataclass(frozen=True)
class NetworkSpec:
    """Network fabric parameters shared by every link."""

    latency: float = LINK_LATENCY
    bandwidth: float = TEN_GBPS

    def __post_init__(self):
        if self.latency < 0:
            raise ConfigError("latency must be >= 0, got %r" % (self.latency,))
        if self.bandwidth <= 0:
            raise ConfigError("bandwidth must be positive, got %r" % (self.bandwidth,))


@dataclass(frozen=True)
class FailureConfig:
    """Failure injection and checkpointing (all default to no failures).

    - ``task_failure_prob``: Bernoulli task failures, retried by the
      sparklite scheduler (Figure 13(c)).
    - ``server_failure_times``: ``(server_index, virtual_time)`` pairs; the
      server crashes once its clock passes that time.
    - ``executor_failure_times``: ``(executor_index, virtual_time)`` pairs;
      the executor dies and its partitions redistribute (Section 5.3).
    - ``partition_windows``: ``(node_id, start, stop)`` triples; transfers
      touching the node inside ``[start, stop)`` raise and are retried.
    - ``checkpoint_interval``: virtual seconds between automatic checkpoint
      sweeps (0 disables them; ``checkpoint_all`` stays available).

    The retry policy is fixed, not configured: its budgets and penalties
    are prices in :mod:`repro.costs` (:data:`~repro.costs.MAX_OP_RETRIES`,
    :func:`~repro.costs.penalty_for`, :data:`~repro.costs.MAX_TASK_RETRIES`).
    """

    task_failure_prob: float = 0.0
    server_failure_times: tuple = ()
    executor_failure_times: tuple = ()
    partition_windows: tuple = ()
    checkpoint_interval: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.task_failure_prob <= 1.0:
            raise ConfigError(
                "task_failure_prob must be in [0, 1], got %r"
                % (self.task_failure_prob,)
            )
        if self.checkpoint_interval < 0:
            raise ConfigError(
                "checkpoint_interval must be >= 0, got %r"
                % (self.checkpoint_interval,)
            )
        for pair in self.server_failure_times:
            if len(pair) != 2:
                raise ConfigError(
                    "server_failure_times entries are (server_index, time) "
                    "pairs, got %r" % (pair,)
                )
        for pair in self.executor_failure_times:
            if len(pair) != 2:
                raise ConfigError(
                    "executor_failure_times entries are (executor_index, time) "
                    "pairs, got %r" % (pair,)
                )
        for window in self.partition_windows:
            if len(window) != 3:
                raise ConfigError(
                    "partition_windows entries are (node_id, start, stop) "
                    "triples, got %r" % (window,)
                )
            if float(window[2]) <= float(window[1]):
                raise ConfigError(
                    "partition window must end after it starts, got %r"
                    % (window,)
                )


@dataclass(frozen=True)
class ElasticitySpec:
    """Autoscaler policy for the online serving tier (``repro.serving``).

    ``mode`` is the master switch:

    - ``"off"`` (default): no autoscaler is constructed at all — the
      topology stays exactly ``(n_executors, n_servers)`` for the whole
      run and every code path is bit-identical to a pre-elasticity build;
    - ``"auto"``: the serving loop polls the autoscaler between requests;
      it scales the PS tier on the NIC-backlog signal
      (:meth:`NetworkModel.nic_horizon`) and the worker tier on the
      windowed p99-vs-SLO signal, within ``[min_servers, max_servers]``
      and ``[min_workers, max_workers]``.

    Signals:

    - ``scale_up_backlog`` / ``scale_down_backlog``: virtual seconds of
      NIC reservation horizon past "now" on the *busiest* server.  Above
      the up threshold the PS tier grows by one (live shard migration);
      below the down threshold it shrinks by one.
    - ``slo_target``: the windowed p99 latency (seconds) the worker tier
      defends; 0 disables the latency signal.  p99 above the target adds
      a worker, p99 under ``slo_target / 4`` with more than
      ``min_workers`` active retires one.
    - ``cooldown``: virtual seconds between scaling decisions — one
      resize per cooldown window, so a single burst cannot thrash the
      shard map.
    """

    mode: str = "off"
    min_servers: int = 1
    max_servers: int = 8
    min_workers: int = 1
    max_workers: int = 8
    scale_up_backlog: float = 5e-3
    scale_down_backlog: float = 5e-4
    slo_target: float = 0.0
    cooldown: float = 1.0

    def __post_init__(self):
        if self.mode not in ("off", "auto"):
            raise ConfigError(
                "elasticity mode must be 'off' or 'auto', got %r"
                % (self.mode,)
            )
        if self.min_servers < 1:
            raise ConfigError(
                "min_servers must be >= 1, got %r" % (self.min_servers,)
            )
        if self.max_servers < self.min_servers:
            raise ConfigError(
                "max_servers must be >= min_servers, got %r < %r"
                % (self.max_servers, self.min_servers)
            )
        if self.min_workers < 1:
            raise ConfigError(
                "min_workers must be >= 1, got %r" % (self.min_workers,)
            )
        if self.max_workers < self.min_workers:
            raise ConfigError(
                "max_workers must be >= min_workers, got %r < %r"
                % (self.max_workers, self.min_workers)
            )
        if self.scale_up_backlog <= 0:
            raise ConfigError(
                "scale_up_backlog must be positive, got %r"
                % (self.scale_up_backlog,)
            )
        if not 0 <= self.scale_down_backlog < self.scale_up_backlog:
            raise ConfigError(
                "scale_down_backlog must be in [0, scale_up_backlog), got %r"
                % (self.scale_down_backlog,)
            )
        if self.slo_target < 0:
            raise ConfigError(
                "slo_target must be >= 0, got %r" % (self.slo_target,)
            )
        if self.cooldown < 0:
            raise ConfigError(
                "cooldown must be >= 0, got %r" % (self.cooldown,)
            )


@dataclass(frozen=True)
class ClusterConfig:
    """Top-level description of a simulated deployment.

    ``n_executors`` Spark executors (PS2 workers) plus ``n_servers``
    parameter servers plus one driver/coordinator node.

    ``consistency`` selects the execution model (``repro.ps.consistency``):

    - ``"bsp"`` (default): Spark's stage barrier, exactly the paper's
      behaviour — bit-identical to a pre-consistency-layer run;
    - ``"ssp"``: stale-synchronous parallel with staleness bound
      ``staleness`` — a worker beginning logical clock ``c`` blocks until
      every worker completed clock ``c - staleness - 1``, and worker-side
      parameter caches may serve reads up to ``staleness`` clocks old;
    - ``"asp"``: fully asynchronous — no blocking; ``staleness`` (if > 0)
      only sizes the worker cache's reuse window.

    A ``staleness`` above 0 under ``"bsp"`` would do nothing, so it is
    rejected.

    ``replication`` selects NuPS-style hot-key replication (links held
    for reason ``"hot"`` in ``repro.ps.replication.Replicas``):

    - ``"off"`` (default): no hot copy is ever placed; with
      ``chain_replicas`` 0 as well no replication object is constructed
      at all — every code path is bit-identical to a pre-replication run;
    - ``"topk"``: at every rebalance sweep, the hottest
      ``hot_key_fraction`` of (matrix, server) shard keys — ranked by the
      same unified heat metric the hot-shard telemetry reports — are
      replicated.

    ``replication_factor`` is the number of replicas per hot key (0 means
    "all other servers"); ``rebalance_interval`` is the virtual-seconds
    period of the rebalance sweep (0 sweeps at every stage end).  These
    two and ``hot_key_fraction`` only apply under ``"topk"``: changing one
    from its default with ``replication="off"`` is rejected.

    ``timeseries_window`` enables the windowed time-series sampler
    (``repro.obs.timeseries``) with windows of that many virtual seconds;
    0 (the default) disables it.  The sampler is passive — enabling it
    never changes simulation results.

    ``wire_codec`` selects the wire-codec policy (``repro.ps.codecs`` +
    ``repro.ps.costmodel``):

    - ``"off"`` (default): no cost model is constructed at all — every
      wire formula is bit-identical to a pre-codec run;
    - ``"auto"``: the cost model picks a codec per message from the
      size/NIC-backlog/shard-heat regime (identity on latency-dominated
      messages, fp16/int8 as the payload grows byte-dominated, top-k on
      hot dense gradient pushes);
    - a codec name (``"fp16"``, ``"int8"``, ``"topk"``) forces that
      codec wherever its loss class is sound and identity elsewhere — the
      ablation knob.

    ``chain_replicas`` enables ElasticDL-style chained shard replication
    for zero-downtime recovery (links held for reason ``"chain"`` in
    ``repro.ps.replication.Replicas``): every primary server keeps its
    full store mirrored on the next M live servers in ring order, every
    applied write fans out epoch/counter-fenced, and a crash promotes the
    most-advanced successor instead of pausing for a checkpoint restore.
    0 (the default) forms no chain — with ``replication="off"`` as well
    nothing is constructed and every code path is bit-identical to a
    pre-chain build; checkpoint-restore remains the only recovery path.
    M must be below ``n_servers`` and, under ``elasticity`` mode
    ``"auto"``, below its ``min_servers`` — fewer servers cannot hold M
    successors of every primary.
    """

    n_executors: int = 20
    n_servers: int = 20
    node: NodeSpec = field(default_factory=NodeSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    failures: FailureConfig = field(default_factory=FailureConfig)
    consistency: str = "bsp"
    staleness: int = 0
    replication: str = "off"
    hot_key_fraction: float = 0.1
    replication_factor: int = 0
    rebalance_interval: float = 0.0
    timeseries_window: float = 0.0
    wire_codec: str = "off"
    chain_replicas: int = 0
    elasticity: ElasticitySpec = field(default_factory=ElasticitySpec)
    seed: int = 0

    def __post_init__(self):
        if self.n_executors <= 0:
            raise ConfigError(
                "n_executors must be positive, got %r" % (self.n_executors,)
            )
        if self.n_servers < 0:
            raise ConfigError("n_servers must be >= 0, got %r" % (self.n_servers,))
        if self.consistency not in ("bsp", "ssp", "asp"):
            raise ConfigError(
                "consistency must be 'bsp', 'ssp' or 'asp', got %r"
                % (self.consistency,)
            )
        if self.staleness < 0:
            raise ConfigError(
                "staleness must be >= 0, got %r" % (self.staleness,)
            )
        if self.replication not in ("off", "topk"):
            raise ConfigError(
                "replication must be 'off' or 'topk', got %r"
                % (self.replication,)
            )
        if not 0.0 < self.hot_key_fraction <= 1.0:
            raise ConfigError(
                "hot_key_fraction must be in (0, 1], got %r"
                % (self.hot_key_fraction,)
            )
        if self.replication_factor < 0:
            raise ConfigError(
                "replication_factor must be >= 0, got %r"
                % (self.replication_factor,)
            )
        if self.rebalance_interval < 0:
            raise ConfigError(
                "rebalance_interval must be >= 0, got %r"
                % (self.rebalance_interval,)
            )
        if self.timeseries_window < 0:
            raise ConfigError(
                "timeseries_window must be >= 0, got %r"
                % (self.timeseries_window,)
            )
        if self.wire_codec not in ("off", "auto", "fp16", "int8", "topk"):
            raise ConfigError(
                "wire_codec must be 'off', 'auto', 'fp16', 'int8' or 'topk', "
                "got %r" % (self.wire_codec,)
            )
        if self.chain_replicas < 0:
            raise ConfigError(
                "chain_replicas must be >= 0, got %r"
                % (self.chain_replicas,)
            )
        # A primary's M successors are M *other* servers: a topology that
        # cannot hold them would leave the chain silently shorter.
        if self.chain_replicas and self.chain_replicas >= self.n_servers:
            raise ConfigError(
                "chain_replicas=%d needs more than %d servers"
                % (self.chain_replicas, self.n_servers)
            )
        if self.chain_replicas and self.elasticity.mode == "auto" \
                and self.chain_replicas >= self.elasticity.min_servers:
            raise ConfigError(
                "chain_replicas=%d needs more than the autoscaler's "
                "min_servers=%d" % (self.chain_replicas,
                                    self.elasticity.min_servers)
            )
        if self.consistency == "bsp" and self.staleness:
            raise ConfigError(
                "staleness applies under 'ssp' or 'asp', not 'bsp', got %r"
                % (self.staleness,)
            )
        if self.replication == "off":
            tuned = [name for name in ("hot_key_fraction",
                                       "replication_factor",
                                       "rebalance_interval")
                     if getattr(self, name) != getattr(ClusterConfig, name)]
            if tuned:
                raise ConfigError(
                    "%s set with replication='off'; the hot-key knobs "
                    "apply only under 'topk'" % ", ".join(tuned)
                )
