"""The simulated deployment: driver + executors + parameter servers.

A :class:`Cluster` owns the shared clock, network, metrics, RNG registry and
failure injector, and registers one node per simulated machine.  The
sparklite engine and the PS substrate are both built over the same cluster
object so that every byte any system sends is charged against the same cost
model — the control the paper's "Spark- / PS- / PS2-" comparisons rely on.
"""

from __future__ import annotations

from repro.cluster.failures import FailureInjector
from repro.cluster.metrics import MetricsRegistry
from repro.cluster.network import NetworkModel
from repro.cluster.node import ROLE_DRIVER, ROLE_EXECUTOR, ROLE_SERVER, Node
from repro.cluster.simclock import SimClock
from repro.common.errors import ClusterError, UnknownNodeError
from repro.common.rng import RngRegistry
from repro.config import ClusterConfig
from repro.obs.tracer import Tracer

#: Reserved node id for the driver/coordinator.
DRIVER = "driver"


def executor_id(index):
    """Node id of the *index*-th Spark executor."""
    return "executor-%d" % index


def server_id(index):
    """Node id of the *index*-th parameter server."""
    return "server-%d" % index


class Cluster:
    """A fully wired simulated deployment."""

    def __init__(self, config=None):
        self.config = config or ClusterConfig()
        self.clock = SimClock()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.clock)
        self.network = NetworkModel(
            self.clock,
            self.metrics,
            latency=self.config.network.latency,
            default_bandwidth=self.config.network.bandwidth,
            tracer=self.tracer,
        )
        self.rng = RngRegistry(self.config.seed)
        self.failures = FailureInjector(
            self.rng.get("failures"),
            task_failure_prob=self.config.failures.task_failure_prob,
        )
        # The network is built before the injector (it needs only clock and
        # metrics); partitions are consulted through this back-reference.
        self.network.failures = self.failures
        for index, at_time in self.config.failures.server_failure_times:
            self.failures.schedule_server_failure(
                server_id(int(index)), float(at_time)
            )
        for index, at_time in self.config.failures.executor_failure_times:
            self.failures.schedule_executor_failure(
                executor_id(int(index)), float(at_time)
            )
        for node_id, start, stop in self.config.failures.partition_windows:
            self.failures.schedule_partition(node_id, float(start), float(stop))
        #: Callbacks the scheduler runs after every stage barrier — the
        #: virtual-time hook that drives periodic checkpoint sweeps.
        self.stage_end_hooks = []
        #: Callbacks fired whenever the server/worker topology changes
        #: (elastic resize, live shard migration).  Routing caches and
        #: worker caches register here: anything derived from a shard
        #: layout must be dropped when the shard map moves.
        self.topology_change_hooks = []
        #: Callbacks fired when a worker's logical clock ticks (SSP/ASP):
        #: ``hook(node_id, new_clock)``.  Worker-side parameter caches
        #: register here to run their version-vector renewal RPC.
        self.clock_advance_hooks = []
        # Optional subsystems are plain attributes of the cluster, every
        # one assigned in this constructor (``tracer`` above,
        # ``consistency`` and ``timeseries`` below) and ``None`` when off,
        # so which optional machinery is live reads off one place.  A
        # ``None`` slot keeps every path bit-identical to a build without
        # that subsystem.
        #: Replication's holder table (``config.replication != "off"`` or
        #: ``config.chain_replicas > 0``) and the wire-codec cost model
        #: (``config.wire_codec != "off"``); the PS master installs both.
        self.replicas = None
        self.costmodel = None
        #: The serving tier's SLO tracker, installed by
        #: :func:`repro.serving.scenario.run_serving`.
        self.slo = None
        # Imported lazily: the repro.ps package init pulls in modules that
        # import this module back (e.g. ps.master needs DRIVER), so a
        # top-level import would run against a partially-initialized
        # repro.cluster.cluster.  By instance-construction time both
        # packages are fully loaded.
        from repro.ps.consistency import make_consistency

        self.consistency = make_consistency(self.config)
        self._nodes = {}
        # Live topology counts.  They start at the configured sizes and
        # move only under elastic scaling (Cluster.add_executor /
        # add_server_node and PSMaster.resize_servers); with elasticity
        # off they are constants and everything behaves as before.
        self._n_executors = self.config.n_executors
        self._n_servers = self.config.n_servers
        self._add_node(DRIVER, ROLE_DRIVER)
        for index in range(self.config.n_executors):
            self._add_node(executor_id(index), ROLE_EXECUTOR)
        for index in range(self.config.n_servers):
            self._add_node(server_id(index), ROLE_SERVER)
        #: The windowed time-series sampler (``None`` when disabled, the
        #: default — a disabled sampler costs nothing anywhere).  Enabled,
        #: it only *reads* clocks/counters/horizons, so runs stay
        #: bit-identical either way.
        self.timeseries = None
        if self.config.timeseries_window > 0:
            from repro.obs.timeseries import TimeSeriesSampler

            self.timeseries = TimeSeriesSampler(
                self, self.config.timeseries_window
            )
            self.metrics.window_sink = self.timeseries
            self.stage_end_hooks.append(self.timeseries.maybe_flush)

    def _add_node(self, node_id, role):
        node = Node(node_id, role, self.config.node)
        self._nodes[node_id] = node
        # A node joining mid-run starts at the global time: it cannot
        # report completions in the past, and the clock floor never drops.
        self.clock.register(node_id, self.clock.global_time())
        self.network.register(node_id, self.config.node.nic_bandwidth)
        return node

    # -- topology ---------------------------------------------------------

    def node(self, node_id):
        """Look up a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError("unknown node %r" % (node_id,)) from None

    @property
    def driver(self):
        return self._nodes[DRIVER]

    @property
    def node_ids(self):
        """Every node id in registration order (driver first)."""
        return list(self._nodes)

    @property
    def executors(self):
        """Executor node ids in index order."""
        return [executor_id(i) for i in range(self._n_executors)]

    @property
    def servers(self):
        """Server node ids in index order."""
        return [server_id(i) for i in range(self._n_servers)]

    def add_executor(self):
        """Register one more executor (elastic scale-up); returns its id.

        Re-adding an index that existed earlier in the run reuses the
        registered node (clock/NIC state persists — the simulated machine
        was idle, not deallocated); a brand-new index registers a fresh
        node whose clock starts at the current global time, so a machine
        that joins mid-run cannot report completions in the past.
        """
        index = self._n_executors
        node_id = executor_id(index)
        if node_id not in self._nodes:
            self._add_node(node_id, ROLE_EXECUTOR)
        self._nodes[node_id].alive = True
        self._n_executors += 1
        return node_id

    def remove_executor(self):
        """Retire the highest-indexed executor (elastic scale-down).

        The node stays registered (its clock and NIC history are part of
        the run) but leaves the active set; a later :meth:`add_executor`
        can bring it back.
        """
        if self._n_executors <= 1:
            raise ClusterError("cannot remove the last executor")
        self._n_executors -= 1
        return executor_id(self._n_executors)

    def add_server_node(self):
        """Register one more server node (elastic scale-up); returns its id.

        Same reuse semantics as :meth:`add_executor`.  The PS master owns
        the server-side state machine (:meth:`PSMaster.resize_servers`);
        this only provides the simulated machine.
        """
        index = self._n_servers
        node_id = server_id(index)
        if node_id not in self._nodes:
            self._add_node(node_id, ROLE_SERVER)
        self._nodes[node_id].alive = True
        self._n_servers += 1
        return node_id

    def remove_server_node(self):
        """Retire the highest-indexed server node (elastic scale-down)."""
        if self._n_servers <= 1:
            raise ClusterError("cannot remove the last server")
        self._n_servers -= 1
        return server_id(self._n_servers)

    def notify_topology_change(self):
        """Fan a topology change out to registered invalidation hooks."""
        for hook in self.topology_change_hooks:
            hook()

    def nodes_by_role(self, role):
        """All node ids with the given role."""
        return [n.node_id for n in self._nodes.values() if n.role == role]

    @property
    def alive_executors(self):
        """Executor node ids currently up, in index order."""
        return [e for e in self.executors if self._nodes[e].alive]

    def fail_executor(self, node_id):
        """Kill an executor: its partitions will be reloaded elsewhere.

        Section 5.3 (executor failure): "PS2 relies on the fault tolerance
        provided by RDDs.  It simply launches a new executor and reloads
        that partition of training data from the input."
        """
        node = self.node(node_id)
        if node.role != ROLE_EXECUTOR:
            raise ClusterError("%r is not an executor" % (node_id,))
        node.alive = False
        self.metrics.increment("executor-failures")

    def restore_executor(self, node_id):
        """Bring a (replacement) executor up under the same id."""
        node = self.node(node_id)
        if node.role != ROLE_EXECUTOR:
            raise ClusterError("%r is not an executor" % (node_id,))
        node.alive = True

    # -- consistency ------------------------------------------------------

    def notify_clock_advance(self, node_id, clock_value):
        """Fan a worker's logical-clock tick out to registered hooks."""
        for hook in self.clock_advance_hooks:
            hook(node_id, clock_value)

    # -- cost charging ----------------------------------------------------

    def charge_flops(self, node_id, flops, tag="compute"):
        """Charge *flops* of work to *node_id*'s clock; returns new time."""
        seconds = self.node(node_id).compute_seconds(flops)
        self.metrics.record_compute(node_id, seconds, tag=tag)
        return self.clock.advance(node_id, seconds)

    def charge_seconds(self, node_id, seconds, tag="compute"):
        """Charge a raw duration (already in virtual seconds) to a node."""
        self.metrics.record_compute(node_id, seconds, tag=tag)
        return self.clock.advance(node_id, seconds)

    def elapsed(self):
        """Virtual makespan so far: the latest clock in the deployment."""
        return self.clock.global_time()

    def barrier(self, node_ids=None):
        """Synchronize a node group (all of them by default)."""
        if node_ids is None:
            node_ids = list(self._nodes)
        return self.clock.barrier(node_ids)
