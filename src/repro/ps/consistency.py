"""Pluggable consistency models: BSP, SSP and ASP execution.

The paper evaluates strictly BSP because Spark's stage barrier forces it,
while noting (Sections 2 and 6) that the PS architecture itself supports
relaxed consistency.  This module makes the barrier a *policy*:

- **BSP** — the default and the paper's behaviour.  The sparklite
  scheduler keeps its stage barrier, deferred pushes commit after every
  task of the stage computed, and every hook here is an exact no-op, so a
  BSP run is bit-identical to a pre-consistency-layer run.
- **SSP(s)** — stale-synchronous parallel.  Each worker carries a logical
  clock (one tick per task).  A worker beginning clock ``c`` blocks until
  every *other* worker has completed clock ``c - s - 1``; the wait is
  charged to its virtual clock (observed under ``staleness-wait``).
  ``s = 0`` permits no cross-clock staleness; growing ``s`` approaches ASP.
- **ASP** — fully asynchronous: no gate at all.

Under SSP/ASP the scheduler drops the stage barrier (tasks of stage
``c + 1`` start from their own executor's clock, gated only by the model),
commits deferred pushes per task instead of per stage, and the PS-client
grows a :class:`~repro.ps.cache.WorkerCache` whose reuse window is
:meth:`ConsistencyModel.cache_bound` clocks.

Sequential-simulation note: stages are simulated to completion in order,
so when any worker begins clock ``c`` the completion *times* of every
worker's clock ``c - 1`` (and older) are already known — the SSP gate is
exactly computable.  A worker whose target clock has not been simulated
yet (only possible for workers that never ran, e.g. idle executors) simply
does not contribute to the gate.

Interaction with hot-key replication: the consistency machinery's fencing
tokens cover replicas *by construction*.  The per-row ``(epoch, counter)``
tokens workers validate are always the **primary's**; a replica is only
readable while its install epoch equals the primary's current epoch and
its row counters track the primary's fan-out stream (see
:mod:`repro.ps.replication`), so under BSP replica reads are value-equal
to primary reads, and under SSP/ASP a replica can never be staler than
the bound the primary tokens already enforce.
"""

from __future__ import annotations

from collections import defaultdict

from repro.common.errors import ConfigError


class ConsistencyModel:
    """Policy object consulted by the scheduler, task contexts and clients.

    ``barrier`` — whether the scheduler keeps the stage barrier (driver
    waits for every result, executors start stages from the driver's
    clock).  ``commit_at_barrier`` — whether deferred task effects (PS
    pushes) commit after the whole stage computed (BSP exactly-once
    semantics) or immediately after each task succeeds (async pipelining;
    still exactly-once, since commit happens after the retry decision).
    """

    name = "?"
    barrier = True
    commit_at_barrier = True

    def cache_bound(self):
        """Worker-cache reuse window in clocks, or ``None`` for no cache."""
        return None

    def clock_of(self, worker):
        """The worker's current logical clock (tasks completed)."""
        return 0

    def sync(self, cluster, worker):
        """Gate *worker* before it begins its next clock (may block)."""

    def advance(self, cluster, worker):
        """Mark *worker*'s current clock complete and tick it forward."""


class BSPModel(ConsistencyModel):
    """Bulk-synchronous parallel: the stage barrier *is* the gate.

    Every method is an exact no-op — no state, no clock or metrics
    traffic — so the default configuration stays bit-identical to the
    pre-consistency-layer simulator.
    """

    name = "bsp"
    barrier = True
    commit_at_barrier = True


class _ClockedModel(ConsistencyModel):
    """Shared logical-clock bookkeeping for the relaxed models."""

    barrier = False
    commit_at_barrier = False

    def __init__(self, staleness=0):
        self.staleness = int(staleness)
        self.clocks = defaultdict(int)
        #: ``(worker, clock) -> virtual completion time`` of that clock.
        self.completions = {}
        self.workers = set()

    def clock_of(self, worker):
        return self.clocks[worker]

    def advance(self, cluster, worker):
        clock = self.clocks[worker]
        self.workers.add(worker)
        self.completions[(worker, clock)] = cluster.clock.now(worker)
        self.clocks[worker] = clock + 1
        cluster.notify_clock_advance(worker, clock + 1)


class SSPModel(_ClockedModel):
    """Stale-synchronous parallel with staleness bound ``s``."""

    name = "ssp"

    def cache_bound(self):
        return self.staleness

    def sync(self, cluster, worker):
        self.workers.add(worker)
        target = self.clocks[worker] - self.staleness - 1
        if target < 0:
            return
        gate = 0.0
        for other in self.workers:
            if other == worker:
                continue
            done_at = self.completions.get((other, target))
            if done_at is not None:
                gate = max(gate, done_at)
        now = cluster.clock.now(worker)
        wait = gate - now
        if wait > 0:
            cluster.metrics.observe("staleness-wait", wait)
            cluster.metrics.increment("staleness-waits")
            tracer = cluster.tracer
            if tracer.enabled:
                tracer.record(worker, "staleness-wait", now, gate, cat="op",
                              clock=self.clocks[worker], target=target)
            cluster.clock.set_at_least(worker, gate)


class ASPModel(_ClockedModel):
    """Fully asynchronous: clocks tick (for the cache) but never gate."""

    name = "asp"

    def cache_bound(self):
        # ASP has no blocking bound; ``staleness`` (if set) sizes the
        # cache's reuse window, defaulting to one clock of reuse.
        return max(1, self.staleness)

    def sync(self, cluster, worker):
        self.workers.add(worker)


def make_consistency(config):
    """The model selected by ``config.consistency`` / ``config.staleness``."""
    name = config.consistency
    staleness = int(config.staleness)
    if name == "bsp":
        return BSPModel()
    if name == "ssp":
        return SSPModel(staleness)
    if name == "asp":
        return ASPModel(staleness)
    raise ConfigError("unknown consistency model %r" % (name,))
