"""Seeded failure injection.

Reproduces the fault-tolerance experiments of Section 6.5: tasks fail with
a configurable Bernoulli probability and are retried by the sparklite
scheduler; server and executor crashes are scheduled at explicit virtual
times; transient network partitions cover a node for a virtual-time window.
Server crashes trigger checkpoint recovery in the PS substrate, executor
crashes trigger partition redistribution in the scheduler, and partitioned
transfers are retried under the PS client's retry policy — in one retry
order on either transmit schedule, which never asks what is scheduled.
"""

from __future__ import annotations

from repro.common.errors import ConfigError

#: Shared empty result for the no-failures fast path (callers only read it).
_NO_EVENTS = []


class FailureInjector:
    """Decides, deterministically, when simulated components fail."""

    def __init__(self, rng, task_failure_prob=0.0, max_task_retries=10):
        if not 0.0 <= task_failure_prob <= 1.0:
            raise ConfigError(
                "task_failure_prob must be in [0, 1], got %r" % (task_failure_prob,)
            )
        self._rng = rng
        self.task_failure_prob = float(task_failure_prob)
        self.max_task_retries = int(max_task_retries)
        #: Pending server crashes and partition windows: a component that
        #: checks them per item (the fan-out serve lane, the network model)
        #: first hoists one truthiness test, free when nothing is scheduled.
        self.server_failures = []
        self._executor_failures = []
        self.partitions = []
        self.injected_task_failures = 0
        self.injected_executor_failures = 0

    # -- task failures (Bernoulli, Figure 13(c)) ----------------------------

    def should_fail_task(self):
        """Whether the task attempt being launched should fail."""
        if self.task_failure_prob == 0.0:
            return False
        failed = bool(self._rng.random() < self.task_failure_prob)
        if failed:
            self.injected_task_failures += 1
        return failed

    # -- server crashes (virtual-time scheduled) ----------------------------

    def schedule_server_failure(self, server_id, at_time):
        """Arrange for *server_id* to crash once its clock passes *at_time*."""
        self.server_failures.append({"server": server_id, "time": float(at_time)})

    def due_server_failures(self, server_id, now):
        """Pop and return the failures scheduled for *server_id* up to *now*."""
        if not self.server_failures:
            return _NO_EVENTS
        due = [
            event
            for event in self.server_failures
            if event["server"] == server_id and event["time"] <= now
        ]
        if due:
            self.server_failures = [
                event for event in self.server_failures if event not in due
            ]
        return due

    # -- executor crashes (virtual-time scheduled) --------------------------

    def schedule_executor_failure(self, executor_id, at_time):
        """Arrange for *executor_id* to die once its clock passes *at_time*.

        The sparklite scheduler polls these before placing tasks; a dead
        executor's partitions redistribute over the survivors and the first
        task touching a moved partition pays the input reload (Section 5.3's
        executor-failure recovery).
        """
        self._executor_failures.append(
            {"executor": executor_id, "time": float(at_time)}
        )

    def due_executor_failures(self, executor_id, now):
        """Pop and return the crashes scheduled for *executor_id* up to *now*."""
        if not self._executor_failures:
            return _NO_EVENTS
        due = [
            event
            for event in self._executor_failures
            if event["executor"] == executor_id and event["time"] <= now
        ]
        if due:
            self._executor_failures = [
                event for event in self._executor_failures if event not in due
            ]
            self.injected_executor_failures += len(due)
        return due

    # -- network partitions (transient windows) -----------------------------

    def schedule_partition(self, node_id, start, stop):
        """Partition *node_id* away from the fabric during ``[start, stop)``.

        Transfers whose departure time falls inside the window and touch the
        node raise :class:`~repro.common.errors.NetworkPartitionedError`
        (a bulk fan-out reports it per item); callers with a retry policy
        back off (advancing their virtual clock) and outlast the window.
        """
        start = float(start)
        stop = float(stop)
        if stop <= start:
            raise ConfigError(
                "partition window must end after it starts, got [%r, %r)"
                % (start, stop)
            )
        self.partitions.append({"node": node_id, "start": start, "stop": stop})

    def partition_active(self, node_id, at_time):
        """Whether *node_id* is inside a partition window at *at_time*."""
        return any(
            window["node"] == node_id
            and window["start"] <= at_time < window["stop"]
            for window in self.partitions
        )
