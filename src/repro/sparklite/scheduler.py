"""Stage/task scheduler over the simulated cluster.

One action = one stage = one task per partition.  Tasks are assigned to
executors round-robin, launched with a small driver->executor control
message, retried on injected failures (discarding any deferred PS effects,
which is the exactly-once push guarantee), and their results are shipped to
the driver through the shared network model — so driver incast is charged
exactly as the paper measures it.
"""

from __future__ import annotations

from repro.cluster.cluster import DRIVER
from repro.common.errors import JobAbortedError, TaskError
from repro.common.sizeof import sizeof
from repro.costs import MAX_TASK_RETRIES, TASK_DESCRIPTION_BYTES, \
    TASK_OVERHEAD_SECONDS
from repro.sparklite.task import TaskContext


class Scheduler:
    """Runs stages of tasks over the cluster's executors."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._next_stage_id = 0
        self._placements = {}

    def executor_for(self, partition_id):
        """Deterministic partition -> executor placement over live executors.

        When an executor dies its partitions redistribute over the
        survivors; the first task touching a moved partition is charged the
        input reload (Section 5.3's executor-failure recovery).
        """
        executors = self.cluster.alive_executors
        if not executors:
            raise JobAbortedError("no live executors remain")
        return executors[partition_id % len(executors)]

    def run_stage(self, rdd, action, tag="stage", gather_results=True):
        """Execute ``action(ctx, iterator)`` once per partition.

        Returns the per-partition results (gathered at the driver) or, with
        ``gather_results=False``, a list of ``(executor_id, result)`` pairs
        left in place on the executors.
        """
        stage_id = self._next_stage_id
        self._next_stage_id += 1
        results = []
        arrivals = []
        committed = []
        network = self.cluster.network
        failures = self.cluster.failures
        tracer = self.cluster.tracer
        clock = self.cluster.clock
        # The stage barrier is a consistency-policy decision: under BSP
        # (model.barrier) executors start stages from the driver's clock and
        # the driver blocks on every result; under SSP/ASP the driver
        # pre-dispatches work (task descriptions still pay their bytes, but
        # deliver=False: they do not gate the executor) and each worker is
        # gated only by the model's own sync rule (TaskContext.sync_clock).
        model = self.cluster.consistency
        metrics = self.cluster.metrics
        stage_start = clock.now(DRIVER)
        # Hoisted off the per-task loop: these names are rebuilt for every
        # task otherwise (thousands of times per training run).
        task_span_name = "task:" + tag
        result_tag = tag + ":result"
        n_partitions = rdd.get_num_partitions()

        # The stage span stays open for the whole stage so everything it
        # causes hangs off it in the trace DAG: task spans (explicit
        # parent_id — they live on *executor* clocks), driver-side control
        # transfers (task-launch, recovery reloads, result gathering; via
        # trace_parent), and whatever PS traffic the tasks issue (via the
        # transport's trace_ctx).  The critical-path walk starts here.
        with tracer.span(DRIVER, "stage:%d:%s" % (stage_id, tag),
                         cat="stage",
                         n_tasks=n_partitions) as stage_span:
            stage_parent = None if stage_span is None else stage_span.span_id
            for partition_id in range(n_partitions):
                executor = self.executor_for(partition_id)
                # Executors run their queued tasks after the driver
                # submitted the stage, but in parallel with each other.
                if model.barrier:
                    self.cluster.clock.set_at_least(executor, stage_start)
                # Apply scheduled executor crashes that are due by now: the
                # dead executor's partitions redistribute over the survivors
                # (Section 5.3 — "launches a new executor and reloads that
                # partition of training data from the input").
                while failures.due_executor_failures(executor,
                                                     clock.now(executor)):
                    self.cluster.fail_executor(executor)
                    executor = self.executor_for(partition_id)
                    if model.barrier:
                        self.cluster.clock.set_at_least(executor, stage_start)
                previous = self._placements.get(partition_id)
                if previous is not None and previous != executor:
                    # The partition moved (executor failure): reload input.
                    nbytes = rdd.base_partition_nbytes(partition_id) or 0
                    network.transfer(
                        DRIVER, executor, nbytes, tag="executor-recovery",
                        trace_parent=stage_parent,
                    )
                    metrics.increment("partition-reloads")
                self._placements[partition_id] = executor
                attempt = 0
                while True:
                    network.transfer(
                        DRIVER, executor, TASK_DESCRIPTION_BYTES,
                        tag="task-launch", deliver=model.barrier,
                        trace_parent=stage_parent,
                    )
                    self.cluster.charge_seconds(
                        executor, TASK_OVERHEAD_SECONDS, tag="task-overhead"
                    )
                    ctx = TaskContext(
                        self.cluster, executor, stage_id, partition_id, attempt
                    )
                    task_start = clock.now(executor)
                    try:
                        with tracer.span(executor, task_span_name, cat="task",
                                         parent_id=stage_parent,
                                         stage=stage_id,
                                         partition=partition_id,
                                         attempt=attempt):
                            result = action(
                                ctx, rdd.compute(ctx, partition_id)
                            )
                    except TaskError:
                        raise
                    except Exception as exc:
                        ctx.abandon()
                        raise TaskError(
                            "task failed on %s: %r" % (executor, exc),
                            stage_id=stage_id,
                            partition_id=partition_id,
                            attempt=attempt,
                        ) from exc
                    metrics.observe("task", clock.now(executor) - task_start)
                    if failures.should_fail_task():
                        # The attempt's compute and pull traffic was already
                        # charged (it really happened); its deferred pushes
                        # are dropped so a retry can never double-apply them.
                        ctx.abandon()
                        metrics.increment("task-retries")
                        attempt += 1
                        if attempt > MAX_TASK_RETRIES:
                            raise JobAbortedError(
                                "partition %d of stage %d exhausted %d retries"
                                % (partition_id, stage_id, MAX_TASK_RETRIES)
                            )
                        continue
                    if model.commit_at_barrier:
                        committed.append(ctx)
                    else:
                        # Async pipelining: the task's deferred pushes apply
                        # as soon as it succeeds (still after the retry
                        # decision, so still exactly-once under task retry).
                        ctx.commit()
                    break
                if gather_results:
                    arrivals.append(
                        network.transfer(
                            executor, DRIVER, sizeof(result),
                            tag=result_tag, deliver=False,
                            trace_parent=stage_parent,
                        )
                    )
                    results.append(result)
                else:
                    results.append((executor, result))

            # Apply deferred side effects (PS pushes) only now, after every
            # task of the stage has computed.  Tasks of one stage must never
            # observe each other's pushes — that is exactly what Spark's
            # stage barrier guarantees, and what keeps the sequentially-
            # simulated tasks statistically identical to truly concurrent
            # ones.
            for ctx in committed:
                ctx.commit()

            # Stage barrier: the driver proceeds only once every result
            # landed.  (Results are gathered with deliver=False so that
            # tasks run in parallel; syncing per-result would serialize the
            # stage.)  Under SSP/ASP the driver's per-stage aggregation is
            # pipelined control work off the workers' critical path: result
            # bytes are still charged, but the driver clock does not chase
            # the slowest worker.
            if arrivals and model.barrier:
                clock.set_at_least(DRIVER, max(arrivals))
        stage_end = clock.now(DRIVER)
        metrics.observe("stage", stage_end - stage_start)
        # Post-barrier hooks (periodic checkpoint sweeps, time-series
        # window flushes): run once per stage, after every result landed,
        # on the driver's clock.
        for hook in self.cluster.stage_end_hooks:
            hook()
        return results
