"""Resilient distributed datasets, miniature edition.

An RDD is a lineage of per-partition transformations over materialized base
data.  Transformations (``map``, ``map_partitions``, ``sample``, ``cache``)
are lazy; actions (``collect``, ``count``, ``reduce``, ``aggregate``,
``sum``, ``max``, ``min``) submit a stage to the scheduler, which runs one
task per partition on the simulated executors and ships results back to the
driver with full network-cost accounting.

The subset implemented is exactly what the paper's workloads, baselines,
benchmarks and examples exercise: data parallel map/aggregate pipelines
with driver-side combination — there is no shuffle, because none of the
four workloads needs one.  ``tests/test_surface.py`` keeps it that way.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.common.errors import SparkliteError
from repro.common.rng import RngRegistry
from repro.common.sizeof import sizeof
from repro.costs import RECORD_FLOPS
from repro.sparklite.task import call_partition_function, with_context


class RDD:
    """Base class: a partitioned, lazily transformed dataset."""

    def __init__(self, context, n_partitions):
        self.context = context
        self.n_partitions = int(n_partitions)

    # -- lineage ----------------------------------------------------------

    def compute(self, ctx, partition_id):
        """Yield the elements of *partition_id* (subclasses implement)."""
        raise NotImplementedError

    def get_num_partitions(self):
        return self.n_partitions

    def base_partition_nbytes(self, partition_id):
        """Bytes of the base data behind *partition_id* (None if unknown).

        Used by the scheduler to charge the input reload when a partition
        moves to a replacement executor after an executor failure.
        """
        parent = getattr(self, "parent", None)
        if parent is not None:
            return parent.base_partition_nbytes(partition_id)
        return None

    # -- transformations --------------------------------------------------

    def map_partitions(self, func):
        """Apply ``func(iterator)`` (or ``func(ctx, iterator)`` if marked
        via :func:`repro.sparklite.task.with_context`) to each partition."""
        return MapPartitionsRDD(self, func)

    def map_partitions_with_context(self, func):
        """Like :meth:`map_partitions` but ``func`` takes ``(ctx, iterator)``."""
        return MapPartitionsRDD(self, with_context(func))

    def map(self, func):
        """Element-wise transformation."""
        return self.map_partitions(lambda it: (func(x) for x in it))

    def sample(self, fraction, seed=0):
        """Bernoulli sample of roughly *fraction* of each partition.

        A new *seed* gives a new sample; the same seed always gives the same
        sample, which is how minibatch SGD draws a fresh batch per iteration.
        """
        if not 0.0 <= fraction <= 1.0:
            raise SparkliteError("sample fraction must be in [0, 1]")
        return SampledRDD(self, fraction, seed)

    def cache(self):
        """Materialize each partition on first computation and reuse it."""
        return CachedRDD(self)

    # -- actions ----------------------------------------------------------

    def collect(self):
        """All elements, gathered at the driver."""

        def action(ctx, iterator):
            return list(iterator)

        parts = self.context.scheduler.run_stage(self, action, tag="collect")
        return [x for part in parts for x in part]

    def count(self):
        """Number of elements."""

        def action(ctx, iterator):
            return sum(1 for _ in iterator)

        parts = self.context.scheduler.run_stage(self, action, tag="count")
        return int(sum(parts))

    def reduce(self, func):
        """Fold all elements with a commutative, associative *func*."""

        def action(ctx, iterator):
            acc = None
            empty = True
            for x in iterator:
                acc = x if empty else func(acc, x)
                empty = False
            return (empty, acc)

        parts = self.context.scheduler.run_stage(self, action, tag="reduce")
        values = [acc for empty, acc in parts if not empty]
        if not values:
            raise SparkliteError("reduce on an empty RDD")
        result = values[0]
        for value in values[1:]:
            result = func(result, value)
        return result

    def aggregate(self, zero_value, seq_op, comb_op):
        """Per-partition fold (``seq_op``) then driver-side merge (``comb_op``).

        This is the operation Spark MLlib's gradient aggregation uses; all
        per-partition results travel to the single driver (Figure 1's
        bottleneck).
        """

        def action(ctx, iterator):
            acc = _copy_zero(zero_value)
            for x in iterator:
                acc = seq_op(acc, x)
            return acc

        parts = self.context.scheduler.run_stage(self, action, tag="aggregate")
        result = _copy_zero(zero_value)
        for part in parts:
            result = comb_op(result, part)
        return result

    def sum(self):
        """Sum of (numeric) elements; 0.0 when empty."""

        def action(ctx, iterator):
            return float(sum(iterator))

        parts = self.context.scheduler.run_stage(self, action, tag="sum")
        return float(sum(parts))

    def max(self):
        """Largest element."""
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self):
        """Smallest element."""
        return self.reduce(lambda a, b: a if a <= b else b)



def _copy_zero(zero_value):
    """Fresh copy of an aggregation zero (mutable zeros must not be shared)."""
    if isinstance(zero_value, np.ndarray):
        return zero_value.copy()
    if isinstance(zero_value, (list, dict, set)):
        return type(zero_value)(zero_value)
    return zero_value


class ParallelizedRDD(RDD):
    """Base data distributed from the driver, one list per partition."""

    def __init__(self, context, partitions):
        super().__init__(context, len(partitions))
        self._partitions = [list(p) for p in partitions]

    def compute(self, ctx, partition_id):
        data = self._partitions[partition_id]
        if data:
            ctx.charge_flops(RECORD_FLOPS * len(data), tag="scan")
        return iter(data)

    def base_partition_nbytes(self, partition_id):
        return sizeof(self._partitions[partition_id])


class MapPartitionsRDD(RDD):
    """Lazy per-partition transformation of a parent RDD."""

    def __init__(self, parent, func):
        super().__init__(parent.context, parent.n_partitions)
        self.parent = parent
        self.func = func

    def compute(self, ctx, partition_id):
        upstream = self.parent.compute(ctx, partition_id)
        return iter(call_partition_function(self.func, ctx, upstream))


class SampledRDD(RDD):
    """Seeded Bernoulli sample of the parent."""

    def __init__(self, parent, fraction, seed):
        super().__init__(parent.context, parent.n_partitions)
        self.parent = parent
        self.fraction = float(fraction)
        self.seed = int(seed)

    def compute(self, ctx, partition_id):
        # One draw per partition: PCG64 fills an array with the values n
        # scalar draws would return, so the sample is the per-element one.
        rng = RngRegistry(self.seed).get("sample-%d" % partition_id)
        upstream = list(self.parent.compute(ctx, partition_id))
        kept = rng.random(len(upstream)) < self.fraction
        return itertools.compress(upstream, kept.tolist())


class CachedRDD(RDD):
    """Materializes each partition once, then serves it from memory."""

    def __init__(self, parent):
        super().__init__(parent.context, parent.n_partitions)
        self.parent = parent
        self._storage = {}

    def compute(self, ctx, partition_id):
        if partition_id not in self._storage:
            self._storage[partition_id] = list(
                self.parent.compute(ctx, partition_id)
            )
        return iter(self._storage[partition_id])
