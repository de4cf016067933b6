"""Timing shims: every layer measured from outside, installed at run time.

:func:`install` replaces the public entry points of each layer (the
``TARGETS`` table) with pass-through wrappers for the duration of one
traced repeat; :func:`uninstall` puts the originals back.  Nothing under
``src/repro`` changes, and ``cluster.tracer`` stays off — turning it on
would change the code path under observation.

Attribution is by time slicing: the recorder knows which bucket is
"current"; at every boundary crossing the time since the previous
crossing is added to the bucket being left.  That equals the textbook
"self time = span duration minus the part its child spans cover", needs
one clock read per crossing, and attributes every traced microsecond to
exactly one bucket — time outside every shim lands in ``bench`` (the
driver loop; reported as ``bench.unattributed_share``).  A bucket is a
layer, or ``layer:part`` where a layer metric needs a finer split
(``ps.client:read`` / ``:write``, ``ml:kernel`` / ``:gradient``).

Raw spans ``(name, start, end, parent, op)`` are kept in memory for the
first ``RAW_OPS`` units of work and written by the caller at the end;
past that only the per-name ``(calls, inclusive seconds)`` aggregates
and the per-bucket self times grow, so a full-length stream can be
traced in constant memory.

A target that no longer exists is skipped and counted
(``bench.shims_missing``): a later change that deletes a function loses
that span's attribution to its caller, not the benchmark.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

#: The repo's layers, in the order reports print them.
LAYERS = (
    "ml", "core", "sparklite", "ps.client", "ps.transport", "ps.server",
    "ps.master", "ps.replication", "ps.costmodel", "ps.codecs",
    "cluster.network", "cluster.resource", "cluster.metrics", "obs",
    "serving",
)

#: Raw spans are kept for this many units of work (and at most RAW_SPANS).
RAW_OPS = 200
RAW_SPANS = 400_000

_CLIENT_READS = ("pull_row", "pull_block", "pull_range", "pull_or_create",
                 "aggregate_row")
_CLIENT_WRITES = ("push_add", "push_assign", "push_range", "push_block_add",
                  "fill_row")
_DCV_OPS = (
    "pull", "push", "add", "sum", "nnz", "norm2", "dot", "iaxpy", "copy",
    "add_vec", "sub", "mul", "div", "iadd", "isub", "imul", "idiv", "scale",
    "shift", "fill", "zero", "randomize", "derive", "free", "materialize",
)
_METRIC_RECORDS = (
    "record_transfer", "record_transfer_many", "record_transfer_fanout",
    "record_transfer_gather", "record_compute", "record_request",
    "record_shard_access", "record_shard_access_many",
    "record_service_chain", "record_service_bulk", "record_cache_hit",
    "record_cache_miss", "record_codec_decision", "observe", "increment",
)

#: ``(bucket, "module:attr.path")``; ``name[key]`` addresses a dict entry.
TARGETS = (
    [("ps.client:read", "repro.ps.client:PSClient." + op) for op in _CLIENT_READS]
    + [("ps.client:write", "repro.ps.client:PSClient." + op)
       for op in _CLIENT_WRITES]
    + [("ps.client:kernel", "repro.ps.client:PSClient.execute")]
    + [("ps.transport", "repro.ps.transport:Transport." + name)
       for name in ("send", "send_all", "layout", "invalidate")]
    + [("ps.server", "repro.ps.server:PSServer." + name)
       for name in ("dispatch", "execute_kernel", "allocate_row",
                    "install_replica", "snapshot")]
    # transport calls the name it imported, so that is the one to replace
    + [("ps.server", "repro.ps.transport:serve_fast_fanout")]
    + [("ps.master", "repro.ps.master:PSMaster." + name)
       for name in ("create_matrix", "create_table", "register_lazy_rows",
                    "free_matrix", "layout", "maybe_checkpoint",
                    "maybe_rebalance", "checkpoint_all", "recover", "repair",
                    "resize_servers")]
    + [("ps.replication", "repro.ps.replication:HotKeyManager." + name)
       for name in ("route_read", "fan_out_messages", "maybe_rebalance",
                    "on_direct_write")]
    + [("ps.replication", "repro.ps.replication:ChainReplicator." + name)
       for name in ("route_read", "fan_out_messages", "on_matrix_created",
                    "on_row_created", "on_direct_write", "sync_key",
                    "reform")]
    + [("ps.costmodel", "repro.ps.costmodel:CostModel." + name)
       for name in ("prepare", "replication_worthwhile",
                    "priced_pull_response_bytes",
                    "priced_chain_value_bytes")]
    + [("ps.codecs", "repro.ps.codecs:%s.%s" % (codec, method))
       for codec in ("IdentityCodec", "Fp16Codec", "Int8Codec", "TopKCodec",
                     "DeltaCodec")
       for method in ("encode", "decode")]
    + [("cluster.network", "repro.cluster.network:NetworkModel." + name)
       for name in ("transfer", "transfer_many", "transfer_gather")]
    + [("cluster.resource", "repro.cluster.resource:TimelineResource." + name)
       for name in ("reserve", "reserve_many", "reserve_chain", "probe",
                    "commit")]
    + [("cluster.metrics", "repro.cluster.metrics:MetricsRegistry." + name)
       for name in _METRIC_RECORDS]
    + [("obs", "repro.obs.tracer:Tracer." + name)
       for name in ("record", "span")]
    + [("obs", "repro.obs.timeseries:TimeSeriesSampler." + name)
       for name in ("observe", "maybe_flush", "finalize")]
    + [("sparklite", "repro.sparklite.scheduler:Scheduler." + name)
       for name in ("run_stage", "tree_combine")]
    + [("sparklite", "repro.sparklite.context:SparkContext." + name)
       for name in ("parallelize", "broadcast")]
    + [("core", "repro.core.dcv:DCV." + op) for op in _DCV_OPS]
    + [("core", "repro.core.zipop:DCVZip.map_partitions"),
       ("core", "repro.core.context:PS2Context.dense"),
       ("core", "repro.core.context:PS2Context.realign"),
       ("core", "repro.core.pool:DCVPool.acquire"),
       ("core", "repro.core.pool:DCVPool.release")]
    + [("ml:kernel", "repro.core.kernels:" + name)
       for name in ("dot_kernel", "axpy_kernel", "copy_kernel",
                    "scale_kernel", "shift_kernel", "binary_kernel",
                    "inplace_binary_kernel", "adam_update_kernel",
                    "sgd_update_kernel", "adagrad_update_kernel",
                    "rmsprop_update_kernel")]
    + [("ml:gradient", "repro.ml.linear:_LOSS_FUNCTIONS[logistic]"),
       ("ml", "repro.ml.linear:batch_index_union"),
       ("ml", "repro.ml.lr:train_logistic_regression"),
       ("ml", "repro.ml.optim.base:ServerSideOptimizer.bind"),
       ("ml", "repro.ml.optim.base:ServerSideOptimizer.zero_grad"),
       ("ml", "repro.ml.optim.base:ServerSideOptimizer.step")]
    + [("serving", "repro.serving.scenario:run_serving"),
       ("serving", "repro.serving.slo:SLOTracker.observe"),
       ("serving:traffic",
        "repro.serving.traffic:TrafficGenerator.generate")]
)


def span_name(bucket, path):
    """``layer.function`` — the name spans and aggregates are keyed by."""
    layer = bucket.split(":")[0]
    leaf = path.split(":")[1].split(".")[-1]
    return "%s.%s" % (layer, leaf.replace("[", ".").rstrip("]"))


class Recorder:
    """Per-bucket self time, per-name aggregates, and the first raw spans."""

    ROOT = 0  # bucket 0 is "bench": time outside every shim

    def __init__(self, op_marks=()):
        self.buckets = ["bench"]
        self.self_s = [0.0]
        #: ``[current bucket, time of last crossing, current span id]``
        self.state = [self.ROOT, 0.0, -1]
        self.by_name = {}
        self.layer_of = {}
        self.spans = []
        self.raw = self.spans
        self.op = -1
        self.op_marks = tuple(op_marks)
        #: Exact counts read off shim arguments and return values.
        self.counts = {}
        self.missing = []
        self._installed = []
        self.started = self.stopped = 0.0

    def bucket_id(self, bucket):
        if bucket not in self.buckets:
            self.buckets.append(bucket)
            self.self_s.append(0.0)
        return self.buckets.index(bucket)

    def next_op(self):
        self.op += 1
        if self.op >= RAW_OPS or len(self.spans) >= RAW_SPANS:
            self.raw = None

    def start(self):
        """Begin the traced section: forget whatever set-up ran through
        the shims (in place — the shims hold these objects)."""
        self.self_s[:] = [0.0] * len(self.self_s)
        for stats in self.by_name.values():
            stats[:] = [0, 0.0]
        for key, value in self.counts.items():
            if isinstance(value, (dict, list)):
                value.clear()
            else:
                self.counts[key] = 0
        del self.spans[:]
        self.raw, self.op = self.spans, -1
        self.state[:] = [self.ROOT, perf_counter(), -1]
        self.started = self.state[1]

    def stop(self):
        self.stopped = now = perf_counter()
        self.self_s[self.state[0]] += now - self.state[1]
        self.state[1] = now

    # -- results ---------------------------------------------------------

    def layer_table(self):
        """``{layer: {"calls", "self_s", "self_share"}}`` + ``bench``."""
        total = self.stopped - self.started
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        table["bench"] = {"calls": 0, "self_s": 0.0}
        for bucket, seconds in zip(self.buckets, self.self_s):
            table[bucket.split(":")[0]]["self_s"] += seconds
        for name, (calls, _inclusive) in self.by_name.items():
            table[self.layer_of[name]]["calls"] += calls
        for row in table.values():
            row["self_share"] = row["self_s"] / total if total > 0 else 0.0
        return table

    def bucket_self(self, bucket):
        if bucket in self.buckets:
            return self.self_s[self.buckets.index(bucket)]
        return 0.0

    def calls(self, name):
        return self.by_name.get(name, (0, 0.0))[0]


def _shim(rec, fn, bucket, name):
    """Wrap *fn*: slice time at entry and exit, count, keep a raw span."""
    lid = rec.bucket_id(bucket)
    state, self_s = rec.state, rec.self_s
    stats = rec.by_name.setdefault(name, [0, 0.0])
    rec.layer_of[name] = bucket.split(":")[0]
    marks = name.startswith(rec.op_marks) if rec.op_marks else False
    clock = perf_counter

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        prev = state[0]
        t0 = clock()
        self_s[prev] += t0 - state[1]
        state[0] = lid
        state[1] = t0
        stats[0] += 1
        if marks:
            rec.next_op()
        raw = rec.raw
        if raw is not None:
            parent = state[2]
            state[2] = span_id = len(raw)
            raw.append(None)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            self_s[lid] += t1 - state[1]
            state[0] = prev
            state[1] = t1
            stats[1] += t1 - t0
            if raw is not None:
                raw[span_id] = (name, t0, t1, parent, rec.op)
                state[2] = parent

    return shim


# -- probes: exact counts from arguments and return values ----------------

def _probe_reserve(rec):
    """Waits (``start - earliest``), job counts and the longest interval
    list, per resource object, from the ``reserve*`` return values."""
    counts = rec.counts
    counts.update({"reservations": 0, "peak_intervals": 0})
    wait_by_resource = counts.setdefault("wait_by_resource", {})
    depth = [0]  # reserve_many / reserve_chain fall back to reserve()

    def note(resource, jobs, wait):
        counts["reservations"] += jobs
        key = id(resource)
        wait_by_resource[key] = wait_by_resource.get(key, 0.0) + wait
        if len(resource) > counts["peak_intervals"]:
            counts["peak_intervals"] = len(resource)

    def reserve(fn):
        @functools.wraps(fn)
        def probed(self, earliest, duration):
            start = fn(self, earliest, duration)
            if not depth[0]:
                note(self, 1, start - earliest)
            return start
        return probed

    def probe(fn):
        @functools.wraps(fn)
        def probed(self, earliest, duration):
            index, start = fn(self, earliest, duration)
            note(self, 1, start - earliest)
            return index, start
        return probed

    def reserve_many(fn):
        @functools.wraps(fn)
        def probed(self, jobs):
            jobs = list(jobs)
            depth[0] += 1
            try:
                starts = fn(self, jobs)
            finally:
                depth[0] -= 1
            note(self, len(jobs),
                 sum(starts) - sum(earliest for earliest, _d in jobs))
            return starts
        return probed

    def reserve_chain(fn):
        @functools.wraps(fn)
        def probed(self, earliest, durations):
            durations = list(durations)
            depth[0] += 1
            try:
                starts = fn(self, earliest, durations)
            finally:
                depth[0] -= 1
            if starts:
                # everything between arrival and the chain's end that was
                # not service is wait
                end = starts[-1] + max(durations[-1], 0.0)
                note(self, len(durations),
                     end - earliest - sum(d for d in durations if d > 0))
            return starts
        return probed

    return {"TimelineResource." + fn.__name__: fn
            for fn in (reserve, probe, reserve_many, reserve_chain)}


def _probe_server(rec):
    """Messages served by ``serve_fast_fanout`` vs dispatched one by one."""
    counts = rec.counts
    counts.update({"fast_messages": 0, "dispatched_messages": 0})
    depth = [0]  # batch subs and the fan-out's slow lane nest dispatch()

    def dispatch(fn):
        @functools.wraps(fn)
        def probed(self, request):
            if not depth[0]:
                counts["dispatched_messages"] += 1
            depth[0] += 1
            try:
                return fn(self, request)
            finally:
                depth[0] -= 1
        return probed

    def serve_fast_fanout(fn):
        @functools.wraps(fn)
        def probed(cluster, fan_servers, fan_messages, fan_arrivals):
            counts["fast_messages"] += len(fan_messages)
            depth[0] += 1
            try:
                return fn(cluster, fan_servers, fan_messages, fan_arrivals)
            finally:
                depth[0] -= 1
        return probed

    return {"PSServer.dispatch": dispatch,
            "serve_fast_fanout": serve_fast_fanout}


def _probe_late_start(rec):
    """The worker's virtual clock as each request's first op begins; the
    caller subtracts the scheduled arrivals (``serving.late_start_s``)."""
    starts = rec.counts.setdefault("request_starts", [])

    def pull_or_create(fn):
        @functools.wraps(fn)
        def probed(self, matrix_id, rows):
            starts.append(self.cluster.clock.now(self.node_id))
            return fn(self, matrix_id, rows)
        return probed

    return {"PSClient.pull_or_create": pull_or_create}


# -- install / uninstall ----------------------------------------------------

def _resolve(path):
    """``(owner, attribute-or-key, original, is_item)`` or ``None``."""
    module_name, attr_path = path.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    leaf = parts[-1]
    if leaf.endswith("]"):
        leaf, key = leaf[:-1].split("[")
        table = getattr(owner, leaf, None)
        if not isinstance(table, dict) or key not in table:
            return None
        return table, key, table[key], True
    # vars(): the function as defined on this class, not an inherited one
    original = vars(owner).get(leaf)
    if not callable(original):
        return None
    return owner, leaf, original, False


def install(rec):
    """Replace every resolvable target with its shim; returns *rec*."""
    probes = {}
    for make in (_probe_reserve, _probe_server, _probe_late_start):
        probes.update(make(rec))
    for bucket, path in TARGETS:
        resolved = _resolve(path)
        if resolved is None:
            rec.missing.append(path)
            continue
        owner, leaf, original, is_item = resolved
        fn = original
        if path.split(":")[1] in probes:
            # the probe sits inside the shim: its cost is the layer's own
            fn = probes[path.split(":")[1]](fn)
        shim = _shim(rec, fn, bucket, span_name(bucket, path))
        if is_item:
            owner[leaf] = shim
        else:
            setattr(owner, leaf, shim)
        rec._installed.append((owner, leaf, original, is_item))
    return rec


def uninstall(rec):
    """Put every original back."""
    for owner, leaf, original, is_item in reversed(rec._installed):
        if is_item:
            owner[leaf] = original
        else:
            setattr(owner, leaf, original)
    rec._installed = []
