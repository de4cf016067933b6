"""Traffic, work and latency accounting for the simulated cluster.

The registry is append-cheap (plain counters plus O(1) streaming
histograms) and queried by benchmarks to report *why* one system beats
another: bytes moved per node, messages per operation tag, virtual seconds
of compute charged per node, latency percentiles per op, and per-shard
access counts that expose hot parameters and server load imbalance.

Everything here is passive bookkeeping: recording never touches a clock or
a resource timeline, so metrics (like tracing) cannot perturb the cost
model.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.histogram import StreamingHistogram


class MetricsRegistry:
    """Counters for bytes, messages, compute, latency and shard load."""

    def __init__(self):
        self.bytes_sent = defaultdict(float)
        self.bytes_received = defaultdict(float)
        self.bytes_by_tag = defaultdict(float)
        self.messages_by_tag = defaultdict(int)
        # Logical requests per tag: a coalesced batch is ONE wire message
        # (messages_by_tag) carrying N sub-requests (logical_messages_by_tag);
        # the gap between the two is the header-amortization win.
        self.logical_messages_by_tag = defaultdict(int)
        self.compute_seconds = defaultdict(float)
        self.counters = defaultdict(int)
        # Compute-op counts get their own namespace: written into
        # ``counters`` as "compute:<tag>", they would collide with any
        # free-form ``increment`` name starting with that prefix.
        self.compute_counts = defaultdict(int)
        self.requests_by_server = defaultdict(int)
        self.requests_by_server_tag = defaultdict(int)
        self.shard_requests = defaultdict(int)
        self.shard_values = defaultdict(float)
        # Per-shard wire volume (request + response bytes attributed by the
        # transport from the message formulas) — tells whether a hot shard
        # is hot by byte cost, not just request count.
        self.shard_bytes = defaultdict(float)
        # Worker-cache accounting, per node: hits served locally, misses
        # that went to the wire, and the wire bytes the hits avoided.
        self.cache_hits = defaultdict(int)
        self.cache_misses = defaultdict(int)
        self.cache_bytes_saved = defaultdict(float)
        # Wire-codec decisions by the cost model, keyed (tag, codec name):
        # how often each codec was chosen for each message tag, and the
        # wire bytes saved vs the identity encoding ("identity" rows count
        # the messages the model deliberately left uncompressed).
        self.codec_decisions = defaultdict(int)
        self.codec_bytes_saved = defaultdict(float)
        self.latency = {}
        #: Optional per-window sink (``repro.obs.timeseries``): when set,
        #: every ``observe()`` is mirrored into the sink's current-window
        #: histogram.  Purely additive bookkeeping — the sink never touches
        #: a clock, so attaching one cannot perturb the cost model.
        self.window_sink = None

    # -- recording ---------------------------------------------------------

    def record_transfer(self, src, dst, nbytes, tag="transfer", messages=1):
        """Account one *src* -> *dst* wire message of *nbytes* under *tag*.

        *messages* is the number of logical requests the wire message
        carries (> 1 for a coalesced batch envelope).
        """
        self.bytes_sent[src] += nbytes
        self.bytes_received[dst] += nbytes
        self.bytes_by_tag[tag] += nbytes
        self.messages_by_tag[tag] += 1
        self.logical_messages_by_tag[tag] += messages

    def _record_transfer_star(self, spokes, hubs, hub, items):
        """Bulk-record transfers that share one endpoint: *items* of
        (spoke node, nbytes, tag, messages) all to or from *hub*.

        *spokes* / *hubs* are the per-node byte ledgers of the two ends
        (``bytes_received`` / ``bytes_sent`` for a fan-out, swapped for a
        gather).  Wire byte counts are integer-valued floats (well below
        2**53), so scalar accumulation followed by one ``+=`` per
        aggregate is exact — bit-identical to per-message
        :meth:`record_transfer` — while doing one dict update per item
        instead of five.  Per-tag sums are flushed per run of equal tags
        (fan-outs are usually single-tag).
        """
        bytes_by_tag = self.bytes_by_tag
        messages_by_tag = self.messages_by_tag
        logical = self.logical_messages_by_tag
        total = 0.0
        tag0 = None
        tag_sum = 0.0
        tag_msgs = 0
        tag_logical = 0
        for spoke, nbytes, tag, messages in items:
            spokes[spoke] += nbytes
            total += nbytes
            if tag is tag0 or tag == tag0:
                tag_sum += nbytes
                tag_msgs += 1
                tag_logical += messages
            else:
                if tag_msgs:
                    bytes_by_tag[tag0] += tag_sum
                    messages_by_tag[tag0] += tag_msgs
                    logical[tag0] += tag_logical
                tag0 = tag
                tag_sum = nbytes
                tag_msgs = 1
                tag_logical = messages
        if tag_msgs:
            bytes_by_tag[tag0] += tag_sum
            messages_by_tag[tag0] += tag_msgs
            logical[tag0] += tag_logical
        hubs[hub] += total

    def record_transfer_fanout(self, src, items):
        """Bulk-record a one-source fan-out: *items* of (dst, nbytes, tag,
        messages), all sharing *src*."""
        self._record_transfer_star(self.bytes_received, self.bytes_sent,
                                   src, items)

    def record_transfer_gather(self, dst, items):
        """Bulk-record a one-sink gather: *items* of (src, nbytes, tag,
        messages), all sharing *dst*."""
        self._record_transfer_star(self.bytes_sent, self.bytes_received,
                                   dst, items)

    def record_compute(self, node_id, seconds, tag="compute"):
        """Account *seconds* of virtual compute on *node_id*."""
        self.compute_seconds[node_id] += seconds
        self.compute_counts[tag] += 1

    def increment(self, name, amount=1):
        """Bump a free-form counter (task retries, checkpoints, ...)."""
        self.counters[name] += amount

    def record_request(self, node_id, tag="request"):
        """Count one request served by *node_id* (server load accounting)."""
        self.requests_by_server[node_id] += 1
        self.requests_by_server_tag[(node_id, tag)] += 1

    def record_shard_access(self, matrix_id, server_index, n_values,
                            n_requests=1, nbytes=0.0):
        """Count an access of *n_values* parameters on one matrix shard.

        ``nbytes`` is the wire volume (request + response) the access cost,
        as priced by the message formulas — 0 for callers that only track
        counts.
        """
        key = (matrix_id, int(server_index))
        self.shard_requests[key] += n_requests
        self.shard_values[key] += float(n_values)
        if nbytes:
            self.shard_bytes[key] += float(nbytes)

    def record_service_bulk(self, tag, node_ids, seconds_list):
        """Bulk-record same-tag singleton services across many servers.

        Entry *i* is one service slot of ``seconds_list[i]`` virtual
        seconds on ``node_ids[i]``.  Every per-key accumulation (float
        compute totals, request counts, the shared per-tag histogram)
        happens in entry order, so the result is bit-identical to
        ``record_compute`` + ``record_request`` + ``observe("srv:" +
        tag)`` once per entry — the fan-out serve loop batches each run
        of same-tag services into one call.
        """
        compute_seconds = self.compute_seconds
        requests_by_server = self.requests_by_server
        requests_by_server_tag = self.requests_by_server_tag
        for i, node_id in enumerate(node_ids):
            compute_seconds[node_id] += seconds_list[i]
            requests_by_server[node_id] += 1
            requests_by_server_tag[(node_id, tag)] += 1
        self.compute_counts[tag] += len(node_ids)
        observe_tag = "srv:" + tag
        hist = self.latency.get(observe_tag)
        if hist is None:
            hist = self.latency[observe_tag] = StreamingHistogram()
        hist.record_many(seconds_list)
        if self.window_sink is not None:
            self.window_sink.observe_many(observe_tag, seconds_list)

    def record_shard_access_many(self, entries):
        """Bulk :meth:`record_shard_access`, one request per entry.

        *entries* is a sequence of ``(matrix_id, server_index, n_values,
        nbytes)`` with ``server_index`` already an int; per-key updates
        happen in entry order.
        """
        shard_requests = self.shard_requests
        shard_values = self.shard_values
        shard_bytes = self.shard_bytes
        for matrix_id, server_index, n_values, nbytes in entries:
            key = (matrix_id, server_index)
            shard_requests[key] += 1
            shard_values[key] += n_values
            if nbytes:
                shard_bytes[key] += nbytes

    def retire_shards(self, keys):
        """Drop shard-heat state for *keys* = ``(matrix_id, server_index)``.

        Called by the master after a live shard migration: heat recorded
        against a (matrix, server) pair that no longer owns the shard is
        *ghost* heat — :meth:`shard_heat` would keep reporting it, and the
        replication classifier would promote (and the cost model would
        compress) against a server the traffic left.  Retiring the keys
        makes the post-migration heat picture start from the traffic the
        new owners actually serve.
        """
        for key in keys:
            key = (key[0], int(key[1]))
            self.shard_requests.pop(key, None)
            self.shard_values.pop(key, None)
            self.shard_bytes.pop(key, None)

    def record_cache_hit(self, node_id, bytes_saved=0.0):
        """One worker-cache hit on *node_id*, avoiding *bytes_saved* wire."""
        self.cache_hits[node_id] += 1
        self.cache_bytes_saved[node_id] += float(bytes_saved)

    def record_cache_miss(self, node_id):
        """One worker-cache miss on *node_id* (the pull went to the wire)."""
        self.cache_misses[node_id] += 1

    def record_codec_decision(self, tag, codec_name, bytes_saved=0.0):
        """One cost-model codec decision for a *tag* message.

        ``bytes_saved`` is the wire volume avoided relative to the
        identity encoding (0 for identity decisions) — the gap between
        logical and wire bytes the codec layer created.
        """
        key = (tag, codec_name)
        self.codec_decisions[key] += 1
        self.codec_bytes_saved[key] += float(bytes_saved)

    def record_identity_decisions(self, tags):
        """Bulk :meth:`record_codec_decision` of identity decisions (no
        bytes saved), one per entry of *tags*, in entry order."""
        codec_decisions = self.codec_decisions
        codec_bytes_saved = self.codec_bytes_saved
        for tag in tags:
            key = (tag, "identity")
            codec_decisions[key] += 1
            codec_bytes_saved[key] += 0.0

    def observe(self, tag, seconds):
        """Feed one latency/duration observation into *tag*'s histogram."""
        hist = self.latency.get(tag)
        if hist is None:
            hist = self.latency[tag] = StreamingHistogram()
        hist.record(seconds)
        if self.window_sink is not None:
            self.window_sink.observe(tag, seconds)

    # -- totals ------------------------------------------------------------

    def total_bytes(self):
        """Total bytes that crossed the network."""
        return sum(self.bytes_by_tag.values())

    def total_messages(self):
        """Total messages that crossed the network."""
        return sum(self.messages_by_tag.values())

    def bytes_for_tag(self, tag):
        """Bytes accounted under *tag* (0 if the tag never occurred)."""
        return self.bytes_by_tag.get(tag, 0.0)

    # -- latency / load queries --------------------------------------------

    def latency_summary(self):
        """``{tag: {count, mean, min, max, p50, p95, p99}}`` per op tag."""
        return {tag: hist.summary() for tag, hist in self.latency.items()}

    def percentile(self, tag, q):
        """The *q*-th latency percentile of *tag* (0.0 if never observed)."""
        hist = self.latency.get(tag)
        return hist.percentile(q) if hist is not None else 0.0

    def shard_heat(self):
        """The unified per-shard access metric: ``{(matrix, server): heat}``.

        THE one counter source both the hot-shard telemetry
        (:meth:`hot_shards`, the report's table) and the replication
        classifier consume, so policy and telemetry cannot drift: when any
        access recorded wire bytes, heat is the shard's request+response
        byte volume (the number that says what a shard actually *costs*);
        otherwise — callers that only track counts, e.g. unit fixtures —
        it falls back to raw request counts.  The rule is global per
        registry, never mixed per key.
        """
        if self.shard_bytes:
            return dict(self.shard_bytes)
        return {key: float(n) for key, n in self.shard_requests.items()}

    def hot_shards(self, factor=2.0):
        """Shards whose heat exceeds *factor* x their matrix's mean heat.

        Returns ``[(matrix_id, server_index, requests, values, ratio)]``
        sorted by descending heat ratio — the NuPS-style skew signal: under
        a uniform workload every shard of a matrix sees ~the same traffic,
        so a shard far above its matrix's mean marks hot parameters.  The
        ranking metric is :meth:`shard_heat` — byte volume when recorded,
        request counts otherwise — the same signal the replication
        classifier acts on.
        """
        by_matrix = defaultdict(list)
        for (matrix_id, server_index), heat in self.shard_heat().items():
            by_matrix[matrix_id].append((server_index, heat))
        hot = []
        for matrix_id, shards in by_matrix.items():
            mean = sum(h for _s, h in shards) / len(shards)
            if mean <= 0:
                continue
            for server_index, heat in shards:
                ratio = heat / mean
                if ratio >= factor:
                    # .get(): reads must never insert zero entries into the
                    # defaultdicts — a passive query may not change what the
                    # next snapshot() reports.
                    hot.append((
                        matrix_id, server_index,
                        self.shard_requests.get((matrix_id, server_index), 0),
                        self.shard_values.get((matrix_id, server_index), 0.0),
                        ratio,
                    ))
        hot.sort(key=lambda item: item[4], reverse=True)
        return hot

    def load_imbalance(self):
        """``(max, mean, max/mean)`` of per-server request counts.

        ``(0, 0, 1.0)`` when no server requests were recorded; a ratio near
        1.0 means balanced load, far above 1.0 means one server is the
        bottleneck (the paper's Figure 4 realignment pathology).
        """
        if not self.requests_by_server:
            return 0, 0.0, 1.0
        counts = list(self.requests_by_server.values())
        peak = max(counts)
        mean = sum(counts) / len(counts)
        return peak, mean, (peak / mean if mean else 1.0)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self):
        """A plain-dict copy suitable for diffing before/after a phase.

        Latency histograms are summarized (not raw buckets): snapshots are
        for phase accounting, and the summaries are what reports consume.
        """
        return {
            "bytes_sent": dict(self.bytes_sent),
            "bytes_received": dict(self.bytes_received),
            "bytes_by_tag": dict(self.bytes_by_tag),
            "messages_by_tag": dict(self.messages_by_tag),
            "logical_messages_by_tag": dict(self.logical_messages_by_tag),
            "compute_seconds": dict(self.compute_seconds),
            "counters": dict(self.counters),
            "compute_counts": dict(self.compute_counts),
            "requests_by_server": dict(self.requests_by_server),
            "requests_by_server_tag": dict(self.requests_by_server_tag),
            "shard_requests": dict(self.shard_requests),
            "shard_values": dict(self.shard_values),
            "shard_bytes": dict(self.shard_bytes),
            "cache_hits": dict(self.cache_hits),
            "cache_misses": dict(self.cache_misses),
            "cache_bytes_saved": dict(self.cache_bytes_saved),
            "codec_decisions": dict(self.codec_decisions),
            "codec_bytes_saved": dict(self.codec_bytes_saved),
            "latency": self.latency_summary(),
        }

    @staticmethod
    def diff(before, after):
        """Per-key ``after - before`` over two :meth:`snapshot` dicts.

        Keys whose delta is zero are dropped, so the result reads as "what
        this phase did".  Sections missing from either snapshot are treated
        as empty.  Keys may be tuples (``requests_by_server_tag`` is keyed
        by ``(server, tag)``).  Dict-valued entries (the per-tag latency
        summaries) are not subtractable — percentiles don't difference — so
        for those the delta is the *observation-count* delta per tag.
        """
        out = {}
        for section in set(before) | set(after):
            b = before.get(section, {})
            a = after.get(section, {})
            delta = {}
            for key in set(b) | set(a):
                bv = b.get(key, 0)
                av = a.get(key, 0)
                if isinstance(bv, dict) or isinstance(av, dict):
                    d = ((av or {}).get("count", 0)
                         - (bv or {}).get("count", 0))
                else:
                    d = av - bv
                if d:
                    delta[key] = d
            if delta:
                out[section] = delta
        return out

    def reset(self):
        """Zero every counter; returns the pre-reset :meth:`snapshot`.

        Returning the snapshot makes phase-scoped accounting one call:
        ``phase_metrics = registry.reset()`` closes a phase and opens the
        next.
        """
        snap = self.snapshot()
        self.bytes_sent.clear()
        self.bytes_received.clear()
        self.bytes_by_tag.clear()
        self.messages_by_tag.clear()
        self.logical_messages_by_tag.clear()
        self.compute_seconds.clear()
        self.counters.clear()
        self.compute_counts.clear()
        self.requests_by_server.clear()
        self.requests_by_server_tag.clear()
        self.shard_requests.clear()
        self.shard_values.clear()
        self.shard_bytes.clear()
        self.cache_hits.clear()
        self.cache_misses.clear()
        self.cache_bytes_saved.clear()
        self.codec_decisions.clear()
        self.codec_bytes_saved.clear()
        self.latency = {}
        return snap
