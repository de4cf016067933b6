"""Virtual-time-windowed time series over the metrics registry.

End-of-run aggregates answer "how much", but regime questions — is p99
degrading while the cluster rebalances, does the NIC backlog grow without
bound under a load step, when does the cache warm up — need "how much *per
window of virtual time*".  The :class:`TimeSeriesSampler` folds the
registry's cumulative counters into fixed-width windows of the simulated
clock:

- **rates** per window: bytes sent per node, requests served per server
  (deltas of the cumulative counters, divided by the window width);
- **windowed latency**: a fresh :class:`StreamingHistogram` per op tag per
  window, fed by :class:`~repro.cluster.metrics.MetricsRegistry.observe`
  through the registry's ``window_sink`` hook — so ``p99 over the last
  window`` is a real windowed percentile, not a running total;
- **gauges** sampled at the window boundary: per-node NIC backlog (how far
  the NIC reservation horizon runs past the boundary, via
  ``NetworkModel.nic_horizon``) and the worker-cache hit rate of the
  window's hits/misses.

The sampler is *passive*: it only reads clocks, counters and resource
horizons, and is polled (``maybe_flush``) from the scheduler's stage-end
hook and after every PS client op.  It never advances a clock, books a
resource or changes a counter, so a run with time series enabled is
bit-identical to one without.

Attribution note: activity lands in the window that is *open when the next
flush check runs*, not at its own virtual timestamp — with checks after
every client op the skew is bounded by one op.  When several boundaries
pass between checks, everything since the last flush lands in the first
closing window and the rest close empty, keeping the series aligned.
"""

from __future__ import annotations

from repro.obs.histogram import StreamingHistogram


class Window:
    """One closed sampling window ``[start, end)`` of virtual time."""

    __slots__ = ("start", "end", "bytes_sent", "requests", "cache_hits",
                 "cache_misses", "latency", "nic_backlog")

    def __init__(self, start, end):
        self.start = float(start)
        self.end = float(end)
        #: node -> bytes put on the wire during the window.
        self.bytes_sent = {}
        #: server node -> requests served during the window.
        self.requests = {}
        self.cache_hits = {}
        self.cache_misses = {}
        #: op tag -> :meth:`StreamingHistogram.summary` of the window.
        self.latency = {}
        #: node -> seconds of NIC reservations outstanding past ``end``.
        self.nic_backlog = {}

    @property
    def width(self):
        return self.end - self.start

    def byte_rate(self, node_id):
        """Bytes/second *node_id* sent during this window."""
        return self.bytes_sent.get(node_id, 0.0) / self.width

    def request_rate(self, node_id):
        """Requests/second served by *node_id* during this window."""
        return self.requests.get(node_id, 0) / self.width

    def cache_hit_rate(self, node_id=None):
        """Hit fraction of the window's cache lookups (None = all nodes)."""
        if node_id is None:
            hits = sum(self.cache_hits.values())
            misses = sum(self.cache_misses.values())
        else:
            hits = self.cache_hits.get(node_id, 0)
            misses = self.cache_misses.get(node_id, 0)
        total = hits + misses
        return hits / total if total else 0.0


class TimeSeriesSampler:
    """Folds cumulative metrics into aligned virtual-time windows."""

    def __init__(self, cluster, window):
        if window <= 0:
            raise ValueError("window must be positive, got %r" % (window,))
        self.cluster = cluster
        self.window = float(window)
        #: Closed :class:`Window` records in time order.
        self.windows = []
        self._next_boundary = self.window
        self._open_hists = {}
        # Cumulative-counter baselines as of the last closed window.
        self._prev_bytes = {}
        self._prev_requests = {}
        self._prev_hits = {}
        self._prev_misses = {}

    # -- feeding -----------------------------------------------------------

    def observe(self, tag, seconds):
        """Mirror one latency observation into the open window's histogram.

        Called by ``MetricsRegistry.observe`` through the ``window_sink``
        hook; never called directly by instrumentation.
        """
        hist = self._open_hists.get(tag)
        if hist is None:
            hist = self._open_hists[tag] = StreamingHistogram()
        hist.record(seconds)

    def observe_many(self, tag, seconds_list):
        """Bulk :meth:`observe`: one observation per entry, in entry order
        (``StreamingHistogram.record_many`` equals a ``record`` loop)."""
        if not seconds_list:
            return
        hist = self._open_hists.get(tag)
        if hist is None:
            hist = self._open_hists[tag] = StreamingHistogram()
        hist.record_many(seconds_list)

    # -- flushing ----------------------------------------------------------

    def maybe_flush(self):
        """Close every window whose boundary the virtual clock has passed.

        Polled from the scheduler's stage-end hook and after client ops.
        Cheap when no boundary passed (one clock read and a comparison).
        """
        now = self.cluster.elapsed()
        while now >= self._next_boundary:
            self._close(self._next_boundary)
            self._next_boundary += self.window

    def finalize(self):
        """Close the trailing partial window if it saw any activity.

        The final window keeps the aligned width (its ``end`` is the next
        boundary) so series stay rectangular; call once at end of run
        before rendering/serializing.
        """
        self.maybe_flush()
        if (self._open_hists
                or self._delta(self.cluster.metrics.bytes_sent,
                               self._prev_bytes)
                or self._delta(self.cluster.metrics.requests_by_server,
                               self._prev_requests)):
            self._close(self._next_boundary)
            self._next_boundary += self.window
        return self.windows

    @staticmethod
    def _delta(current, baseline):
        """``{key: current - baseline}`` with zero deltas dropped.

        Iterates without indexing so defaultdict counters are never
        mutated by the read.
        """
        out = {}
        for key, value in current.items():
            d = value - baseline.get(key, 0)
            if d:
                out[key] = d
        return out

    def _close(self, boundary):
        metrics = self.cluster.metrics
        network = self.cluster.network
        w = Window(boundary - self.window, boundary)
        w.bytes_sent = self._delta(metrics.bytes_sent, self._prev_bytes)
        w.requests = self._delta(metrics.requests_by_server,
                                 self._prev_requests)
        w.cache_hits = self._delta(metrics.cache_hits, self._prev_hits)
        w.cache_misses = self._delta(metrics.cache_misses, self._prev_misses)
        w.latency = {tag: hist.summary()
                     for tag, hist in self._open_hists.items()}
        for node_id in self.cluster.node_ids:
            send_h, recv_h = network.nic_horizon(node_id)
            backlog = max(send_h, recv_h) - boundary
            if backlog > 0:
                w.nic_backlog[node_id] = backlog
        self.windows.append(w)
        self._prev_bytes = dict(metrics.bytes_sent)
        self._prev_requests = dict(metrics.requests_by_server)
        self._prev_hits = dict(metrics.cache_hits)
        self._prev_misses = dict(metrics.cache_misses)
        self._open_hists = {}

    # -- queries -----------------------------------------------------------

    def series(self, metric, key=None, q=None):
        """One aligned series over all closed windows.

        ``metric`` selects the per-window quantity:

        - ``"byte_rate"`` / ``"request_rate"``: per-*key* (node id) rates;
        - ``"cache_hit_rate"``: hit fraction (*key* optional);
        - ``"nic_backlog"``: per-*key* gauge seconds;
        - ``"latency"``: the *q* summary field (``"p99"`` etc.) of op tag
          *key*, 0.0 in windows where the tag was silent.

        Returns ``[(window_end, value)]`` — one point per window, silent
        windows included, so several series align by construction.
        """
        points = []
        for w in self.windows:
            if metric == "byte_rate":
                value = w.byte_rate(key)
            elif metric == "request_rate":
                value = w.request_rate(key)
            elif metric == "cache_hit_rate":
                value = w.cache_hit_rate(key)
            elif metric == "nic_backlog":
                value = w.nic_backlog.get(key, 0.0)
            elif metric == "latency":
                value = w.latency.get(key, {}).get(q or "p99", 0.0)
            else:
                raise ValueError("unknown series metric %r" % (metric,))
            points.append((w.end, value))
        return points
