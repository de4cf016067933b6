"""The unified communication cost model: compress-vs-replicate decisions.

Hot-key replication and wire codecs both trade message count against
byte volume.  Rather than a hand-set knob for each, this module folds the
three signals the transport already maintains into one decision point:

- **message size** relative to the bandwidth-delay product: a payload
  whose serialization time dwarfs the per-message latency is
  byte-dominated and benefits from compression; a payload that fits in
  one latency quantum is latency-dominated and compression only adds
  quantization loss for nothing;
- **NIC-horizon backlog** from :meth:`NetworkModel.nic_horizon`: when
  the sender's NIC timeline runs ahead of its clock the node is
  queueing, and the model escalates one compression tier to drain it;
- **shard heat** from :meth:`Metrics.shard_heat`: persistently hot
  shards get the aggressive sparsifying codec on gradient pushes, and
  :meth:`replication_worthwhile` prices the *same* heat against
  migration bytes for the hot-key promote sweeps of
  :class:`~repro.ps.replication.Replicas` — one model, both knobs.

The model runs **before routing** in ``Transport.send_all`` so
decisions key on the primary ``server_index`` and the *sender's* NIC,
and every eligible message produces exactly one recorded decision
(``Metrics.record_codec_decision``) — including "identity", which
attaches nothing and leaves the byte formulas bit-identical to a run
without a cost model.

Determinism: every input (virtual clocks, NIC horizons, heat counters,
the decision-count refresh cadence) is a deterministic function of the
seeded simulation, so identical runs make identical decisions.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import MatrixNotFoundError
from repro.costs import FLOAT_BYTES
from repro.ps.codecs import make_codec
from repro.ps.messages import PullRowRequest

#: Size-regime thresholds, in units of the bandwidth-delay ratio
#: ``r = serialization_time / latency``.  Below ``FP16_RATIO`` a message
#: is latency-dominated and ships identity.
FP16_RATIO = 1.0
INT8_RATIO = 4.0
TOPK_RATIO = 8.0

#: Fraction of coordinates a top-k sparsified push ships.
TOPK_KEPT_FRACTION = 0.1

#: A sender whose NIC horizon runs more than this many latencies ahead
#: of its clock is backlogged; the model escalates one tier.
BACKLOG_LATENCIES = 50.0

#: Decisions between lazy refreshes of the hot-shard set.
HEAT_REFRESH_DECISIONS = 256


class CostModel:
    """Per-message codec selection plus the replication gate.

    One instance per cluster (constructed by :class:`PSMaster` when
    ``ClusterConfig.wire_codec != "off"``), holding one shared instance
    of every compressing codec (identity is ``None``) so stateful streams
    (top-k residuals) persist across messages.

    ``mode`` is the config knob: ``"auto"`` picks a tier per message
    from the size/backlog/heat regime; a codec name forces that codec
    wherever its loss class is sound (top-k only on additive dense
    pushes, quantizers anywhere) and identity elsewhere.
    """

    def __init__(self, cluster):
        config = cluster.config
        self.cluster = cluster
        self.mode = config.wire_codec
        self.codecs = {
            name: make_codec(name, topk_ratio=TOPK_KEPT_FRACTION)
            for name in ("fp16", "int8", "topk")
        }
        # The effective path bandwidth is the slower of the NIC and the
        # fabric; the latency floor keeps the ratio finite.
        self.bandwidth = min(config.network.bandwidth,
                             config.node.nic_bandwidth)
        self.latency = max(config.network.latency, 1e-12)
        self._decisions = 0
        self._hot_shards = frozenset()

    # ------------------------------------------------------------------
    # per-message codec selection

    def prepare(self, request, node_id):
        """Attach a codec to *request* if its regime warrants one.

        Called by the transport before routing, once per message of every
        send whose plan carries no identity verdict (:meth:`identity_tags`;
        such a plan is recorded whole by :meth:`record_identity`).  The
        message kind says which side a codec bites (``codec_side``) and
        only float64 value payloads are eligible: a request-side kind gets
        its values encoded here (the client is the encoder), a
        response-side kind a codec the server honors at serve time.  Kinds
        with no codec side (control traffic, aggregates, batches — whose
        sub-requests were prepared individually) pass through untouched.
        """
        side = request.codec_side
        if side is None or request.value_bytes != FLOAT_BYTES:
            return
        if side == "request":
            if request.encoded is None:
                self._attach_push(
                    request, self._choose_push(request, node_id), node_id)
        elif request.codec is None:
            self._attach_pull(
                request, self._choose_pull(node_id, request.n_values))

    def identity_tags(self, requests):
        """The verdict on a fan-out: the tags of the messages that record
        a decision, in order, when every one of them is identity whatever
        the regime — else ``None``.

        Only ``"auto"`` mode can say so, and only for payloads under the
        fp16 knee: :meth:`_tier` reads the sender's backlog only at tiers
        1-2 and shard heat only matters from tier 2, so a tier-0 payload
        decides identity on any NIC backlog and any heat.  The verdict is
        a function of the messages' kinds and sizes alone, which a pooled
        plan keeps between sends.  Messages :meth:`prepare` skips (no
        ``codec_side``, or non-float64 values) record nothing here either.
        """
        if self.mode != "auto":
            return None
        tags = []
        for request in requests:
            side = request.codec_side
            if side is None or request.value_bytes != FLOAT_BYTES:
                continue
            n_values = len(request.values) if side == "request" \
                else request.n_values
            if self._tier(n_values * FLOAT_BYTES, None):
                return None
            tags.append(request.tag)
        return tags

    def record_identity(self, tags):
        """Record one identity decision per entry of *tags* — the verdict
        of a plan (:meth:`identity_tags`) — in one call.

        Equal to :meth:`prepare` once per message of that plan: the
        decision count advances by ``len(tags)``, the hot-shard set is
        refreshed if any decision index in between is a refresh point, and
        the ``(tag, "identity")`` keys are counted in message order with
        no bytes saved.  One refresh stands for any number: the transport
        prepares a whole send before it records the send's shard heat
        (``record_shard_access_many``), so heat cannot change between two
        decisions of one send and every refresh inside it reads the same
        set.
        """
        n = len(tags)
        if not n:
            return
        decisions = self._decisions
        if -decisions % HEAT_REFRESH_DECISIONS < n:
            self._refresh_hot_shards()
        self._decisions = decisions + n
        self.cluster.metrics.record_identity_decisions(tags)

    def _choose_push(self, request, node_id):
        """The codec for one push, or ``None`` for identity."""
        dense = request.indices is None
        if self.mode == "topk":
            # Sparsification drops coordinates; only additive payloads
            # recover the dropped mass through error feedback.
            if dense and request.mode == "add":
                return self.codecs["topk"]
            return None
        if self.mode in ("fp16", "int8"):
            return self.codecs[self.mode]
        tier = self._tier(len(request.values) * FLOAT_BYTES, node_id)
        if dense and request.mode == "add" and tier >= 2 and (
                tier >= 3 or self._shard_hot(request)):
            return self.codecs["topk"]
        if tier >= 2:
            return self.codecs["int8"]
        if tier == 1:
            return self.codecs["fp16"]
        return None

    def _choose_pull(self, node_id, n_values):
        """The response codec for one pull, or ``None`` for identity.

        Only the stateless quantizers are eligible — never top-k, whose
        residuals belong to a client's push stream.  ``node_id=None`` asks for the regime of
        the payload size alone, with no sender whose backlog could
        escalate it (bulk state reads: replication and chain streams).
        """
        if self.mode in ("fp16", "int8"):
            return self.codecs[self.mode]
        if self.mode == "topk":
            return None
        tier = self._tier(n_values * FLOAT_BYTES, node_id)
        if tier >= 2:
            return self.codecs["int8"]
        if tier == 1:
            return self.codecs["fp16"]
        return None

    def _tier(self, payload_bytes, node_id):
        """Map one payload onto a compression tier (0 = identity).

        ``r`` is the payload's serialization time in units of the
        per-message latency: the knee where a message stops being
        latency-dominated.  A backlogged sender NIC escalates one tier.
        """
        r = (payload_bytes / self.bandwidth) / self.latency
        if r >= TOPK_RATIO:
            tier = 3
        elif r >= INT8_RATIO:
            tier = 2
        elif r >= FP16_RATIO:
            tier = 1
        else:
            tier = 0
        if tier and tier < 3 and node_id is not None \
                and self._backlogged(node_id):
            tier += 1
        return tier

    def _backlogged(self, node_id):
        send_h, recv_h = self.cluster.network.nic_horizon(node_id)
        now = self.cluster.clock.now(node_id)
        return max(send_h, recv_h) - now > BACKLOG_LATENCIES * self.latency

    def _shard_hot(self, request):
        return (request.matrix_id, request.server_index) in self._hot_shards

    def on_topology_resized(self):
        """Drop the memoized hot-shard set after a shard migration.

        The heat ledger just retired the migrated-away keys; without this
        the stale frozenset could keep marking ghost shards hot for up to
        ``HEAT_REFRESH_DECISIONS`` more decisions.
        """
        self._hot_shards = frozenset()
        self._decisions = 0

    def priced_pull_response_bytes(self, node_id, n_values):
        """The wire bytes a dense pull response of *n_values* would cost
        under the model's current regime — header plus the codec-encoded
        payload, or the identity size when the regime says identity.

        Used to price cache-hit ``bytes_saved`` telemetry honestly: a hit
        avoids the response the model *would have compressed*, not the
        identity-rate upper bound.  Pricing only — a hypothetical pull is
        asked its reply size; no decision is recorded and no codec state
        advances.
        """
        pull = PullRowRequest(0, None, 0, n_values)
        pull.attach_codec(self._choose_pull(node_id, n_values))
        return pull.response_bytes()

    def _refresh_hot_shards(self):
        """Recompute the hot-shard set: the telemetry's own rule
        (:meth:`~repro.cluster.metrics.MetricsRegistry.hot_shards`)."""
        self._hot_shards = frozenset(
            (m, s) for m, s, *_ in self.cluster.metrics.hot_shards())

    def _attach_push(self, request, codec, node_id):
        n_values = len(request.values)
        if codec is None:
            self._record(request.tag, "identity", 0.0)
            return
        key = None
        if codec.stateful:
            # One stream per (client, matrix, row, primary shard): the
            # residual/base state must follow the exact sequence of
            # payloads one client sends one shard.
            key = (node_id, request.matrix_id, request.row,
                   request.server_index)
        encoded = codec.encode(
            np.asarray(request.values, dtype=float), key=key)
        request.attach_codec(codec, encoded)
        self._record(request.tag, codec.name,
                     n_values * FLOAT_BYTES - encoded.nbytes)

    def _attach_pull(self, request, codec):
        if codec is None:
            self._record(request.tag, "identity", 0.0)
            return
        request.attach_codec(codec)
        n_values = request.n_values
        self._record(request.tag, codec.name,
                     n_values * FLOAT_BYTES - codec.encoded_bytes(n_values))

    def _record(self, tag, codec_name, bytes_saved):
        if self._decisions % HEAT_REFRESH_DECISIONS == 0:
            self._refresh_hot_shards()
        self._decisions += 1
        self.cluster.metrics.record_codec_decision(
            tag, codec_name, bytes_saved)

    # ------------------------------------------------------------------
    # the replication gate

    def replication_worthwhile(self, key, delta_heat, master):
        """Should the hot key *key* = ``(matrix_id, server_index)`` still
        replicate, given that codecs already shrink its traffic?

        Replication pays ``migrate_bytes`` up front to spread a shard's
        read volume over replicas; compression shrinks that same volume
        by ``factor`` for free.  The gate admits a promotion only when
        the heat observed this window, *deflated by the compression
        factor*, still exceeds the migration cost — the NuPS trade
        priced in the codec-aware regime.  The migration is the values
        the key's primary is assigned: its shard of every row the matrix
        has (a lazy table's created rows, which a row layout places on
        one server each), read at the width of one such shard.  Keys
        already replicated are not re-gated (churn is what the demote
        sweep is for).
        """
        matrix_id, server_index = key
        try:
            info = master.info(matrix_id)
        except MatrixNotFoundError:
            return True  # no metadata for this id: nothing to price
        values, width = info.layout.values_on(
            server_index, master._assigned_rows(info))
        migrate_bytes = values * FLOAT_BYTES
        factor = self._read_compression_factor(max(width, 1))
        worthwhile = delta_heat / factor > migrate_bytes
        self.cluster.metrics.increment(
            "codec-replication-allowed" if worthwhile
            else "codec-replication-vetoed")
        return worthwhile

    def priced_chain_value_bytes(self, n_values):
        """The value-payload bytes one chain state stream of *n_values*
        floats costs under the model's read regime.

        Chain sync and promotion streams are bulk state reads, so they
        compress exactly like replication fan-out reads of the same width
        rather than shipping identity-rate floats — the "chain-sync bytes
        priced like replication fan-out" contract.  Pricing only: no
        decision is recorded and no codec state advances.
        """
        n_values = int(n_values)
        if n_values <= 0:
            return 0
        return self._read_bytes(n_values)

    def _read_bytes(self, n_values):
        """Value bytes a bulk read of *n_values* floats ships at: the pull
        regime of that size with no sender backlog, at its codec's rate."""
        codec = self._choose_pull(None, n_values)
        if codec is None:
            return n_values * FLOAT_BYTES
        return codec.encoded_bytes(n_values)

    def _read_compression_factor(self, n_values):
        """The factor reads of an ``n_values``-wide shard shrink by."""
        return n_values * FLOAT_BYTES / self._read_bytes(n_values)
