"""Pluggable wire codecs for PS value payloads.

PS2's win over MLlib is fundamentally a communication win, and these
workloads are communication-bound long before they are compute-bound
(Dünner et al.), yet the wire model ships every parameter at full float64
width.  This module defines the codec layer the transport's cost model
(:mod:`repro.ps.costmodel`) attaches to individual messages: each codec
turns a 1-D float64 value payload into a smaller encoded payload with
**honest byte accounting** — ``Encoded.nbytes`` is what the wire formulas
charge, computed from the encoded representation itself, never from the
decision that produced it.

Loss classes
------------

Every codec declares its ``loss_class``, the contract tests pin down:

``lossless``
    ``decode(encode(x)) == x`` bit-for-bit: :class:`IdentityCodec`, a
    straight copy.

``quantized``
    Bounded elementwise error.  :class:`Fp16Codec` round-trips through
    IEEE half precision: for ``|x| <= 65504`` the error is at most
    ``max(2**-11 * |x|, 2**-24)`` (larger magnitudes clip).
    :class:`Int8Codec` quantizes with one scale per payload ("row" in the
    message layer: each push/pull shard slice is encoded independently):
    error is at most ``scale / 2`` with ``scale = max|x| / 127``.

``sparsified``
    :class:`TopKCodec` keeps only the ``ceil(ratio * n)``
    largest-magnitude entries per payload.  Unbounded per-message error,
    but with a *key* the codec keeps client-side error-feedback residuals
    (Stich et al.): dropped mass is added back into the next payload for
    the same stream, so ``decode(enc) + residual_after`` always equals
    ``values + residual_before`` exactly and convergence degrades
    gracefully instead of losing gradient mass.

Statefulness
------------

Only ``topk`` is *stateful*: its error-feedback residuals live on the
encoding side, keyed by the stream ``key`` the cost model derives from
``(client node, matrix, row, server)``.  Decoding needs no state, so any
payload decodes on its own.  Every codec is fixed-rate:
``encoded_bytes(n)`` equals the actual encoded size of any length-``n``
input, which is what lets a pull *response* be priced from the request
alone.  Top-k still never encodes a response: its residuals belong to a
client's push stream.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import PSError
from repro.costs import FLOAT_BYTES, FP16_BYTES, INDEX_BYTES, INT8_BYTES

#: Largest finite IEEE half-precision magnitude (values beyond it clip).
FP16_MAX = 65504.0


class Encoded:
    """One encoded payload: the representation plus its honest byte size.

    ``payload`` is codec-private; ``n_values`` is the decoded length;
    ``nbytes`` is the wire size of the encoded representation (what the
    message formulas charge).
    """

    __slots__ = ("payload", "n_values", "nbytes")

    def __init__(self, payload, n_values, nbytes):
        self.payload = payload
        self.n_values = int(n_values)
        self.nbytes = int(nbytes)


class Codec:
    """The codec interface: encode/decode over 1-D float64 payloads.

    ``stateful`` declares per-stream encoder state (error-feedback
    residuals); stateful codecs are push-only.
    """

    name = "?"
    loss_class = "?"
    stateful = False

    def encode(self, values, key=None):
        """Encode a 1-D float64 array into an :class:`Encoded` payload."""
        raise NotImplementedError

    def decode(self, encoded):
        """Decode back to a dense float64 array of ``encoded.n_values``."""
        raise NotImplementedError

    def encoded_bytes(self, n_values):
        """Encoded payload bytes for a length-``n_values`` input; the
        contract (tested) is ``encode(x).nbytes == encoded_bytes(len(x))``.
        """
        raise NotImplementedError

    def __repr__(self):
        return "%s()" % (type(self).__name__,)


class IdentityCodec(Codec):
    """Bit-exact pass-through: full-width float64, zero loss."""

    name = "identity"
    loss_class = "lossless"

    def encode(self, values, key=None):
        values = np.asarray(values, dtype=float)
        return Encoded(values.copy(), values.size, values.size * FLOAT_BYTES)

    def decode(self, encoded):
        return encoded.payload.copy()

    def encoded_bytes(self, n_values):
        return int(n_values) * FLOAT_BYTES


class Fp16Codec(Codec):
    """IEEE half-precision quantization (2 bytes/value).

    Error bound for ``|x| <= 65504``: round-to-nearest half keeps
    ``|decode(x) - x| <= max(2**-11 * |x|, 2**-24)`` (the relative bound
    in the normal range, the subnormal spacing near zero).  Magnitudes
    beyond the half range clip to ``+-65504``.
    """

    name = "fp16"
    loss_class = "quantized"

    def encode(self, values, key=None):
        values = np.asarray(values, dtype=float)
        clipped = np.clip(values, -FP16_MAX, FP16_MAX)
        return Encoded(clipped.astype(np.float16), values.size,
                       values.size * FP16_BYTES)

    def decode(self, encoded):
        return encoded.payload.astype(np.float64)

    def encoded_bytes(self, n_values):
        return int(n_values) * FP16_BYTES


class Int8Codec(Codec):
    """Scale-per-row int8 quantization (1 byte/value + one scale).

    Each payload (one message's shard slice — the "row" at the wire
    layer) is quantized against its own scale ``max|x| / 127``, so the
    elementwise error is at most ``scale / 2``.  An all-zero payload uses
    scale 1.0 and round-trips exactly.
    """

    name = "int8"
    loss_class = "quantized"

    def encode(self, values, key=None):
        values = np.asarray(values, dtype=float)
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        scale = peak / 127.0 if peak > 0 else 1.0
        quantized = np.round(values / scale).astype(np.int8)
        return Encoded((quantized, scale), values.size,
                       values.size * INT8_BYTES + FLOAT_BYTES)

    def decode(self, encoded):
        quantized, scale = encoded.payload
        return quantized.astype(np.float64) * scale

    def encoded_bytes(self, n_values):
        return int(n_values) * INT8_BYTES + FLOAT_BYTES


class TopKCodec(Codec):
    """Top-k gradient sparsification with client-side error feedback.

    Keeps the ``k = max(1, ceil(ratio * n))`` largest-magnitude entries
    of ``values + residual(key)`` and zeroes the rest into the stream's
    residual, so no gradient mass is ever lost — only delayed.  The wire
    carries one (index, value) pair per kept entry plus a count.  Only
    meaningful for additive (``mode="add"``) dense pushes: an assign
    payload is state, not mass, and sparsifying it would drop
    coordinates permanently.
    """

    name = "topk"
    loss_class = "sparsified"
    stateful = True

    def __init__(self, ratio=0.1):
        if not 0.0 < ratio <= 1.0:
            raise PSError("topk ratio must be in (0, 1], got %r" % (ratio,))
        self.ratio = float(ratio)
        self._residuals = {}

    def k_for(self, n_values):
        """Entries kept for a length-``n_values`` payload."""
        n = int(n_values)
        if n <= 0:
            return 0
        return max(1, int(np.ceil(self.ratio * n)))

    def encode(self, values, key=None):
        values = np.asarray(values, dtype=float)
        residual = self._residuals.get(key) if key is not None else None
        if residual is not None and residual.size == values.size:
            error_fed = values + residual
        else:
            error_fed = values.astype(float, copy=True)
        k = self.k_for(error_fed.size)
        # Stable selection: argsort on (-|e|, index) is deterministic
        # across runs, unlike argpartition's unspecified tie order.
        order = np.argsort(-np.abs(error_fed), kind="stable")[:k]
        kept = np.sort(order)
        payload_values = error_fed[kept].copy()
        if key is not None:
            next_residual = error_fed.copy()
            next_residual[kept] = 0.0
            self._residuals[key] = next_residual
        return Encoded((kept.astype(np.int64), payload_values),
                       values.size, self.encoded_bytes(values.size))

    def decode(self, encoded):
        kept, payload_values = encoded.payload
        dense = np.zeros(encoded.n_values)
        dense[kept] = payload_values
        return dense

    def encoded_bytes(self, n_values):
        return (INDEX_BYTES
                + self.k_for(n_values) * (INDEX_BYTES + FLOAT_BYTES))

    def residual(self, key):
        """The stream's pending residual (zeros if none) — for tests."""
        residual = self._residuals.get(key)
        return None if residual is None else residual.copy()

    def __repr__(self):
        return "TopKCodec(ratio=%r)" % (self.ratio,)


def make_codec(name, topk_ratio=0.1):
    """Construct one codec instance by name."""
    if name == "identity":
        return IdentityCodec()
    if name == "fp16":
        return Fp16Codec()
    if name == "int8":
        return Int8Codec()
    if name == "topk":
        return TopKCodec(ratio=topk_ratio)
    raise PSError("unknown codec %r" % (name,))
