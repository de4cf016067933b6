"""Property tests for the wire codecs: round-trip bounds and honest bytes.

Every codec must satisfy two contracts the cost model relies on:

- **loss class**: the decode(encode(x)) error obeys the codec's
  documented bound (zero for lossless, elementwise bounds for the
  quantizers, error-feedback conservation for top-k);
- **honest accounting**: ``Encoded.nbytes`` is the actual size of the
  encoded representation, and it equals ``encoded_bytes(len(x))`` — the
  property that lets responses be priced from the request alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import PSError
from repro.costs import FLOAT_BYTES, INDEX_BYTES
from repro.ps.codecs import (
    FP16_MAX,
    Fp16Codec,
    IdentityCodec,
    Int8Codec,
    TopKCodec,
    make_codec,
)

payloads = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
    min_size=1,
    max_size=64,
).map(lambda xs: np.asarray(xs, dtype=float))


# -- identity -----------------------------------------------------------------


@given(x=payloads)
@settings(max_examples=60, deadline=None)
def test_identity_bit_exact_and_honest(x):
    codec = IdentityCodec()
    enc = codec.encode(x)
    out = codec.decode(enc)
    assert out.dtype == np.float64
    assert np.array_equal(out, x)  # bit-exact
    assert enc.nbytes == x.size * FLOAT_BYTES
    assert enc.nbytes == codec.encoded_bytes(x.size)


def test_identity_decode_returns_a_copy():
    codec = IdentityCodec()
    x = np.array([1.0, 2.0])
    enc = codec.encode(x)
    out = codec.decode(enc)
    out[0] = 99.0
    assert codec.decode(enc)[0] == 1.0


# -- fp16 ---------------------------------------------------------------------


@given(x=payloads)
@settings(max_examples=60, deadline=None)
def test_fp16_error_bound_and_honest(x):
    codec = Fp16Codec()
    enc = codec.encode(x)
    out = codec.decode(enc)
    clipped = np.clip(x, -FP16_MAX, FP16_MAX)
    # Half-precision round-to-nearest: relative 2^-11 in the normal
    # range, absolute 2^-24 near zero (subnormal spacing).
    bound = np.maximum(2.0 ** -11 * np.abs(clipped), 2.0 ** -24)
    assert np.all(np.abs(out - clipped) <= bound)
    assert enc.nbytes == 2 * x.size
    assert enc.nbytes == codec.encoded_bytes(x.size)


def test_fp16_clips_out_of_range():
    codec = Fp16Codec()
    out = codec.decode(codec.encode(np.array([1e30, -1e30])))
    assert out[0] == pytest.approx(FP16_MAX)
    assert out[1] == pytest.approx(-FP16_MAX)
    assert np.all(np.isfinite(out))


# -- int8 ---------------------------------------------------------------------


@given(x=payloads)
@settings(max_examples=60, deadline=None)
def test_int8_error_bound_and_honest(x):
    codec = Int8Codec()
    enc = codec.encode(x)
    out = codec.decode(enc)
    peak = float(np.max(np.abs(x)))
    scale = peak / 127.0 if peak > 0 else 1.0
    # Round-to-nearest against one scale per payload: error <= scale/2.
    assert np.all(np.abs(out - x) <= scale / 2.0 + 1e-12)
    assert enc.nbytes == x.size + FLOAT_BYTES
    assert enc.nbytes == codec.encoded_bytes(x.size)


def test_int8_all_zero_roundtrips_exactly():
    codec = Int8Codec()
    x = np.zeros(17)
    assert np.array_equal(codec.decode(codec.encode(x)), x)


# -- topk ---------------------------------------------------------------------


@given(x=payloads)
@settings(max_examples=60, deadline=None)
def test_topk_keeps_largest_and_honest(x):
    codec = TopKCodec(ratio=0.25)
    enc = codec.encode(x)  # stateless use: no key, no residual
    out = codec.decode(enc)
    k = codec.k_for(x.size)
    kept = np.nonzero(out)[0]
    assert len(kept) <= k
    assert np.array_equal(out[kept], x[kept])
    # Nothing dropped is larger in magnitude than anything kept.
    if kept.size and kept.size < x.size:
        dropped = np.setdiff1d(np.arange(x.size), kept)
        assert np.max(np.abs(x[dropped])) <= np.min(np.abs(x[kept])) + 1e-12
    assert enc.nbytes == INDEX_BYTES + k * (INDEX_BYTES + FLOAT_BYTES)
    assert enc.nbytes == codec.encoded_bytes(x.size)


@given(chunks=st.lists(payloads.filter(lambda a: a.size >= 4), min_size=2,
                       max_size=6))
@settings(max_examples=40, deadline=None)
def test_topk_error_feedback_conserves_mass(chunks):
    """decode(enc) + residual_after == values + residual_before, exactly.

    Dropped gradient mass is delayed into the stream's residual, never
    lost — the Stich et al. error-feedback invariant, per message.
    """
    size = chunks[0].size
    codec = TopKCodec(ratio=0.25)
    key = ("client", "m", 0, 1)
    for chunk in chunks:
        chunk = np.resize(chunk, size)  # one stream, constant width
        before = codec.residual(key)
        before = np.zeros(size) if before is None else before
        enc = codec.encode(chunk, key=key)
        after = codec.residual(key)
        assert np.array_equal(codec.decode(enc) + after, chunk + before)


def test_topk_rejects_bad_ratio():
    with pytest.raises(PSError):
        TopKCodec(ratio=0.0)
    with pytest.raises(PSError):
        TopKCodec(ratio=1.5)


def test_topk_k_for_edges():
    codec = TopKCodec(ratio=0.1)
    assert codec.k_for(0) == 0
    assert codec.k_for(1) == 1  # at least one entry always ships
    assert codec.k_for(100) == 10
    assert TopKCodec(ratio=1.0).k_for(7) == 7


# -- factory ------------------------------------------------------------------


def test_make_codec_covers_every_name():
    for name in ("identity", "fp16", "int8", "topk"):
        codec = make_codec(name)
        assert codec.name == name
        assert codec.loss_class in ("lossless", "quantized", "sparsified")


def test_make_codec_threads_topk_ratio():
    assert make_codec("topk", topk_ratio=0.5).ratio == 0.5


def test_make_codec_rejects_unknown():
    with pytest.raises(PSError):
        make_codec("gzip")
