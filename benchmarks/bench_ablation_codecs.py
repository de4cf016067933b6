"""Wire-codec ablation — compression vs loss drift, and the auto regime.

Two workloads on byte-dominated hardware (the replication ablation's
100 Mbit/s NICs):

- **embedding** — a push-dominated skip-gram-with-negative-sampling loop
  over dense K-vectors: each pass pulls a snapshot of the 2V embedding
  rows once, then pushes one dense add-mode gradient per touched vector
  per pair (1 center + 1 positive + ``N_NEGATIVE`` negatives).  Dense
  gradient pushes are exactly the traffic the lossy codecs are built for:
  ``topk`` ships the largest coordinates and carries the rest in its
  error-feedback residual, ``int8``/``fp16`` quantize.  The ablation
  sweeps {off, fp16, int8, topk} and asserts the PR-8 acceptance bar:
  >= 2x total-wire-byte reduction for topk and int8 with final-loss
  drift <= 15% of the codec-off (BSP-exact) baseline.

- **fig09-style LR** — the sparse-classification training loop of the
  Figure 9/10 pipelines, run codec-off vs ``wire_codec="auto"``.  This
  is the *cost-model* demonstration: on the slow NICs the model chooses
  quantization per message (bytes drop, drift stays bounded); on default
  fast NICs the same "auto" run decides identity everywhere and is
  bit-identical to off — compression is a regime decision, not a knob.
"""

import numpy as np
import pytest

from benchmarks._common import ITERATIONS as PASSES
from benchmarks._common import emit, run_once
from repro.config import ClusterConfig, NetworkSpec, NodeSpec
from repro.core.context import PS2Context
from repro.data.synth import sparse_classification
from repro.experiments import format_table
from repro.ml.deepwalk import build_embeddings
from repro.ml.linear import train_linear_ps2
from repro.ml.losses import sigmoid

# CI's benchmark-smoke job runs the ablation at reduced scale
# (PASSES = ``_common.ITERATIONS`` = 4); the shape assertions hold at
# any scale.

#: Byte-dominated hardware (same regime as the replication ablation).
NODE = dict(flops=2e11, nic_bandwidth=1.25e7)
NET = dict(latency=1e-5, bandwidth=1.25e7)

EMBED_CODECS = ("off", "fp16", "int8", "topk")
N_VERTICES, EMBED_DIM = 24, 128
PAIRS_PER_PASS, N_NEGATIVE = 36, 5
LEARNING_RATE = 0.05


def _make_context(wire_codec, slow=True):
    specs = dict(node=NodeSpec(**NODE), network=NetworkSpec(**NET)) \
        if slow else {}
    config = ClusterConfig(n_executors=2, n_servers=2, seed=13,
                           wire_codec=wire_codec, **specs)
    return PS2Context(config=config)


def _codec_stats(metrics):
    decisions = getattr(metrics, "codec_decisions", {})
    return {
        "decisions": dict(decisions),
        "non_identity": sum(count for (_tag, codec), count
                            in decisions.items() if codec != "identity"),
        "bytes_saved": sum(
            getattr(metrics, "codec_bytes_saved", {}).values()
        ),
    }


# -- the embedding workload ---------------------------------------------------


def _embedding_run(wire_codec):
    """SGNS over dense embedding rows: snapshot pulls + gradient pushes."""
    ctx = _make_context(wire_codec)
    embeddings = build_embeddings(ctx, N_VERTICES, EMBED_DIM, scale=0.5)
    rng = np.random.default_rng(13)
    final_loss = 0.0
    for _pass in range(PASSES):
        snapshot = np.stack([row.pull() for row in embeddings])
        loss_sum, count = 0.0, 0
        for _pair in range(PAIRS_PER_PASS):
            u = int(rng.integers(N_VERTICES))
            positive = int(rng.integers(N_VERTICES))
            grad_u = np.zeros(EMBED_DIM)
            contexts = [(positive, 1.0)] + [
                (int(rng.integers(N_VERTICES)), 0.0)
                for _ in range(N_NEGATIVE)
            ]
            for vertex, target in contexts:
                y = snapshot[vertex + N_VERTICES]
                prob = float(sigmoid(np.asarray(np.dot(snapshot[u], y))))
                coeff = LEARNING_RATE * (target - prob)
                grad_u += coeff * y
                grad_y = coeff * snapshot[u]
                embeddings[vertex + N_VERTICES].add(grad_y, defer=False)
                snapshot[vertex + N_VERTICES] += grad_y
                loss_sum += -np.log(max(prob if target else 1.0 - prob,
                                        1e-9))
                count += 1
            embeddings[u].add(grad_u, defer=False)
            snapshot[u] += grad_u
        final_loss = loss_sum / count
    metrics = ctx.cluster.metrics
    return {
        "loss": final_loss,
        "wire_bytes": metrics.total_bytes(),
        "makespan": ctx.elapsed(),
        "codec": _codec_stats(metrics),
    }


# -- the fig09-style LR workload ----------------------------------------------


def _lr_run(wire_codec, slow=True):
    ctx = _make_context(wire_codec, slow=slow)
    rows, _ = sparse_classification(200, 2048, 32, seed=13)
    result = train_linear_ps2(
        ctx, rows, 2048, optimizer="sgd", n_iterations=2,
        batch_fraction=0.25, seed=13,
    )
    metrics = ctx.cluster.metrics
    return {
        "losses": [loss for _t, loss in result.history],
        "wire_bytes": metrics.total_bytes(),
        "makespan": ctx.elapsed(),
        "codec": _codec_stats(metrics),
    }


def _sweep():
    return {
        "embedding": {codec: _embedding_run(codec)
                      for codec in EMBED_CODECS},
        "lr": {
            "off": _lr_run("off"),
            "auto": _lr_run("auto"),
            "fast_off": _lr_run("off", slow=False),
            "fast_auto": _lr_run("auto", slow=False),
        },
    }


@pytest.mark.benchmark(group="ablation")
def test_codec_ablation(benchmark):
    outcomes = run_once(benchmark, _sweep)
    embed = outcomes["embedding"]
    lr = outcomes["lr"]

    off = embed["off"]
    table = []
    for codec in EMBED_CODECS:
        run = embed[codec]
        reduction = off["wire_bytes"] / run["wire_bytes"]
        drift = abs(run["loss"] - off["loss"]) / abs(off["loss"])
        table.append((codec, "%.0f" % run["wire_bytes"],
                      "%.2fx" % reduction, "%.6f" % run["loss"],
                      "%.4f" % drift, run["codec"]["non_identity"]))
        benchmark.extra_info["embed_%s_reduction" % codec] = \
            round(reduction, 2)
        benchmark.extra_info["embed_%s_drift" % codec] = round(drift, 4)
    text = format_table(
        ["codec", "wire bytes", "reduction", "final loss", "loss drift",
         "compressed msgs"],
        table,
        title="Codec ablation: SGNS embedding (push-dominated, slow NIC)",
    )

    auto_saving = 1.0 - lr["auto"]["wire_bytes"] / lr["off"]["wire_bytes"]
    text += "\n\nLR (fig09-style) under the cost model:"
    text += "\n  slow NIC: auto wire bytes %.0f vs off %.0f (%.1f%% saved, " \
        "%d compressed messages)" % (
            lr["auto"]["wire_bytes"], lr["off"]["wire_bytes"],
            100.0 * auto_saving, lr["auto"]["codec"]["non_identity"])
    text += "\n  fast NIC: auto wire bytes %.0f vs off %.0f " \
        "(identity everywhere: %d compressed messages)" % (
            lr["fast_auto"]["wire_bytes"], lr["fast_off"]["wire_bytes"],
            lr["fast_auto"]["codec"]["non_identity"])
    emit("ablation_codecs", text)

    # The acceptance bar: >= 2x wire reduction for the sparsifier and the
    # 8-bit quantizer, with bounded loss drift, on the embedding workload.
    for codec in ("topk", "int8"):
        run = embed[codec]
        assert off["wire_bytes"] / run["wire_bytes"] >= 2.0, codec
        assert abs(run["loss"] - off["loss"]) <= 0.15 * abs(off["loss"]), \
            codec
        assert run["codec"]["non_identity"] > 0
        assert run["codec"]["bytes_saved"] > 0
    # fp16 compresses too (smaller win, tighter drift).
    assert embed["fp16"]["wire_bytes"] < off["wire_bytes"]
    assert abs(embed["fp16"]["loss"] - off["loss"]) <= \
        0.15 * abs(off["loss"])
    # The off run never consulted a codec.
    assert off["codec"]["decisions"] == {}

    # Cost-model regime on LR: slow NIC -> the model compresses and bytes
    # drop; fast NIC -> the same auto run chooses identity per message and
    # stays bit-identical to off (losses, bytes, makespan).
    assert lr["auto"]["codec"]["non_identity"] > 0
    assert lr["auto"]["wire_bytes"] < lr["off"]["wire_bytes"]
    assert lr["fast_auto"]["codec"]["non_identity"] == 0
    assert lr["fast_auto"]["codec"]["decisions"]  # it did run and decide
    assert lr["fast_auto"]["losses"] == lr["fast_off"]["losses"]
    assert lr["fast_auto"]["wire_bytes"] == lr["fast_off"]["wire_bytes"]
    assert lr["fast_auto"]["makespan"] == lr["fast_off"]["makespan"]
