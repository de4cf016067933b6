"""Golden determinism matrix: consistency × transmit schedule × replication.

Every cell of {bsp, ssp(1), asp} × {phased, per-message schedule} ×
{replication off, topk} must be a deterministic function of the seed: two
identical runs produce bit-identical loss histories, final weights and
virtual makespans.  The per-message cells replace
``Transport._transmit_bulk`` for the run with the interleaved reference
(``tests.test_fast_lane.interleaved``, a test-only lever), so every
attempt, first or retry, runs request, service, response, next message.
On top of per-cell determinism, two cross-cutting invariants:

- replication never changes the math — within any (consistency,
  schedule) pair the off and topk runs have identical loss histories
  (replication moves bytes, not floats);
- the canonical BSP / replication-off cell matches a checked-in golden
  hash on either schedule, so *any* change to the numerical behaviour of
  the default pipeline — however indirect — trips a review gate instead
  of sliding in silently.
"""

import contextlib
import hashlib
from unittest import mock

import numpy as np
import pytest

from repro.data import sparse_classification
from repro.experiments.runner import make_context
from repro.ml import train_logistic_regression
from repro.ps.transport import Transport
from tests.test_fast_lane import interleaved

MODELS = [("bsp", 0), ("ssp", 1), ("asp", 0)]

#: sha256 over the float64 loss history of the canonical cell
#: (bsp, replication off).  Regenerate deliberately with
#: ``_loss_hash(_run("bsp", 0, True, "off")[0])`` if the numerical
#: behaviour of the default pipeline is *intentionally* changed.
GOLDEN_BSP_HASH = \
    "433406334a7eb8f7b7e15868cb34e219bf7f5bb2498596e8931ef3e3df419684"


def _run(consistency, staleness, bulk, replication,
         timeseries_window=0.0, trace=False, wire_codec="off",
         chain_replicas=0):
    ctx = make_context(
        n_executors=2, n_servers=3, seed=11,
        consistency=consistency, staleness=staleness,
        replication=replication, hot_key_fraction=0.34,
        replication_factor=2,
        timeseries_window=timeseries_window,
        wire_codec=wire_codec,
        chain_replicas=chain_replicas,
    )
    if trace:
        ctx.cluster.tracer.enable()
    rows, _ = sparse_classification(80, 96, 8, seed=11)
    pin = contextlib.nullcontext() if bulk else mock.patch.object(
        Transport, "_transmit_bulk", interleaved)
    with pin:
        result = train_logistic_regression(
            ctx, rows, 96, optimizer="sgd", n_iterations=3,
            batch_fraction=0.5, seed=11,
        )
        weights = result.extras["weight"].pull()
    losses = [loss for _t, loss in result.history]
    return losses, weights, ctx


def _loss_hash(losses):
    return hashlib.sha256(
        np.asarray(losses, dtype=np.float64).tobytes()
    ).hexdigest()


@pytest.mark.parametrize("consistency,staleness", MODELS)
@pytest.mark.parametrize("bulk", [True, False])
@pytest.mark.parametrize("replication", ["off", "topk"])
def test_cell_is_bit_identical_across_runs(consistency, staleness, bulk,
                                           replication):
    losses_a, weights_a, ctx_a = _run(consistency, staleness, bulk,
                                      replication)
    losses_b, weights_b, ctx_b = _run(consistency, staleness, bulk,
                                      replication)
    assert losses_a == losses_b
    assert np.array_equal(weights_a, weights_b)
    assert ctx_a.elapsed() == ctx_b.elapsed()
    # The replication knob is live in topk cells and inert in off cells.
    fanouts = ctx_a.metrics.counters.get("replica-fanouts", 0)
    promotions = ctx_a.metrics.counters.get("replica-promotions", 0)
    if replication == "off":
        assert fanouts == 0 and promotions == 0
        if consistency == "bsp":
            # Either schedule lands on the checked-in golden.
            assert _loss_hash(losses_a) == GOLDEN_BSP_HASH
    else:
        assert promotions > 0
        assert (ctx_a.metrics.counters["rebalance-sweeps"]
                == ctx_b.metrics.counters["rebalance-sweeps"])


@pytest.mark.parametrize("consistency,staleness", MODELS)
@pytest.mark.parametrize("bulk", [True, False])
def test_replication_never_changes_the_losses(consistency, staleness, bulk):
    losses_off, _w_off, _ctx = _run(consistency, staleness, bulk, "off")
    losses_on, _w_on, _ctx = _run(consistency, staleness, bulk, "topk")
    assert losses_on == losses_off


def test_canonical_bsp_cell_matches_checked_in_golden():
    losses, _weights, ctx = _run("bsp", 0, True, "off")
    # The off cell must also be byte-oblivious to the feature existing:
    # no replication tag ever appears in the transfer accounting.
    assert not any("replica" in tag for tag in ctx.metrics.bytes_by_tag)
    assert _loss_hash(losses) == GOLDEN_BSP_HASH


@pytest.mark.parametrize("consistency,staleness", MODELS)
@pytest.mark.parametrize("replication", ["off", "topk"])
@pytest.mark.parametrize("wire_codec", ["fp16", "topk"])
def test_codec_cell_is_bit_identical_across_runs(consistency, staleness,
                                                 replication, wire_codec):
    """The codec axis of the matrix: forced-codec cells are deterministic.

    Lossy codecs may legitimately change the losses (that drift is bounded
    and benchmarked elsewhere); what the matrix pins is that every codec
    cell is still a pure function of the seed — two identical runs are
    bit-identical in losses, weights and makespan, replication included.
    The codec=off axis is the pre-existing matrix above plus the canonical
    golden-hash cell below.
    """
    losses_a, weights_a, ctx_a = _run(consistency, staleness, True,
                                      replication, wire_codec=wire_codec)
    losses_b, weights_b, ctx_b = _run(consistency, staleness, True,
                                      replication, wire_codec=wire_codec)
    assert losses_a == losses_b
    assert np.array_equal(weights_a, weights_b)
    assert ctx_a.elapsed() == ctx_b.elapsed()
    # The cost model genuinely ran and both runs decided identically.
    assert ctx_a.metrics.codec_decisions
    assert ctx_a.metrics.codec_decisions == ctx_b.metrics.codec_decisions
    assert ctx_a.metrics.codec_bytes_saved == ctx_b.metrics.codec_bytes_saved


def test_codec_off_cell_still_matches_golden():
    """wire_codec="off" is byte- and float-identical to the pre-codec repo:
    the canonical cell run with the knob explicitly off still hashes to the
    checked-in golden."""
    losses, _weights, ctx = _run("bsp", 0, True, "off", wire_codec="off")
    assert ctx.cluster.costmodel is None
    assert not ctx.metrics.codec_decisions
    assert _loss_hash(losses) == GOLDEN_BSP_HASH


def test_pooled_fanout_bit_identical_under_replication(monkeypatch):
    """Pooled fan-out plans stay on under replication: a replicated run
    with the plan pool active must be bit-identical to the same run with
    pooling disabled — routing sends a rerouted read as a retargeted copy
    and never assigns to a pooled request, so reuse can never change
    routing outcomes, across every rebalance sweep."""
    losses_p, weights_p, ctx_p = _run("bsp", 0, True, "topk")
    # Pooling genuinely engaged, and replication was live (promotions
    # happened mid-run).
    assert any(info.layout.op_plans
               for info in ctx_p.master._matrices.values())
    assert ctx_p.metrics.counters.get("replica-promotions", 0) > 0

    from repro.ps.client import PSClient

    monkeypatch.setattr(PSClient, "_plan_pool", lambda self, layout: None)
    losses_u, weights_u, ctx_u = _run("bsp", 0, True, "topk")
    assert not any(info.layout.op_plans
                   for info in ctx_u.master._matrices.values())
    assert losses_p == losses_u
    assert np.array_equal(weights_p, weights_u)
    assert ctx_p.elapsed() == ctx_u.elapsed()
    assert ctx_p.metrics.total_bytes() == ctx_u.metrics.total_bytes()
    assert ctx_p.metrics.total_messages() == ctx_u.metrics.total_messages()


def test_observability_never_perturbs_the_golden_cell():
    """Tracing + time-series sampling on: still the checked-in golden.

    The observability stack only *reads* the virtual clocks — trace
    contexts ride typed messages outside every wire-byte formula and the
    sampler is a passive window sink — so the fully instrumented canonical
    cell must stay bit-identical to the plain one, makespan included.
    """
    plain_losses, plain_weights, plain_ctx = _run("bsp", 0, True, "off")
    losses, weights, ctx = _run("bsp", 0, True, "off",
                                timeseries_window=0.005, trace=True)
    assert _loss_hash(losses) == GOLDEN_BSP_HASH
    assert losses == plain_losses
    assert np.array_equal(weights, plain_weights)
    assert ctx.elapsed() == plain_ctx.elapsed()
    assert (ctx.metrics.total_bytes(), ctx.metrics.total_messages()) == \
        (plain_ctx.metrics.total_bytes(), plain_ctx.metrics.total_messages())
    # the instrumentation actually ran: spans recorded, windows closed
    assert len(ctx.cluster.tracer) > 0
    assert ctx.cluster.timeseries.finalize()


@pytest.mark.parametrize("consistency,staleness", [("bsp", 0), ("ssp", 1)])
@pytest.mark.parametrize("chain", [0, 1, 2])
def test_chain_cell_is_bit_identical_across_runs(consistency, staleness,
                                                 chain):
    """The chain-replication axis of the matrix: {off, M=1, M=2} cells are
    each a pure function of the seed, and the off cell is byte-oblivious
    to the feature existing (no chain object, no chain wire tags)."""
    losses_a, weights_a, ctx_a = _run(consistency, staleness, True, "off",
                                      chain_replicas=chain)
    losses_b, weights_b, ctx_b = _run(consistency, staleness, True, "off",
                                      chain_replicas=chain)
    assert losses_a == losses_b
    assert np.array_equal(weights_a, weights_b)
    assert ctx_a.elapsed() == ctx_b.elapsed()
    assert ctx_a.metrics.total_bytes() == ctx_b.metrics.total_bytes()
    if chain == 0:
        assert ctx_a.cluster.replicas is None
        assert not any("chain" in tag for tag in ctx_a.metrics.bytes_by_tag)
        assert "chain-syncs" not in ctx_a.metrics.counters
        if consistency == "bsp":
            assert _loss_hash(losses_a) == GOLDEN_BSP_HASH
    else:
        # The knob is live: every primary carries M fenced chain copies
        # and every applied write fanned out to them.
        assert ctx_a.cluster.replicas is not None
        assert ctx_a.metrics.counters["chain-syncs"] > 0
        assert ctx_a.metrics.counters["chain-fanouts"] > 0
        assert ctx_a.metrics.bytes_for_tag("chain-sync") > 0
        assert (ctx_a.metrics.counters["chain-fanouts"]
                == ctx_b.metrics.counters["chain-fanouts"])
        replicas = ctx_a.cluster.replicas
        for key in replicas.keys("chain"):
            assert len(replicas.holders(key, "chain")) \
                == min(chain, ctx_a.master.n_servers - 1)
            assert ctx_a.cluster.replicas.key_lag(*key) == 0


@pytest.mark.parametrize("consistency,staleness", [("bsp", 0), ("ssp", 1)])
@pytest.mark.parametrize("chain", [1, 2])
def test_chain_never_changes_the_losses(consistency, staleness, chain):
    """Chain replication moves bytes, not floats: with no failures the
    chained cells produce the exact loss history of the plain cell."""
    losses_off, _w, _ctx = _run(consistency, staleness, True, "off")
    losses_on, _w, _ctx = _run(consistency, staleness, True, "off",
                               chain_replicas=chain)
    assert losses_on == losses_off
