"""One coordinator round per training iteration == the three it replaced.

``ServerSideOptimizer.step(grad_scale)`` and ``train_fm`` issue the
gradient scale, the optimizer update and the gradient reset as a single
``zip`` (``kernels.update_round_kernel``): one op descriptor per server.
That is a change of *schedule* only.  Two clusters are built from one
seed and fed one Hypothesis stream of worker pushes, pulls, clock ticks
and optimizer steps; on the reference cluster every round request is
taken apart again into the explicit sequence — ``gradient.scale`` →
update kernel → ``gradient.zero`` — each a coordinator fan-out of its
own.  After every step both must hold the same bits in every row of the
model's pool (weights, auxiliary vectors, gradient, L-BFGS history; chain
copies included) and have charged every server the same flops — the
fused request is priced as the sum of what it replaces, so only the two
removed rounds' RPC CPU, headers and NIC bookings may disappear — while
the fused side sends exactly one ``kernel:req`` per server per step and
no ``fill:req`` at all.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core import kernels
from repro.core.context import PS2Context
from repro.core.zipop import DCVZip
from repro.costs import KERNEL_FLOPS_PER_ELEMENT
from repro.data import sparse_classification
from repro.ml.fm import train_fm
from repro.ml.optim import make_optimizer
from repro.ps.server import _HANDLERS
from tests.test_fast_lane import _same

DIM = 30
N_SERVERS = 3
N_CLIENTS = 3
FIRST_ORDER = ("sgd", "adam", "adagrad", "rmsprop")


@contextmanager
def _observed(unfused=()):
    """Count the flops every server is charged, per context; on the
    *unfused* contexts, expand each round request into its three rounds."""
    flops = {}
    map_partitions = DCVZip.map_partitions

    def counting(handler):
        def counted(self, request, *entries):
            value, charges = handler(self, request, *entries)
            if not entries:  # a copy's apply is counted with the copy
                charged = flops.setdefault(id(self.cluster), {})
                for amount, _tag in charges:
                    charged[self.node_id] = \
                        charged.get(self.node_id, 0.0) + amount
            return value, charges
        return counted

    def expanding(self, fn, args=None, **kwargs):
        if fn is not kernels.update_round_kernel \
                or self.dcvs[0].ps2 not in unfused:
            return map_partitions(self, fn, args=args, **kwargs)
        group = args.get("group") or len(self.dcvs)
        result = None
        for lo in range(0, len(self.dcvs), group):
            dcvs = self.dcvs[lo:lo + group]
            if args["grad_scale"] is not None:
                dcvs[-1].scale(args["grad_scale"])
            result = map_partitions(DCVZip(dcvs[0], dcvs[1:]), args["update"],
                                    args=args["update_args"], **kwargs)
            dcvs[-1].zero()
        return result

    with mock.patch.dict(_HANDLERS, {kind: counting(handler) for kind,
                                     handler in _HANDLERS.items()}), \
            mock.patch.object(DCVZip, "map_partitions", expanding):
        yield lambda ctx: flops.get(id(ctx.cluster), {})


def _context(consistency="bsp", chain_replicas=0):
    return PS2Context(config=ClusterConfig(
        n_executors=N_CLIENTS, n_servers=N_SERVERS, seed=11,
        consistency=consistency, staleness=1, chain_replicas=chain_replicas))


def _stored_bits(ctx):
    """Every primary and chain-copy row on every server, as raw bytes."""
    return [
        ({(matrix_id, row): shard.values.tobytes()
          for matrix_id, rows in server._store.items()
          for row, shard in rows.items()},
         {(key, row): shard.values.tobytes()
          for key, entry in server.replica_store.items()
          for row, shard in entry.rows.items()})
        for server in ctx.master.servers
    ]


def _server_seconds(ctx):
    seconds = ctx.metrics.compute_seconds
    return [seconds.get(server.node_id, 0.0) for server in ctx.master.servers]


class _Rig:
    """One cluster, one model, one bound optimizer."""

    def __init__(self, optimizer, consistency, chain_replicas):
        self.ctx = _context(consistency, chain_replicas)
        self.weight = self.ctx.dense(DIM, rows=12, name="w")
        self.weight.push(np.linspace(-1.0, 1.0, DIM))
        kwargs = {"memory": 2} if optimizer == "lbfgs" else {}
        self.optimizer = make_optimizer(optimizer, **kwargs)
        self.gradient = self.optimizer.bind(self.weight)
        self.clients = [self.ctx.client_for(node_id)
                        for node_id in self.ctx.cluster.executors]

    def apply(self, op, explicit_scale):
        kind, args = op[0], op[1:]
        gradient = self.gradient
        if kind == "push":
            slot, indices, seed = args
            indices = None if indices is None \
                else np.array(indices, dtype=np.int64)
            n = DIM if indices is None else len(indices)
            values = np.random.default_rng(seed).normal(size=n)
            return self.clients[slot].push_add(
                gradient.matrix_id, gradient.row, values, indices)
        if kind == "pull":
            slot, which = args
            row = (self.weight, gradient)[which]
            return self.clients[slot].pull_row(row.matrix_id, row.row)
        if kind == "tick":
            (slot,) = args
            return self.ctx.cluster.consistency.advance(
                self.ctx.cluster, self.clients[slot].node_id)
        assert kind == "step"
        (grad_scale,) = args
        if explicit_scale and grad_scale is not None:
            gradient.scale(grad_scale)
            grad_scale = None
        self.optimizer.step(grad_scale)
        return None

    def sent(self, tag):
        return self.ctx.metrics.messages_by_tag.get(tag, 0)

    def coordinator_clock(self):
        return self.ctx.cluster.clock.now(self.ctx.coordinator)


def _run(optimizer, consistency, chain_replicas, stream):
    fused = _Rig(optimizer, consistency, chain_replicas)
    explicit = _Rig(optimizer, consistency, chain_replicas)
    with _observed(unfused=(explicit.ctx,)) as flops:
        for op in stream:
            kernels_before = fused.sent("kernel:req")
            fills_before = fused.sent("fill:req")
            assert _same(fused.apply(op, explicit_scale=False),
                         explicit.apply(op, explicit_scale=True)), op
            if op[0] != "step":
                continue
            bits = _stored_bits(fused.ctx)
            assert bits == _stored_bits(explicit.ctx), op
            assert not any(any(primary[fused.gradient.operand()])
                           for primary, _copies in bits)
            # Flop conservation, exactly (flop counts are integers) and as
            # the servers' busy seconds (one division against three).
            assert flops(fused.ctx) == flops(explicit.ctx), op
            assert _server_seconds(fused.ctx) == pytest.approx(
                _server_seconds(explicit.ctx), rel=1e-12, abs=0.0)
            if optimizer in FIRST_ORDER:
                assert fused.sent("kernel:req") - kernels_before == N_SERVERS
                assert fused.sent("fill:req") == fills_before
    return fused, explicit


# -- the stream ---------------------------------------------------------------

_clients = st.integers(0, N_CLIENTS - 1)
_pushes = st.tuples(
    st.just("push"), _clients,
    st.one_of(st.none(),
              st.lists(st.integers(0, DIM - 1), min_size=1, max_size=12,
                       unique=True)),
    st.integers(0, 2 ** 16))
_ops = st.one_of(
    _pushes,
    _pushes,
    st.tuples(st.just("pull"), _clients, st.integers(0, 1)),
    st.tuples(st.just("tick"), _clients),
    st.tuples(st.just("step"),
              st.sampled_from([None, 1.0 / 7, 0.5, 1.0 / 37])),
)

_FIXED_STREAM = [
    ("push", 0, None, 1),
    ("push", 1, [3, 17, 29, 0], 2),
    ("step", 0.5),
    ("pull", 2, 0),
    ("push", 2, [9, 10, 11], 3),
    ("tick", 2),
    ("step", None),
    ("step", 1.0 / 7),  # a step over an all-zero gradient
    ("pull", 0, 1),
    ("push", 0, None, 4),
    ("push", 1, None, 5),
    ("tick", 0),
    ("step", 1.0 / 37),
    ("push", 1, [5], 6),
    ("step", 0.5),
    ("pull", 1, 0),
]


@pytest.mark.parametrize("chain_replicas", [0, 1])
@pytest.mark.parametrize("consistency", ["bsp", "ssp", "asp"])
@pytest.mark.parametrize("optimizer", FIRST_ORDER + ("lbfgs",))
def test_a_fixed_stream_matches_the_explicit_sequence(
        optimizer, consistency, chain_replicas):
    fused, explicit = _run(optimizer, consistency, chain_replicas,
                           _FIXED_STREAM)
    n_steps = sum(op[0] == "step" for op in _FIXED_STREAM)
    assert fused.optimizer.step_count == n_steps
    if optimizer in FIRST_ORDER:
        # The comparison is only worth something if the schedules really
        # differ: two rounds per step are gone (one when nothing is scaled).
        n_scaled = sum(op[0] == "step" and op[1] is not None
                       for op in _FIXED_STREAM)
        assert explicit.sent("kernel:req") - fused.sent("kernel:req") \
            == N_SERVERS * n_scaled
        assert explicit.sent("fill:req") - fused.sent("fill:req") \
            == N_SERVERS * n_steps
        assert fused.coordinator_clock() < explicit.coordinator_clock()


@given(stream=st.lists(_ops, min_size=1, max_size=20),
       optimizer=st.sampled_from(FIRST_ORDER + ("lbfgs",)),
       consistency=st.sampled_from(["bsp", "ssp", "asp"]),
       chain_replicas=st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_any_stream_matches_the_explicit_sequence(
        stream, optimizer, consistency, chain_replicas):
    _run(optimizer, consistency, chain_replicas, stream)


def test_the_round_is_charged_as_the_three_requests_it_replaces():
    """The closed form, per server, for Adam's four operands."""
    rig = _Rig("adam", "bsp", 0)
    with _observed() as flops:
        before = dict(flops(rig.ctx))
        rig.optimizer.step(0.25)
        for server, (_index, start, stop) in zip(
                rig.ctx.master.servers,
                rig.weight.layout.shards_for_row(rig.weight.row)):
            width = stop - start
            assert flops(rig.ctx)[server.node_id] \
                - before.get(server.node_id, 0.0) == (
                    KERNEL_FLOPS_PER_ELEMENT * width * 4
                    + KERNEL_FLOPS_PER_ELEMENT * width + width)


# -- factorization machines ---------------------------------------------------

@given(n_factors=st.integers(1, 4), n_iterations=st.integers(1, 3),
       seed=st.integers(0, 50), chain_replicas=st.integers(0, 1))
@settings(max_examples=8, deadline=None)
def test_fm_trains_to_the_same_bits_in_one_round_per_iteration(
        n_factors, n_iterations, seed, chain_replicas):
    rows, _ = sparse_classification(60, 40, 6, seed=seed)
    fused = _context(chain_replicas=chain_replicas)
    explicit = _context(chain_replicas=chain_replicas)
    with _observed(unfused=(explicit,)) as flops:
        results = [
            train_fm(ctx, rows, 40, n_factors=n_factors,
                     n_iterations=n_iterations, batch_fraction=0.5, seed=seed)
            for ctx in (fused, explicit)
        ]
        assert flops(fused) == flops(explicit)
    assert results[0].history[-1][1] == results[1].history[-1][1]
    assert results[0].extras["model"].bias == results[1].extras["model"].bias
    assert _stored_bits(fused) == _stored_bits(explicit)
    assert _server_seconds(fused) == pytest.approx(
        _server_seconds(explicit), rel=1e-12, abs=0.0)
    # One zip over all 2 * (n_factors + 1) rows per iteration; the pool
    # starts zeroed, so nothing is ever filled.
    messages = fused.metrics.messages_by_tag
    assert messages["kernel:req"] == N_SERVERS * n_iterations
    assert "fill:req" not in messages
    assert explicit.metrics.messages_by_tag["kernel:req"] \
        == 2 * (n_factors + 1) * N_SERVERS * n_iterations
