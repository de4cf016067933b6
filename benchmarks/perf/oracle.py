"""Independent oracles, one per workload.

Each ``check`` runs right after a repeat's timed section (untimed) and
returns a list of failure strings — empty means the repeat's outputs are
correct.  A failure counts every op of that repeat as failed and makes
the command exit non-zero.  ``finalize`` runs once, after the timed
repeats and after peak RSS was read, for a reference too heavy to sit in
memory beside the measured program (the MLlib trajectory).

The references share no code path with what they check: plain numpy
accumulation (storms), the driver-centric ``train_lr_mllib`` (training),
and a fresh update-free context for the lazy-init values (serving).
"""

from __future__ import annotations

import numpy as np

from repro.baselines import train_lr_mllib
from repro.experiments import make_context

#: Relative tolerance for lossless paths (accumulation order is the only
#: licence the servers have).
EXACT_RTOL = 1e-9

#: Worst-case error one lossy payload adds to a coordinate, as a share of
#: the largest pushed magnitude — the bounds ``tests/test_codecs.py``
#: states: fp16 rounds to 2^-11 relative, int8 to half a step of
#: ``max/127``; top-k and delta may withhold a coordinate's whole value
#: until error feedback returns it.
CODEC_ERROR_SHARE = {"fp16": 2.0 ** -11, "int8": 2.0 ** -7,
                     "topk": 1.0, "delta": 1.0}


def _close(actual, expected, atol=0.0):
    scale = float(np.max(np.abs(expected))) if np.size(expected) else 0.0
    return np.allclose(actual, expected, rtol=EXACT_RTOL,
                       atol=atol + EXACT_RTOL * scale)


def verify_copies(ctx):
    """Compare every valid replica/chain copy with its primary's shards.

    Returns ``(copies_checked, mismatches)``.  Reads the servers' public
    ``replica_store`` / ``matrix_rows`` / ``epoch``; a build without that
    surface checks 0 copies, which ``ps.replication.copies_verified``
    makes visible.
    """
    servers = getattr(ctx.master, "servers", [])
    checked = mismatched = 0
    for holder in servers:
        for (matrix_id, primary_index), entry in \
                getattr(holder, "replica_store", {}).items():
            primary = servers[primary_index]
            if entry.install_epoch != primary.epoch:
                continue  # fenced: stale by contract, never served
            checked += 1
            rows = primary.matrix_rows(matrix_id)
            if set(rows) != set(entry.rows) or any(
                    not np.array_equal(rows[row].values,
                                       entry.rows[row].values)
                    for row in rows):
                mismatched += 1
    return checked, mismatched


def _copy_failures(state):
    checked, mismatched = verify_copies(state.ctx)
    state.copies_verified = checked
    if mismatched:
        return ["%d of %d replica/chain copies differ from their primary"
                % (mismatched, checked)]
    return []


def _dropped(ctx):
    counters = ctx.metrics.counters
    return (counters.get("client-dropped-ops", 0)
            + counters.get("op-retries-exhausted", 0))


class Oracle:
    """``check`` after every repeat; ``finalize`` once, after peak RSS."""

    def finalize(self, inputs):
        return []


class StormOracle(Oracle):
    """Final rows == a plain-numpy accumulation of everything pushed."""

    def __init__(self, workload):
        self.workload = workload
        self._expected = None

    def expected(self, inputs):
        if self._expected is None:
            wl = self.workload
            dense = np.zeros((wl.pool_rows, inputs["dim"]))
            sparse = np.zeros(inputs["dim"])
            for it in range(inputs["iterations"]):
                # dense.row is resolved at check time; accumulate the
                # single-row pushes apart from the block pushes.
                if it % 5 == 0:
                    dense[wl.block_rows] += inputs["blocks"][(it // 5) % 2]
                np.add.at(sparse, inputs["idx"][it % 2],
                          inputs["sparse_vals"][it % 4])
            counts = np.bincount(np.arange(inputs["iterations"]) % 4,
                                 minlength=4)
            self._expected = (dense, counts @ inputs["dense_vals"], sparse)
        return self._expected

    def codec_atol(self, ctx, inputs):
        """Absolute slack the chosen lossy codecs are entitled to."""
        vmax = max(float(np.max(np.abs(inputs[key])))
                   for key in ("dense_vals", "sparse_vals", "blocks"))
        return sum(count * CODEC_ERROR_SHARE.get(codec, 1.0) * vmax
                   for (_tag, codec), count
                   in ctx.metrics.codec_decisions.items()
                   if codec != "identity")

    def check(self, state, inputs, outputs):
        blocks, row_pushes, sparse = self.expected(inputs)
        dense = blocks.copy()
        dense[outputs["dense_row"]] += row_pushes
        atol = self.codec_atol(state.ctx, inputs)
        failures = _copy_failures(state)
        if not _close(outputs["dense"], dense, atol):
            failures.append("dense rows differ from the numpy accumulation")
        if not _close(outputs["sparse"], sparse, atol):
            failures.append("sparse row differs from the numpy accumulation")
        if _dropped(state.ctx):
            failures.append("%d ops dropped" % _dropped(state.ctx))
        return failures


class TrainOracle(Oracle):
    """Loss trajectory == the driver-centric MLlib implementation's."""

    def __init__(self):
        self.trajectories = []

    def check(self, state, inputs, outputs):
        losses = outputs["losses"]
        self.trajectories.append(losses)
        failures = _copy_failures(state)
        if losses.size != inputs["iterations"]:
            failures.append("trained %d of %d iterations"
                            % (losses.size, inputs["iterations"]))
        elif inputs["converges"] and not losses[-1] < losses[0]:
            failures.append("final loss %r is not below the initial %r"
                            % (losses[-1], losses[0]))
        if _dropped(state.ctx):
            failures.append("%d ops dropped" % _dropped(state.ctx))
        return failures

    def finalize(self, inputs):
        reference = train_lr_mllib(
            make_context(n_executors=20, n_servers=20, seed=inputs["seed"]),
            inputs["rows"], inputs["dim"], optimizer="adam",
            system="Spark-Adam", n_iterations=inputs["iterations"],
            batch_fraction=0.1, seed=inputs["seed"])
        expected = np.array([loss for _t, loss in reference.history])
        return [
            "repeat %d: loss trajectory differs from train_lr_mllib" % index
            for index, losses in enumerate(self.trajectories)
            if losses.shape != expected.shape
            or not np.allclose(losses, expected, rtol=EXACT_RTOL, atol=1e-12)
        ]


class ServeOracle(Oracle):
    """Each touched row == its lazy-init value + scale x its update count."""

    def __init__(self, workload):
        self.workload = workload
        self._initial = None

    def initial(self, inputs, touched):
        """Lazy-init values from a fresh, update-free context (cached)."""
        if self._initial is None:
            ctx = self.workload.build(inputs).ctx
            table = ctx.master.create_table(
                inputs["scenario"].dim, init="random", scale=0.01,
                name="emb-%s" % inputs["scenario"].name)
            self._initial = ctx.coordinator_client.pull_or_create(
                table, touched)
        return self._initial

    def check(self, state, inputs, outputs):
        failures = _copy_failures(state)
        touched = outputs["touched"]
        scenario = inputs["scenario"]
        if state.result is None:
            return failures + ["run_serving raised"]
        if state.result["requests"] != len(inputs["stream"]):
            failures.append("served %d of %d requests"
                            % (state.result["requests"],
                               len(inputs["stream"])))
        position = {row: pos for pos, row in enumerate(touched)}
        updates = np.zeros(len(touched))
        for request in inputs["stream"]:
            if request.kind == "update":
                for row in request.ids:
                    updates[position[row]] += 1
        expected = (self.initial(inputs, touched)
                    + scenario.update_scale * updates[:, None])
        if not _close(outputs["final"], expected):
            failures.append("embedding rows differ from init + updates")
        if _dropped(state.ctx):
            failures.append("%d requests dropped" % _dropped(state.ctx))
        return failures


def make_oracle(workload):
    """The oracle for *workload* (one instance per measuring process)."""
    if workload.name.startswith("storm"):
        return StormOracle(workload)
    if workload.name.startswith("train"):
        return TrainOracle()
    return ServeOracle(workload)
