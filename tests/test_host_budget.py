"""Every optional subsystem has a host price, and the price is gated.

Host seconds on a shared box cannot resolve a few percent, but the number
of Python calls a fixed op stream makes is exact and repeatable.  This
module runs a small fixed storm (the perf ledger's fig13 storm at 20
workers, 20 servers and 100 iterations) bare, with each ``ALL_ON`` knob
alone and with all of them, counts the timed op stream's calls
(``cProfile``) and holds each configuration's ratio to bare's total
under its own bound — as a whole (:data:`BOUNDS`) and per layer
(:data:`LAYER_BOUNDS`): each profiled function's calls are charged to
its ``src/repro`` module, each builtin call to its caller's module, and
everything else (numpy, the workload driver) to ``other``.

Training has its own gate (:data:`TRAIN_BOUNDS`): a short fixed LR
stream's calls in the layers between the sample and the push, held
under absolute bounds, so per-row Python on that path fails here and
not only in a noisy host-time ledger.

The counts are taken in a fresh child interpreter with
``PYTHONHASHSEED=0``, so no earlier test's warm caches and no hash seed
can move them; when the bounds were set, the child read the same counts
on every run and under hash seeds 0 and 5 alike.

Bounds sit about 10 % over the ratios measured on CPython 3.11 when the
bound was last lowered; a change that makes a knob or a layer dearer
fails here, prints the layer table, and has to say why.  Ratios against
bare cancel most interpreter differences, but they are not measured on
other Python versions.
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys

import numpy as np
import pytest

from benchmarks.perf.workloads import ALL_ON, WORKLOADS, Storm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 17

#: Each ``ALL_ON`` knob alone: its config fields.
KNOBS = {
    "chain": ("chain_replicas",),
    "codec": ("wire_codec",),
    "topk": ("replication", "replication_factor", "rebalance_interval"),
    "timeseries": ("timeseries_window",),
    "failures": ("failures",),
}
assert sorted(field for fields in KNOBS.values() for field in fields) \
    == sorted(ALL_ON)
CONFIGS = ("bare", *KNOBS, "all-on")

#: Upper bound on each configuration's call count, as a ratio to bare,
#: with the ratio measured on CPython 3.11 (bare = 367 791 calls): each
#: bound sits about 10 % over the ratio measured when it was last lowered.
BOUNDS = {
    "chain": 1.74,       # 1.603
    "codec": 1.14,       # 1.021
    "topk": 1.21,        # 1.105
    "timeseries": 1.17,  # 1.071
    "failures": 1.11,    # 1.008
    "all-on": 2.07,      # 1.924
}

#: Upper bound on each layer's calls per configuration (in
#: :data:`CONFIGS` order), as a ratio to bare's *total*, about 10 % over
#: the CPython 3.11 measurement; ``0`` for a layer the configuration
#: never enters.  A layer missing here fails the test.
LAYER_BOUNDS = {
    #                     bare   chain  codec  topk   ts     fail   all-on
    "cluster.resource":  (.5164, .8185, .5164, .5524, .5171, .5164, .8528),
    "ps.server":         (.2942, .4825, .2942, .3157, .2942, .2963, .5091),
    "obs.histogram":     (.0603, .0877, .0603, .0633, .1216, .0603, .1826),
    "ps.replication":    (0,     .0898, 0,     .0342, 0,     0,     .1244),
    "cluster.network":   (.0790, .1050, .0790, .0854, .0793, .0790, .1110),
    "ps.transport":      (.0479, .0479, .0479, .0479, .0479, .0479, .0859),
    "ps.messages":       (.0170, .0237, .0170, .0186, .0170, .0170, .0644),
    "cluster.metrics":   (.0115, .0147, .0275, .0123, .0115, .0115, .0314),
    "other":             (.0141, .0141, .0141, .0147, .0141, .0141, .0221),
    "cluster.simclock":  (.0082, .0082, .0082, .0122, .0120, .0103, .0204),
    "ps.client":         (.0193, .0193, .0193, .0193, .0193, .0193, .0193),
    "cluster.failures":  (.0026, .0051, .0026, .0032, .0026, .0067, .0141),
    "obs.timeseries":    (0,     0,     0,     0,     .0076, 0,     .0088),
    "ps.costmodel":      (0,     0,     .0067, 0,     0,     0,     .0068),
    "ps.master":         (.0028, .0028, .0028, .0059, .0028, .0028, .0059),
    "cluster.cluster":   (.0014, .0014, .0014, .0014, .0027, .0014, .0027),
    "ps.partitioner":    (.0013, .0013, .0013, .0013, .0013, .0013, .0018),
    "core.context":      (.0003, .0003, .0003, .0003, .0003, .0003, .0003),
    "ps.consistency":    (.0001, .0001, .0001, .0001, .0001, .0001, .0001),
}


#: Upper bound on each training-path layer's calls over three iterations
#: of the perf ledger's ``train-lr-adam`` stream (the CTR analogue, 20
#: executors, 20 servers, seed 17), about 10 % over the CPython 3.11
#: measurement.  A task turns its rows into one ``SparseBatch`` and each
#: loss kernel is one array pass, so these grow with tasks, not rows.
TRAIN_BOUNDS = {
    "ml.losses": 660,      # 600 (7 524 with a per-row loop)
    "linalg.sparse": 990,  # 900 (1 272)
    "sparklite.rdd": 633,  # 575 (1 547 with a draw per row)
}
TRAIN_ITERATIONS = 3


def _module(filename):
    """The ``src/repro`` module a source file defines, dotted and
    without the package prefix (``ps.server``), or ``other``."""
    path = filename.replace(os.sep, "/")
    _head, found, tail = path.rpartition("/src/repro/")
    if not found:
        return "other"
    module = tail[:-len(".py")].replace("/", ".")
    return module[:-len(".__init__")] if module.endswith(".__init__") \
        else module


def _layers(stats):
    """Calls per layer from a ``pstats.Stats``: a profiled function's
    calls go to its module; a builtin's (file ``~``) to each caller's
    module, edge by edge, with any calls no caller accounts for left to
    ``other``.  The layers sum to ``total_calls``."""
    layers = {}
    for (filename, _line, _name), (_cc, calls, _tt, _ct, callers) \
            in stats.stats.items():
        if filename != "~":
            layer = _module(filename)
            layers[layer] = layers.get(layer, 0) + calls
            continue
        for (caller, _cline, _cname), edge in callers.items():
            layer = _module(caller)
            layers[layer] = layers.get(layer, 0) + edge[1]
            calls -= edge[1]
        if calls:
            layers["other"] = layers.get("other", 0) + calls
    return layers


class _SmallStorm(Storm):
    """The ledger's storm, shrunk: 20 workers, 20 servers."""

    n_workers, n_servers = 20, 20


def _config(name):
    if name == "bare":
        return {}
    if name == "all-on":
        return dict(ALL_ON)
    return {field: ALL_ON[field] for field in KNOBS[name]}


def _profile(name, iterations=100):
    """The ``pstats.Stats`` of configuration *name*'s op stream (set-up
    and the final read-back excluded)."""
    workload = _SmallStorm(name, iterations, _config(name))
    inputs = workload.generate(SEED)
    state = workload.build(inputs)
    profile = cProfile.Profile()
    profile.enable()
    done = workload.run(state, inputs)
    profile.disable()
    assert done == workload.planned_units(inputs)
    return pstats.Stats(profile)


def _measure():
    """``{configuration: {layer: calls}}`` for every configuration, after
    one untimed stream: the first configuration measured would otherwise
    pay every subsystem's one-off lazy set-up."""
    _profile("all-on", iterations=10)
    return {name: _layers(_profile(name)) for name in CONFIGS}


def _measure_training():
    """``{layer: calls}`` of :data:`TRAIN_ITERATIONS` iterations of the
    ledger's LR training stream (set-up excluded)."""
    workload = WORKLOADS["train-lr-adam"]
    inputs = dict(workload.generate(SEED), iterations=TRAIN_ITERATIONS)
    state = workload.build(inputs)
    profile = cProfile.Profile()
    profile.enable()
    done = workload.run(state, inputs)
    profile.disable()
    assert done == TRAIN_ITERATIONS
    return _layers(pstats.Stats(profile))


def _table(calls):
    """The layer table a failure prints: calls per layer and
    configuration, and each as a ratio to bare's total."""
    bare = sum(calls["bare"].values())
    layers = sorted({layer for counts in calls.values() for layer in counts},
                    key=lambda layer: -calls["all-on"].get(layer, 0))
    lines = ["%-22s" % "layer" + "".join("%18s" % name for name in CONFIGS)]
    for layer in layers + ["total"]:
        cells = []
        for name in CONFIGS:
            count = sum(calls[name].values()) if layer == "total" \
                else calls[name].get(layer, 0)
            cells.append("%9d ×%.3f" % (count, count / bare))
        lines.append("%-22s" % layer + "".join("%18s" % c for c in cells))
    return "\n".join(lines)


@pytest.fixture(scope="module")
def measured():
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]))
    child = subprocess.run([sys.executable, os.path.abspath(__file__)],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           check=True)
    return json.loads(child.stdout)


@pytest.fixture(scope="module")
def calls(measured):
    return measured["storm"]


@pytest.mark.parametrize("name", [*KNOBS, "all-on"])
def test_each_knob_costs_at_most_its_bound_in_calls(calls, name):
    ratio = sum(calls[name].values()) / sum(calls["bare"].values())
    assert ratio <= BOUNDS[name], "%s ×%.3f\n%s" % (name, ratio,
                                                     _table(calls))


@pytest.mark.parametrize("name", CONFIGS)
def test_each_layer_costs_at_most_its_bound_in_calls(calls, name):
    bare = sum(calls["bare"].values())
    column = CONFIGS.index(name)
    over = {layer: round(count / bare, 4)
            for layer, count in calls[name].items()
            if layer not in LAYER_BOUNDS
            or count / bare > LAYER_BOUNDS[layer][column]}
    assert not over, "%s %s\n%s" % (name, over, _table(calls))


@pytest.mark.parametrize("layer", sorted(TRAIN_BOUNDS))
def test_training_layer_costs_at_most_its_bound_in_calls(measured, layer):
    training = measured["training"]
    assert training.get(layer, 0) <= TRAIN_BOUNDS[layer], "%s %d\n%s" % (
        layer, training.get(layer, 0), json.dumps(training, indent=1,
                                                   sort_keys=True))


def test_training_builds_its_index_sets_without_np_unique(monkeypatch,
                                                          make_ps2):
    """Host cost that call counts cannot see: ``np.unique`` is one call
    from ``src/repro`` whether it sorts or (numpy 2.x, integers) hashes
    first, at several times a sort's price.  Index sets on the training
    path (the data generators, a ``SparseBatch``'s union and positions,
    a split, a worker's LDA vocabulary) are built by sorting and
    cutting; here a batch, one LR iteration and one LDA init with
    ``np.unique`` refused hold them to it."""
    from repro.data import sparse_classification, synthetic_corpus
    from repro.linalg.sparse import SparseBatch
    from repro.ml.lda import train_lda
    from repro.ml.lr import train_logistic_regression
    from repro.ml.optim import Adam

    def refused(*args, **kwargs):
        raise AssertionError("np.unique on the training path")

    monkeypatch.setattr(np, "unique", refused)
    rows, _truth = sparse_classification(80, 200, 10, seed=21)
    batch = SparseBatch(rows)
    assert np.array_equal(batch.union[batch.positions], batch.indices)
    result = train_logistic_regression(
        make_ps2(), rows, 200, optimizer=Adam(learning_rate=0.2),
        n_iterations=1, batch_fraction=0.5, seed=21)
    assert result.iterations == 1
    docs, _truth = synthetic_corpus(20, 60, n_topics=3, doc_length=15,
                                    seed=23)
    result = train_lda(make_ps2(), docs, 60, n_topics=3, n_iterations=1,
                       seed=23)
    assert result.iterations == 1


if __name__ == "__main__":
    print(json.dumps({"storm": _measure(), "training": _measure_training()}))
