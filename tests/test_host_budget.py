"""Every optional subsystem has a host price, and the price is gated.

Host seconds on a shared box cannot resolve a few percent, but the number
of Python calls a fixed op stream makes is exact and repeatable.  This
module runs a small fixed storm (the perf ledger's fig13 storm at 20
workers, 20 servers and 100 iterations) bare, with each ``ALL_ON`` knob
alone and with all of them, counts the timed op stream's calls
(``cProfile``'s ``total_calls``) and holds each knob's ratio to bare
under its own bound.

Bounds sit about 10 % over the ratios measured on CPython 3.11 when the
bound was last lowered; a change that makes a knob dearer fails here and
has to say why.  Ratios against bare cancel most interpreter differences,
but they are not measured on other Python versions.
"""

import cProfile
import pstats

import pytest

from benchmarks.perf.workloads import ALL_ON, Storm

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

#: Upper bound on each configuration's call count, as a ratio to bare,
#: with the ratio measured on CPython 3.11 (bare = 397 637 calls): each
#: bound sits about 10 % over the ratio measured when it was last lowered.
BOUNDS = {
    "chain": 1.74,       # 1.577
    "codec": 1.14,       # 1.020
    "topk": 1.21,        # 1.097
    "timeseries": 1.17,  # 1.065
    "failures": 1.11,    # 1.007
    "all-on": 2.07,      # 1.875
}


class _SmallStorm(Storm):
    """The ledger's storm, shrunk: 20 workers, 20 servers."""

    n_workers, n_servers = 20, 20


def _config(name):
    if name == "bare":
        return {}
    if name == "all-on":
        return dict(ALL_ON)
    return {field: ALL_ON[field] for field in KNOBS[name]}


def _calls(name, iterations=100):
    """Python calls the op stream of configuration *name* makes (set-up
    and the final read-back excluded)."""
    workload = _SmallStorm(name, iterations, _config(name))
    inputs = workload.generate(SEED)
    state = workload.build(inputs)
    profile = cProfile.Profile()
    profile.enable()
    done = workload.run(state, inputs)
    profile.disable()
    assert done == workload.planned_units(inputs)
    return pstats.Stats(profile).total_calls


@pytest.fixture(scope="module")
def calls():
    # One untimed stream first: the first configuration measured would
    # otherwise pay every subsystem's one-off lazy set-up.
    _calls("all-on", iterations=10)
    return {name: _calls(name) for name in ["bare", *KNOBS, "all-on"]}


@pytest.mark.parametrize("name", [*KNOBS, "all-on"])
def test_each_knob_costs_at_most_its_bound_in_calls(calls, name):
    ratio = calls[name] / calls["bare"]
    assert ratio <= BOUNDS[name], (name, round(ratio, 3), calls)
