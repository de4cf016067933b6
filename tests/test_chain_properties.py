"""Property-based tests for the chain-replication primitives.

The two pure functions the recovery story stands on are driven directly
by Hypothesis:

- :func:`chain_successors` — successor sets never contain the primary,
  stay inside the live set, and are *ring-stable*: for any live subset
  the result equals the full-ring walk order filtered to the survivors
  and truncated, so membership changes never reorder survivors.
- :func:`merge_chain_copies` — promotion's max-version merge picks, per
  row, the copy with the highest mutation counter, ties breaking to the
  lowest holder index, independent of dict insertion order.

Plus the concrete fencing end of the contract: a write fan-out stamped
with a dead primary's epoch, replayed after promotion re-installed the
copies at the new epoch, is rejected by the apply fence and mutates
nothing.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core.context import PS2Context
from repro.ps import messages
from repro.ps.replication import chain_successors, merge_chain_copies


def _ring_case():
    """(ring_size, primary, m, alive) with alive ⊆ range(ring_size)."""
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.integers(min_value=0, max_value=ring - 1),
            st.integers(min_value=0, max_value=5),
            st.sets(st.integers(min_value=0, max_value=ring - 1)),
        )
    )


def _full_walk(primary, ring):
    return [(primary + step) % ring for step in range(1, ring)]


# -- chain_successors ---------------------------------------------------------


@given(case=_ring_case())
@settings(max_examples=200, deadline=None)
def test_successors_disjoint_bounded_and_live(case):
    ring, primary, m, alive = case
    out = chain_successors(primary, ring, m, alive)
    assert primary not in out
    assert set(out) <= (alive - {primary})
    assert len(out) == len(set(out))  # no duplicates
    assert len(out) == min(m, len(alive - {primary}))


@given(case=_ring_case())
@settings(max_examples=200, deadline=None)
def test_successors_are_ring_stable(case):
    """The result is always the full-ring walk filtered to the live set
    and truncated — the closed form every other property follows from."""
    ring, primary, m, alive = case
    out = chain_successors(primary, ring, m, alive)
    walk = [s for s in _full_walk(primary, ring) if s in alive]
    assert out == walk[:m]


@given(case=_ring_case(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_successors_stable_under_membership_changes(case, data):
    """Removing or adding one server never reorders the survivors: the
    successor lists restricted to their common members agree."""
    ring, primary, m, alive = case
    out = chain_successors(primary, ring, m, alive)
    flipped = data.draw(st.integers(min_value=0, max_value=ring - 1))
    other = (alive ^ {flipped}) - {primary}
    out_other = chain_successors(primary, ring, m, other)
    common = set(out) & set(out_other)
    assert [s for s in out if s in common] == \
        [s for s in out_other if s in common]


# -- merge_chain_copies -------------------------------------------------------


def _copies():
    """{holder: (rows, counters)} with small int rows and opaque shards."""
    rows_entry = st.dictionaries(
        st.integers(min_value=0, max_value=6),      # row id
        st.integers(min_value=0, max_value=50),     # counter
        max_size=5,
    )
    return st.dictionaries(
        st.integers(min_value=0, max_value=7),      # holder index
        rows_entry,
        min_size=1, max_size=4,
    ).map(lambda raw: {
        holder: ({row: ("shard", holder, row) for row in entry},
                 dict(entry))
        for holder, entry in raw.items()
    })


@given(copies=_copies())
@settings(max_examples=200, deadline=None)
def test_merge_picks_max_version_lowest_holder(copies):
    rows, counters, origin = merge_chain_copies(copies)
    all_rows = {r for entry, _ in copies.values() for r in entry}
    assert set(rows) == set(counters) == set(origin) == all_rows
    for row in all_rows:
        holders = {h: cnt.get(row, 0)
                   for h, (rws, cnt) in copies.items() if row in rws}
        best = max(holders.values())
        winner = min(h for h, c in holders.items() if c == best)
        assert counters[row] == best
        assert origin[row] == winner
        assert rows[row] is copies[winner][0][row]


@given(copies=_copies())
@settings(max_examples=100, deadline=None)
def test_merge_ignores_insertion_order(copies):
    reversed_copies = dict(reversed(list(copies.items())))
    assert merge_chain_copies(copies) == merge_chain_copies(reversed_copies)


# -- fencing: stale fan-outs die at the new epoch -----------------------------


def _chain_ctx():
    return PS2Context(config=ClusterConfig(
        n_executors=2, n_servers=3, seed=5, chain_replicas=1))


def test_stale_fenced_write_rejected_after_promotion():
    """A ReplicatedPushRequest carrying the dead primary's epoch — e.g. a
    fan-out that was in flight when the crash hit — must be fenced out by
    the promoted copy's fresh install epoch, leaving values untouched."""
    ctx = _chain_ctx()
    master = ctx.master
    client = ctx.client_for(ctx.cluster.executors[0])
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    stale_epoch = master.server(0).epoch
    succ = ctx.cluster.replicas.successors(0)[0]

    master.servers[0].crash()
    client.push_add(m, 0, np.ones(30))  # retry -> recover -> promotion
    assert ctx.metrics.counters["chain-promotions"] == 1
    assert master.server(0).epoch == stale_epoch + 1

    holder = master.server(succ)
    entry = holder.replica_store[(m, 0)]
    assert entry.install_epoch == stale_epoch + 1
    snapshot = {row: shard.values.copy() for row, shard in entry.rows.items()}
    versions = dict(entry.versions)

    row = next(iter(snapshot))
    inner = messages.PushRequest(succ, m, row, np.full(
        entry.rows[row].values.shape[-1], 99.0))
    stale = messages.ReplicatedPushRequest(
        succ, inner, 0, stale_epoch,
        {(m, row): versions.get((m, row), 0) + 1})
    fenced_before = ctx.metrics.counters.get("replica-fanout-fenced", 0)
    holder._serve_replicated_push(stale)
    assert ctx.metrics.counters["replica-fanout-fenced"] == fenced_before + 1
    assert entry.versions == versions
    for r, values in snapshot.items():
        assert np.array_equal(entry.rows[r].values, values)


def test_current_epoch_fanout_still_applies_after_promotion():
    """Control for the fence test: the same fan-out stamped with the NEW
    epoch is applied — the fence rejects stale epochs, not all traffic."""
    ctx = _chain_ctx()
    master = ctx.master
    client = ctx.client_for(ctx.cluster.executors[0])
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    succ = ctx.cluster.replicas.successors(0)[0]
    master.servers[0].crash()
    client.push_add(m, 0, np.ones(30))
    client.push_add(m, 0, np.ones(30))  # fans out at the promoted epoch
    holder = master.server(succ)
    entry = holder.replica_store[(m, 0)]
    assert ctx.cluster.replicas.key_lag(m, 0) == 0
    primary = master.server(0)
    for row, shard in entry.rows.items():
        assert np.array_equal(shard.values, primary._store[m][row].values)
