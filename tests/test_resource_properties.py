"""Property tests pinning the PR 7 TimelineResource fast paths.

``reserve`` grew shortcut branches (tail append/merge, extend-final,
front-gap-miss) and ``reserve_many`` inlines the two hot ones; every
shortcut claims to be a bit-identical specialization of the general
probe + ``_insert`` path.  These properties hold the claim down:

- ``reserve_many`` is EXACTLY sequential ``reserve`` (same starts, same
  interval list, same ``_busy`` float);
- capacity consumed is permutation-invariant;
- booked intervals never overlap and are strictly ordered.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resource import _MERGE_EPS, TimelineResource

jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=1e-9, max_value=10, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)

# Arrivals drawn from a tiny grid force every merge/extend/gap collision
# the wide strategy above rarely hits.
clustered_jobs_strategy = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
        st.sampled_from([0.25, 0.5, 1.0, 1.5]),
    ),
    min_size=1,
    max_size=16,
)

# Mix in sub-epsilon durations: they must take the general path.
epsilon_jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=5, allow_nan=False),
        st.sampled_from([1e-13, 1e-12, 2e-12, 3e-12, 0.5, 1.0]),
    ),
    min_size=1,
    max_size=20,
)


def _snapshot(r):
    return list(r._starts), list(r._ends), r.busy_seconds()


def _check_reserve_many_equivalence(jobs):
    sequential = TimelineResource()
    seq_starts = [sequential.reserve(e, d) for e, d in jobs]
    bulk = TimelineResource()
    bulk_starts = bulk.reserve_many(jobs)
    # Bit-for-bit: booked starts, interval lists and the running busy
    # total — not "close", EQUAL.
    assert bulk_starts == seq_starts
    assert _snapshot(bulk) == _snapshot(sequential)


@given(jobs_strategy)
@settings(max_examples=200, deadline=None)
def test_reserve_many_equals_sequential_reserve(jobs):
    _check_reserve_many_equivalence(jobs)


@given(clustered_jobs_strategy)
@settings(max_examples=200, deadline=None)
def test_reserve_many_equals_sequential_reserve_clustered(jobs):
    _check_reserve_many_equivalence(jobs)


@given(epsilon_jobs_strategy)
@settings(max_examples=200, deadline=None)
def test_reserve_many_equals_sequential_reserve_epsilon(jobs):
    _check_reserve_many_equivalence(jobs)


@given(jobs_strategy)
@settings(max_examples=150, deadline=None)
def test_intervals_never_overlap_and_stay_sorted(jobs):
    r = TimelineResource()
    starts = r.reserve_many(jobs)
    for (earliest, _d), start in zip(jobs, starts):
        assert start >= earliest - 1e-9
    intervals = list(zip(r._starts, r._ends))
    for s, e in intervals:
        assert e > s
    for (_s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
        # Strictly increasing with real gaps: touching intervals merge.
        assert s1 - e0 > _MERGE_EPS


@given(jobs_strategy)
@settings(max_examples=100, deadline=None)
def test_busy_seconds_is_permutation_invariant(jobs):
    orders = [jobs, list(reversed(jobs))]
    if len(jobs) > 2:
        orders.append(jobs[1:] + jobs[:1])
        orders.append(sorted(jobs))
    totals = set()
    for order in orders:
        r = TimelineResource()
        r.reserve_many(order)
        totals.add(round(r.busy_seconds(), 9))
    assert len(totals) == 1


def test_exhaustive_permutations_match_everywhere():
    """Every permutation of a crafted job set produces the same capacity
    total, and reserve_many matches sequential reserve on each order."""
    jobs = [(0.0, 1.0), (0.5, 1.0), (2.5, 0.25), (0.0, 0.5)]
    totals = set()
    for perm in itertools.permutations(jobs):
        _check_reserve_many_equivalence(list(perm))
        r = TimelineResource()
        r.reserve_many(list(perm))
        totals.add(round(r.busy_seconds(), 9))
    assert len(totals) == 1


def test_reserve_many_interleaves_with_reserve():
    """A bulk call after singles (and vice versa) continues the same
    timeline state the sequential path would hold."""
    sequential = TimelineResource()
    bulk = TimelineResource()
    first = [(0.0, 1.0), (0.2, 0.5)]
    second = [(0.1, 0.3), (5.0, 1.0), (1.0, 0.5)]
    seq_starts = [sequential.reserve(e, d) for e, d in first + second]
    bulk_starts = bulk.reserve_many(first)
    bulk_starts += [bulk.reserve(e, d) for e, d in second[:1]]
    bulk_starts += bulk.reserve_many(second[1:])
    assert bulk_starts == seq_starts
    assert _snapshot(bulk) == _snapshot(sequential)
