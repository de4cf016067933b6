"""Property tests pinning the PR 7 TimelineResource fast paths.

``reserve`` grew shortcut branches (tail append/merge, extend-final);
every shortcut claims to be a bit-identical specialization of the
general probe + ``_insert`` path.  These properties hold the claim down:

- ``reserve`` is EXACTLY ``probe`` + ``commit`` (same starts, same
  interval list, same ``_busy`` float);
- capacity consumed is permutation-invariant;
- booked intervals never overlap and are strictly ordered;
- retiring intervals behind the clock floor changes nothing a booking at
  or after the floor sees: same starts, busy total and horizon, and the
  live intervals are a suffix of what a never-retiring timeline holds.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import resource
from repro.cluster.resource import _MERGE_EPS, TimelineResource
from repro.common.errors import ClusterError

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
    return r.intervals() + (r.busy_seconds(),)


def _reserve_all(timeline, jobs):
    return [timeline.reserve(e, d) for e, d in jobs]


def _check_reserve_equals_probe_commit(jobs):
    reserved = TimelineResource()
    starts = _reserve_all(reserved, jobs)
    probed = TimelineResource()
    probed_starts = [probed.commit(*probed.probe(e, d), d) for e, d in jobs]
    # Bit-for-bit: booked starts, interval lists and the running busy
    # total — not "close", EQUAL.
    assert probed_starts == starts
    assert _snapshot(probed) == _snapshot(reserved)


@given(jobs_strategy)
@settings(max_examples=200, deadline=None)
def test_reserve_equals_probe_commit(jobs):
    _check_reserve_equals_probe_commit(jobs)


@given(clustered_jobs_strategy)
@settings(max_examples=200, deadline=None)
def test_reserve_equals_probe_commit_clustered(jobs):
    _check_reserve_equals_probe_commit(jobs)


@given(epsilon_jobs_strategy)
@settings(max_examples=200, deadline=None)
def test_reserve_equals_probe_commit_epsilon(jobs):
    _check_reserve_equals_probe_commit(jobs)


@given(jobs_strategy)
@settings(max_examples=150, deadline=None)
def test_intervals_never_overlap_and_stay_sorted(jobs):
    r = TimelineResource()
    starts = _reserve_all(r, jobs)
    for (earliest, _d), start in zip(jobs, starts):
        assert start >= earliest - 1e-9
    intervals = list(zip(*r.intervals()))
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
        _reserve_all(r, order)
        totals.add(round(r.busy_seconds(), 9))
    assert len(totals) == 1


def test_exhaustive_permutations_match_everywhere():
    """Every permutation of a crafted job set produces the same capacity
    total, and reserve matches probe + commit on each order."""
    jobs = [(0.0, 1.0), (0.5, 1.0), (2.5, 0.25), (0.0, 0.5)]
    totals = set()
    for perm in itertools.permutations(jobs):
        _check_reserve_equals_probe_commit(list(perm))
        r = TimelineResource()
        _reserve_all(r, perm)
        totals.add(round(r.busy_seconds(), 9))
    assert len(totals) == 1


def test_probe_commit_interleaves_with_reserve():
    """Probe + commit bookings after ``reserve`` ones (and vice versa)
    continue the same timeline state ``reserve`` alone would hold."""
    reserved = TimelineResource()
    mixed = TimelineResource()
    first = [(0.0, 1.0), (0.2, 0.5)]
    second = [(0.1, 0.3), (5.0, 1.0), (1.0, 0.5)]
    starts = _reserve_all(reserved, first + second)
    mixed_starts = [mixed.commit(*mixed.probe(e, d), d) for e, d in first]
    mixed_starts += _reserve_all(mixed, second[:1])
    mixed_starts += [mixed.commit(*mixed.probe(e, d), d)
                     for e, d in second[1:]]
    assert mixed_starts == starts
    assert _snapshot(mixed) == _snapshot(reserved)


# -- retirement behind the clock floor ------------------------------------------


class _Floor:
    """A stand-in for the cluster's clock: the test moves its floor."""

    def __init__(self, time=0.0):
        self.time = time

    def floor(self):
        return self.time


#: Per job: how to book it, and an optional floor move to one of the
#: never-retiring timeline's interval ends plus an offset — a hair past
#: an end (within ``_MERGE_EPS``), exactly on one, or well past it.
_steps_strategy = st.lists(
    st.tuples(
        st.sampled_from(["reserve", "probe"]),
        st.one_of(
            st.none(),
            st.tuples(st.integers(0, 63),
                      st.sampled_from([0.0, 1e-13, 5e-13, 1e-12, 0.25])),
        ),
    ),
    min_size=20,
    max_size=20,
)


def _book(timeline, how, earliest, duration):
    if how == "probe":
        index, start = timeline.probe(earliest, duration)
        return timeline.commit(index, start, duration)
    return timeline.reserve(earliest, duration)


def _check_retiring_law(jobs, steps):
    clock = _Floor()
    with mock.patch.object(resource, "_RETIRE_AT", 4):
        kept = TimelineResource()
        retiring = TimelineResource(clock)
        for (earliest, duration), (how, move) in zip(jobs, steps):
            if move is not None:
                pick, offset = move
                ends = kept.intervals()[1]
                if ends:
                    clock.time = max(clock.time,
                                     ends[pick % len(ends)] + offset)
            # The floor is at most every later job's arrival.
            earliest = max(earliest, clock.time)
            start = _book(kept, how, earliest, duration)
            assert _book(retiring, how, earliest, duration) == start
            assert retiring.busy_seconds() == kept.busy_seconds()
            assert retiring.horizon() == kept.horizon()
            live_starts, live_ends = retiring.intervals()
            starts, ends = kept.intervals()
            n = len(live_starts)
            assert live_starts == starts[len(starts) - n:]
            assert live_ends == ends[len(ends) - n:]


@given(epsilon_jobs_strategy, _steps_strategy)
# The floor lands a hair past [2, 3)'s end and the last job starts there:
# it merges with that interval, which retirement must therefore keep.
@example([(0.0, 1.0), (2.0, 1.0), (4.0, 1.0), (8.0, 1.0), (0.0, 0.5)],
         [("reserve", None)] * 3 + [("reserve", (1, 1e-13))]
         + [("reserve", None)])
@settings(max_examples=400, deadline=None)
def test_retiring_equals_not_retiring(jobs, steps):
    _check_retiring_law(jobs, steps)


@given(clustered_jobs_strategy, _steps_strategy)
@settings(max_examples=200, deadline=None)
def test_retiring_equals_not_retiring_clustered(jobs, steps):
    _check_retiring_law(jobs, steps)


def _retired_at(floor):
    """[0, 1), [2, 3), [4, 5), [6, 7) on a timeline that retires at four
    intervals with its clock floor at *floor*."""
    with mock.patch.object(resource, "_RETIRE_AT", 4):
        timeline = TimelineResource(_Floor(floor))
        for earliest in (0.0, 2.0, 4.0, 6.0):
            timeline.reserve(earliest, 1.0)
    return timeline


def test_booking_behind_a_retirement_raises():
    timeline = _retired_at(5.0)
    # [0, 1) went; [2, 3), the last to end before the floor, stays.
    assert timeline.intervals() == ([2.0, 4.0, 6.0], [3.0, 5.0, 7.0])
    with pytest.raises(ClusterError):
        timeline.reserve(0.0, 0.5)
    with pytest.raises(ClusterError):
        timeline.probe(4.5, 0.5)
    # At or after the floor, and tail bookings, book as before.
    assert timeline.reserve(5.0, 0.5) == 5.0
    assert timeline.reserve(9.0, 1.0) == 9.0
    assert len(timeline) == 4
    # One live interval left: a job behind the floor that misses the gap
    # before it raises from the general gap walk.
    timeline = _retired_at(7.5)
    assert timeline.intervals() == ([6.0], [7.0])
    with pytest.raises(ClusterError):
        timeline.reserve(5.0, 1.5)


def test_standalone_timeline_never_retires():
    with mock.patch.object(resource, "_RETIRE_AT", 4):
        timeline = TimelineResource()
        for index in range(16):
            timeline.reserve(2.0 * index, 1.0)
    assert len(timeline) == 16
    assert timeline.reserve(0.5, 0.5) == 1.0
