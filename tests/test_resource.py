"""Unit + property tests for the order-insensitive TimelineResource."""

import itertools
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.resource import TimelineResource


def test_first_reservation_starts_at_earliest():
    r = TimelineResource()
    assert r.reserve(2.0, 1.0) == 2.0


def test_zero_duration_is_free():
    r = TimelineResource()
    assert r.reserve(5.0, 0.0) == 5.0
    assert len(r) == 0


def test_second_overlapping_reservation_queues():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    assert r.reserve(0.5, 1.0) == 1.0


def test_disjoint_reservations_do_not_queue():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    assert r.reserve(10.0, 1.0) == 10.0


def test_late_processed_early_arrival_uses_idle_gap():
    """The fix for sequential simulation of concurrent actors: a job that
    arrives earlier (but is processed later) slots into the idle past."""
    r = TimelineResource()
    r.reserve(10.0, 1.0)
    assert r.reserve(0.0, 1.0) == 0.0


def test_gap_too_small_is_skipped():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(1.5, 1.0)
    # Gap [1.0, 1.5) cannot fit 0.8 seconds.
    assert r.reserve(0.9, 0.8) == 2.5


def test_gap_exactly_fits():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(2.0, 1.0)
    assert r.reserve(0.0, 1.0) == 1.0


def test_busy_seconds_accumulates():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(5.0, 2.5)
    assert abs(r.busy_seconds() - 3.5) < 1e-12


def test_horizon():
    r = TimelineResource()
    assert r.horizon() == 0.0
    r.reserve(1.0, 2.0)
    assert r.horizon() == 3.0


def test_reset():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reset()
    assert r.horizon() == 0.0
    assert len(r) == 0


def test_adjacent_intervals_merge():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(1.0, 1.0)
    assert len(r) == 1
    assert r.horizon() == 2.0


# -- probe boundary values (PR 7 audit of bisect_left on interval ends) ------


def test_arrival_exactly_at_interval_end_starts_there():
    """bisect_left lands an arrival == an interval's end ON that interval;
    the zero-width gap it probes is rejected and the walk advances — the
    booking starts exactly at the arrival (no phantom delay, no overlap)."""
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    assert r.reserve(1.0, 1.0) == 1.0
    assert len(r) == 1  # merged: [0, 2)
    assert r.horizon() == 2.0


def test_arrival_exactly_at_interior_interval_end():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(5.0, 1.0)
    # Arrival == first interval's end, gap [1, 5) fits: starts at 1.0.
    assert r.reserve(1.0, 2.0) == 1.0
    assert len(r) == 2


def test_gap_exactly_duration_fits():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(2.0, 1.0)
    # Gap [1, 2) is exactly the duration.
    assert r.reserve(0.0, 1.0) == 1.0
    assert len(r) == 1


def test_gap_short_by_less_than_eps_still_fits():
    """The fit test tolerates a sub-epsilon shortfall (floating-point
    hygiene): a gap short by < _MERGE_EPS is treated as fitting."""
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(2.0, 1.0)
    assert r.reserve(0.0, 1.0 + 0.5e-12) == 1.0


def test_gap_short_by_more_than_eps_is_skipped():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(2.0, 1.0)
    assert r.reserve(0.0, 1.0 + 1e-9) == 3.0


def test_sub_epsilon_duration_books_via_general_path():
    """Durations <= 2 * _MERGE_EPS skip the shortcut branches but still
    book through probe + _insert (they merge into a neighbor)."""
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    start = r.reserve(0.5, 1e-12)
    assert start == 1.0
    assert len(r) == 1


# -- incremental busy_seconds exactness (PR 7 satellite) ----------------------


def _resummed_busy(r):
    return sum(e - s for s, e in zip(*r.intervals()))


def test_busy_exact_merge_prev():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(1.0, 2.0)  # merge-prev
    assert r.busy_seconds() == _resummed_busy(r)


def test_busy_exact_merge_next():
    r = TimelineResource()
    r.reserve(2.0, 1.0)
    r.reserve(0.5, 1.5)  # ends at 2.0: merge-next
    assert r.busy_seconds() == _resummed_busy(r)
    assert len(r) == 1


def test_busy_exact_merge_both():
    r = TimelineResource()
    r.reserve(0.0, 1.0)
    r.reserve(2.0, 1.0)
    r.reserve(1.0, 1.0)  # bridges the gap: merge-both
    assert r.busy_seconds() == _resummed_busy(r)
    assert len(r) == 1


dense_jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=50, allow_nan=False),
        st.floats(min_value=0.001, max_value=10, allow_nan=False),
    ),
    min_size=1,
    max_size=30,
)


@given(dense_jobs_strategy)
@settings(max_examples=200, deadline=None)
def test_property_incremental_busy_tracks_resum(jobs):
    """The running _busy total tracks an O(n) re-sum of the interval list
    through merge-prev, merge-next and merge-both collapses.  Each branch
    adds the EXACT float delta, so the only divergence is the association
    order of the accumulation itself — bounded by a few ulps per booking,
    never a dropped or double-counted interval."""
    r = TimelineResource()
    for i, (earliest, duration) in enumerate(jobs):
        r.reserve(earliest, duration)
        resum = _resummed_busy(r)
        assert abs(r.busy_seconds() - resum) <= 1e-12 * (i + 1) * max(
            1.0, resum
        )


jobs_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=100, allow_nan=False),
        st.floats(min_value=0.001, max_value=10, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


@given(jobs_strategy)
@settings(max_examples=100, deadline=None)
def test_property_no_overbooking(jobs):
    """Booked intervals never overlap: total busy == sum of durations."""
    r = TimelineResource()
    for earliest, duration in jobs:
        start = r.reserve(earliest, duration)
        assert start >= earliest - 1e-9
    expected = sum(d for _e, d in jobs)
    assert abs(r.busy_seconds() - expected) < 1e-6


@given(jobs_strategy)
@settings(max_examples=60, deadline=None)
def test_property_total_busy_is_order_insensitive(jobs):
    """Capacity consumed does not depend on processing order."""
    totals = set()
    horizons = []
    orders = [jobs, list(reversed(jobs))]
    if len(jobs) > 2:
        orders.append(jobs[1:] + jobs[:1])
    for order in orders:
        r = TimelineResource()
        for earliest, duration in order:
            r.reserve(earliest, duration)
        totals.add(round(r.busy_seconds(), 6))
        horizons.append(r.horizon())
    assert len(totals) == 1


def test_exhaustive_order_insensitive_small_case():
    jobs = [(0.0, 1.0), (0.5, 1.0), (3.0, 0.5)]
    results = set()
    for perm in itertools.permutations(jobs):
        r = TimelineResource()
        for earliest, duration in perm:
            r.reserve(earliest, duration)
        results.add(round(r.busy_seconds(), 9))
    assert len(results) == 1


def test_intervals_are_stored_compactly():
    """100 000 disjoint intervals take 16 B each (two float64 values),
    about 1.6 MB; a list of float objects per column takes about 6.4 MB."""
    r = TimelineResource()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(100_000):
            r.reserve(2.0 * index, 1.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(r) == 100_000
    assert grown < 2.5e6
