"""The benchmark regression gate: ``benchmarks._common.check_pins``."""

import pytest

from benchmarks._common import PINNED_ITERATIONS, PINS, check_pins

NAME = "test_fig10_lr_end_to_end"


def _drifted(context, makespan=1.0, wire_bytes=1.0):
    """NAME's pins with one context's makespan / bytes scaled."""
    runs = list(PINS[NAME])
    pinned_makespan, pinned_bytes = runs[context]
    runs[context] = (pinned_makespan * makespan, pinned_bytes * wire_bytes)
    return runs


def test_run_equal_to_pins_passes():
    for name, pins in PINS.items():
        check_pins(name, list(pins), iterations=PINNED_ITERATIONS)


def test_improvement_and_drift_within_tolerance_pass():
    improved = [(m * 0.5, b * 0.5) for m, b in PINS[NAME]]
    check_pins(NAME, improved, iterations=PINNED_ITERATIONS)
    check_pins(NAME, _drifted(2, makespan=1.04, wire_bytes=1.015),
               iterations=PINNED_ITERATIONS)


@pytest.mark.parametrize("makespan, wire_bytes, metric", [
    (1.06, 1.0, "makespan"),
    (1.0, 1.03, "wire bytes"),
], ids=["makespan", "wire_bytes"])
def test_regression_beyond_tolerance_names_test_and_context(
        makespan, wire_bytes, metric):
    with pytest.raises(AssertionError) as failure:
        check_pins(NAME, _drifted(2, makespan, wire_bytes),
                   iterations=PINNED_ITERATIONS)
    assert str(failure.value).startswith(
        "%s ctx2: %s " % (NAME, metric)
    )
    assert "ctx0" not in str(failure.value)


def test_changed_context_count_fails():
    pins = list(PINS[NAME])
    for runs in (pins[:-1], pins + [pins[-1]]):
        with pytest.raises(AssertionError, match="%s: built %d simulated "
                           "contexts, the pins list %d"
                           % (NAME, len(runs), len(pins))):
            check_pins(NAME, runs, iterations=PINNED_ITERATIONS)


def test_other_iteration_count_or_unpinned_name_is_skipped():
    regressed = [(m * 2.0, b * 2.0) for m, b in PINS[NAME]]
    check_pins(NAME, regressed, iterations=PINNED_ITERATIONS + 6)
    check_pins(NAME, regressed[:1], iterations=PINNED_ITERATIONS - 1)
    check_pins("test_unpinned", [(1.0, 1.0)], iterations=PINNED_ITERATIONS)
