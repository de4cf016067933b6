"""Tests for shared utilities: sizeof, RNG registry, error hierarchy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import errors
from repro.common.rng import RngRegistry, generator
from repro.common.sizeof import sizeof
from repro.costs import FLOAT_BYTES


# -- sizeof ---------------------------------------------------------------------

def test_sizeof_none_is_zero():
    assert sizeof(None) == 0


def test_sizeof_ndarray_is_nbytes():
    assert sizeof(np.zeros(10)) == 80
    assert sizeof(np.zeros(10, dtype=np.float32)) == 40


def test_sizeof_scalars():
    assert sizeof(1) == FLOAT_BYTES
    assert sizeof(1.5) == FLOAT_BYTES
    assert sizeof(True) == FLOAT_BYTES
    assert sizeof(np.float64(2.0)) == FLOAT_BYTES


def test_sizeof_strings_and_bytes():
    assert sizeof("abc") == 3
    assert sizeof(b"abcd") == 4


def test_sizeof_containers_are_additive():
    assert sizeof([1, 2.0]) == 2 * FLOAT_BYTES
    assert sizeof((np.zeros(2), "ab")) == 16 + 2
    assert sizeof({"k": 1.0}) == 1 + FLOAT_BYTES


def test_sizeof_unknown_conservative():
    class Thing:
        pass

    assert sizeof(Thing()) == 256


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20))
@settings(max_examples=50, deadline=None)
def test_sizeof_nonnegative_and_additive(values):
    assert sizeof(values) >= 0
    assert sizeof(values + values) == 2 * sizeof(values)


# -- rng registry ------------------------------------------------------------------

def test_same_name_same_stream():
    a = RngRegistry(5).get("x").random(4)
    b = RngRegistry(5).get("x").random(4)
    assert np.array_equal(a, b)


def test_different_names_independent():
    reg = RngRegistry(5)
    a = reg.get("x").random(4)
    b = reg.get("y").random(4)
    assert not np.array_equal(a, b)


def test_streams_order_independent():
    reg1 = RngRegistry(5)
    reg1.get("a")
    x1 = reg1.get("x").random(3)
    reg2 = RngRegistry(5)
    x2 = reg2.get("x").random(3)
    assert np.array_equal(x1, x2)


def test_get_is_cached():
    reg = RngRegistry(5)
    assert reg.get("x") is reg.get("x")


def test_generator_helper():
    assert np.array_equal(generator(3, "n").random(2),
                          generator(3, "n").random(2))


def test_seeds_differ():
    assert not np.array_equal(
        RngRegistry(1).get("x").random(3), RngRegistry(2).get("x").random(3)
    )


# -- error hierarchy -----------------------------------------------------------------

def test_all_errors_derive_from_repro_error():
    leaf_errors = [
        errors.ConfigError,
        errors.UnknownNodeError,
        errors.TaskError,
        errors.JobAbortedError,
        errors.MatrixNotFoundError,
        errors.ServerDownError,
        errors.NotColocatedError,
        errors.PoolExhaustedError,
        errors.DimensionMismatchError,
    ]
    for err in leaf_errors:
        assert issubclass(err, errors.ReproError)


def test_task_error_carries_coordinates():
    err = errors.TaskError("x", stage_id=2, partition_id=3, attempt=1)
    assert (err.stage_id, err.partition_id, err.attempt) == (2, 3, 1)


def test_layer_bases():
    assert issubclass(errors.NotColocatedError, errors.DCVError)
    assert issubclass(errors.ServerDownError, errors.PSError)
    assert issubclass(errors.JobAbortedError, errors.SparkliteError)
    assert issubclass(errors.UnknownNodeError, errors.ClusterError)
