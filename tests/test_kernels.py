"""Unit tests for server-side kernels against plain-numpy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels


def test_dot_kernel():
    x = np.arange(5.0)
    y = np.full(5, 2.0)
    assert kernels.dot_kernel([x, y]) == pytest.approx(20.0)


def test_axpy_kernel_mutates_first_operand():
    y = np.ones(4)
    x = np.full(4, 3.0)
    kernels.axpy_kernel([y, x], alpha=2.0)
    assert np.allclose(y, 7.0)
    assert np.allclose(x, 3.0)


def test_copy_kernel():
    dst = np.zeros(3)
    src = np.arange(3.0)
    kernels.copy_kernel([dst, src])
    assert np.allclose(dst, src)


def test_scale_shift_kernels():
    x = np.full(4, 2.0)
    kernels.scale_kernel([x], alpha=1.5)
    assert np.allclose(x, 3.0)
    kernels.shift_kernel([x], delta=-1.0)
    assert np.allclose(x, 2.0)


@pytest.mark.parametrize("op,expected", [
    ("add", 5.0), ("sub", 1.0), ("mul", 6.0), ("div", 1.5),
])
def test_binary_kernel(op, expected):
    out = np.zeros(3)
    kernels.binary_kernel([out, np.full(3, 3.0), np.full(3, 2.0)], op=op)
    assert np.allclose(out, expected)


def test_binary_kernel_unknown_op():
    with pytest.raises(ValueError):
        kernels.binary_kernel([np.zeros(1)] * 3, op="pow")


def test_inplace_binary_kernel():
    x = np.full(3, 6.0)
    kernels.inplace_binary_kernel([x, np.full(3, 2.0)], op="div")
    assert np.allclose(x, 3.0)


def _reference_adam(w, v, s, g, lr, beta1, beta2, eps, step):
    """Standard Adam (see the kernel's note on the paper's Eq. 1 typo)."""
    s = beta2 * s + (1 - beta2) * g * g
    v = beta1 * v + (1 - beta1) * g
    s_hat = s / (1 - beta2**step)
    v_hat = v / (1 - beta1**step)
    w = w - lr * v_hat / (np.sqrt(s_hat) + eps)
    return w, v, s


def test_adam_kernel_matches_reference():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(20)
    v = rng.standard_normal(20) * 0.1
    s = np.abs(rng.standard_normal(20)) * 0.1
    g = rng.standard_normal(20)
    args = dict(lr=0.618, beta1=0.9, beta2=0.999, eps=1e-8, step=3)
    ref_w, ref_v, ref_s = _reference_adam(
        w.copy(), v.copy(), s.copy(), g, **args
    )
    w2, v2, s2, g2 = w.copy(), v.copy(), s.copy(), g.copy()
    kernels.adam_update_kernel([w2, v2, s2, g2], **args)
    assert np.allclose(w2, ref_w)
    assert np.allclose(v2, ref_v)
    assert np.allclose(s2, ref_s)
    assert np.allclose(g2, g)  # gradient is read-only


def test_adam_kernel_returns_grad_norm():
    g = np.array([3.0, 4.0])
    out = kernels.adam_update_kernel(
        [np.zeros(2), np.zeros(2), np.zeros(2), g],
        lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, step=1,
    )
    assert out == pytest.approx(25.0)


def _adam_as_plain_expressions(arrays, lr, beta1, beta2, eps, step):
    """The kernel as it was written before it reused a scratch buffer —
    one numpy temporary per sub-expression.  Kept as the bit-for-bit
    reference for :func:`kernels.adam_update_kernel`."""
    w, v, s, g = arrays
    s *= beta2
    s += (1.0 - beta2) * g * g
    v *= beta1
    v += (1.0 - beta1) * g
    s_hat = s / (1.0 - beta2**step)
    v_hat = v / (1.0 - beta1**step)
    w -= lr * v_hat / (np.sqrt(s_hat) + eps)
    return float(np.dot(g, g))


@given(
    size=st.integers(1, 300),
    n_steps=st.integers(1, 6),
    first_step=st.integers(1, 2000),
    seed=st.integers(0, 2 ** 16),
    # Table 4's values and the ranges around them a user would try.
    lr=st.sampled_from([0.618, 0.1, 0.001, 1.0]),
    beta1=st.sampled_from([0.9, 0.5, 0.0, 0.99]),
    beta2=st.sampled_from([0.999, 0.9, 0.99]),
    eps=st.sampled_from([1e-8, 1e-6, 0.0]),
    grad_magnitude=st.sampled_from([1e-12, 1e-3, 1.0, 1e6]),
)
@settings(max_examples=80, deadline=None)
def test_adam_kernel_is_bit_identical_to_the_plain_expressions(
        size, n_steps, first_step, seed, lr, beta1, beta2, eps,
        grad_magnitude):
    rng = np.random.default_rng(seed)
    got = [rng.standard_normal(size), np.zeros(size), np.zeros(size), None]
    want = [array if array is None else array.copy() for array in got]
    with np.errstate(all="ignore"):  # eps=0 on a zero column: nan == nan
        for step in range(first_step, first_step + n_steps):
            g = rng.standard_normal(size) * grad_magnitude
            g[rng.random(size) < 0.3] = 0.0  # sparse gradients are the norm
            got[3], want[3] = g.copy(), g.copy()
            args = dict(lr=lr, beta1=beta1, beta2=beta2, eps=eps, step=step)
            assert kernels.adam_update_kernel(got, **args) \
                == _adam_as_plain_expressions(want, **args)
            for ours, reference in zip(got, want):
                assert ours.tobytes() == reference.tobytes()


@pytest.mark.parametrize("grad_scale", [None, 0.25])
def test_update_round_kernel_is_scale_then_update_then_reset(grad_scale):
    rng = np.random.default_rng(4)
    fused = [rng.standard_normal(9) for _ in range(4)]
    fused[2] = np.abs(fused[2])
    split = [array.copy() for array in fused]
    args = dict(lr=0.618, beta1=0.9, beta2=0.999, eps=1e-8, step=2)

    got = kernels.update_round_kernel(
        fused, update=kernels.adam_update_kernel, update_args=args,
        grad_scale=grad_scale)

    if grad_scale is not None:
        kernels.scale_kernel(split[3:], alpha=grad_scale)
    want = kernels.adam_update_kernel(split, **args)
    split[3].fill(0.0)
    assert got == want
    for ours, reference in zip(fused, split):
        assert ours.tobytes() == reference.tobytes()


def test_update_round_kernel_runs_on_each_group():
    """FM's shape: ``[w, gw, v0, gv0]`` with ``group=2``."""
    arrays = [np.ones(3), np.full(3, 4.0), np.zeros(3), np.full(3, -2.0)]
    kernels.update_round_kernel(
        arrays, update=kernels.sgd_update_kernel, update_args={"lr": 0.5},
        grad_scale=0.5, group=2)
    assert np.array_equal(arrays[0], np.full(3, 0.0))   # 1 - 0.5 * (4 * 0.5)
    assert np.array_equal(arrays[2], np.full(3, 0.5))   # 0 - 0.5 * (-2 * 0.5)
    assert not arrays[1].any() and not arrays[3].any()


@pytest.mark.parametrize("n_operands,args,expected", [
    # update over every operand + one scale pass + one fill ...
    (4, {"grad_scale": 0.1}, (5, 1)),
    # ... no scale pass when nothing is scaled ...
    (4, {}, (4, 1)),
    # ... and one scale pass and one fill per group.
    (18, {"grad_scale": 0.1, "group": 2}, (27, 9)),
])
def test_update_round_kernel_declares_the_work_it_replaces(
        n_operands, args, expected):
    work = kernels.update_round_kernel._work
    assert work(n_operands, update=None, update_args={}, **args) == expected


def test_sgd_kernel():
    w = np.ones(3)
    kernels.sgd_update_kernel([w, np.full(3, 2.0)], lr=0.25)
    assert np.allclose(w, 0.5)


def test_adagrad_kernel():
    w = np.zeros(2)
    h = np.zeros(2)
    g = np.array([2.0, -2.0])
    kernels.adagrad_update_kernel([w, h, g], lr=1.0, eps=0.0)
    assert np.allclose(h, 4.0)
    assert np.allclose(w, [-1.0, 1.0])


def test_rmsprop_kernel():
    w = np.zeros(1)
    h = np.zeros(1)
    g = np.array([3.0])
    kernels.rmsprop_update_kernel([w, h, g], lr=1.0, decay=0.0, eps=0.0)
    assert h[0] == pytest.approx(9.0)
    assert w[0] == pytest.approx(-1.0)


# -- GBDT split finding ---------------------------------------------------------

def _brute_force_best_split(grad, hess, n_bins, pg, ph, lam, mcw):
    """Enumerate every (feature, cut) directly."""
    n_features = grad.size // n_bins
    parent = pg**2 / (ph + lam)
    best = (-np.inf, -1, -1, 0.0, 0.0)
    for f in range(n_features):
        g = grad[f * n_bins:(f + 1) * n_bins]
        h = hess[f * n_bins:(f + 1) * n_bins]
        for cut in range(n_bins - 1):
            gl = g[:cut + 1].sum()
            hl = h[:cut + 1].sum()
            gr, hr = pg - gl, ph - hl
            if hl < mcw or hr < mcw:
                continue
            gain = gl**2 / (hl + lam) + gr**2 / (hr + lam) - parent
            if gain > best[0]:
                best = (gain, f, cut, gl, hl)
    return best


def test_split_gain_kernel_matches_brute_force():
    rng = np.random.default_rng(11)
    n_bins, n_features = 6, 5
    grad = rng.standard_normal(n_bins * n_features)
    hess = np.abs(rng.standard_normal(n_bins * n_features)) + 0.1
    pg, ph = float(grad.sum()), float(hess.sum())
    got = kernels.split_gain_kernel(
        [grad, hess], start=0, stop=grad.size, n_bins=n_bins,
        parent_grad=pg, parent_hess=ph, reg_lambda=1.0,
        min_child_weight=1e-6,
    )
    want = _brute_force_best_split(grad, hess, n_bins, pg, ph, 1.0, 1e-6)
    assert got[0] == pytest.approx(want[0])
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3] == pytest.approx(want[3])
    assert got[4] == pytest.approx(want[4])


def test_split_gain_kernel_skips_partial_features():
    """A shard covering half a feature's bins evaluates no cut in it."""
    n_bins = 4
    grad = np.ones(2)  # covers global positions [2, 4): half of feature 0
    hess = np.ones(2)
    got = kernels.split_gain_kernel(
        [grad, hess], start=2, stop=4, n_bins=n_bins,
        parent_grad=4.0, parent_hess=4.0, reg_lambda=1.0,
        min_child_weight=1e-6,
    )
    assert got[0] == -np.inf


def test_split_gain_kernel_respects_min_child_weight():
    grad = np.array([10.0, 0.0, 0.0, -10.0])
    hess = np.array([0.01, 0.01, 0.01, 0.01])
    got = kernels.split_gain_kernel(
        [grad, hess], start=0, stop=4, n_bins=4,
        parent_grad=0.0, parent_hess=0.04, reg_lambda=1.0,
        min_child_weight=1.0,
    )
    assert got[0] == -np.inf


def test_with_range_marker():
    def k(arrays, start, stop):
        return None

    assert not getattr(k, "_wants_range", False)
    kernels.with_range(k)
    assert k._wants_range
