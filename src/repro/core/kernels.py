"""Server-side kernels backing the DCV column-access operators.

A kernel runs on one server over the locally stored, range-aligned shard
arrays of several co-located DCVs.  It may mutate the arrays in place and
returns at most a few scalars — that is the whole point: heavy element-wise
math stays on the server, only scalars cross the network.
"""

from __future__ import annotations

import numpy as np


def dot_kernel(arrays):
    """Partial dot product of two co-located vectors."""
    x, y = arrays
    return float(np.dot(x, y))


def axpy_kernel(arrays, alpha):
    """In-place ``y += alpha * x`` (operand order: [y, x])."""
    y, x = arrays
    y += alpha * x
    return None


def copy_kernel(arrays):
    """``dst[:] = src`` (operand order: [dst, src])."""
    dst, src = arrays
    dst[:] = src
    return None


def scale_kernel(arrays, alpha):
    """In-place ``x *= alpha``."""
    (x,) = arrays
    x *= alpha
    return None


def shift_kernel(arrays, delta):
    """In-place ``x += delta`` (scalar broadcast)."""
    (x,) = arrays
    x += delta
    return None


def _binary(out, x, y, op):
    if op == "add":
        np.add(x, y, out=out)
    elif op == "sub":
        np.subtract(x, y, out=out)
    elif op == "mul":
        np.multiply(x, y, out=out)
    elif op == "div":
        np.divide(x, y, out=out)
    else:
        raise ValueError("unknown binary op %r" % (op,))


def binary_kernel(arrays, op):
    """``out[:] = x <op> y`` (operand order: [out, x, y])."""
    out, x, y = arrays
    _binary(out, x, y, op)
    return None


def inplace_binary_kernel(arrays, op):
    """``x <op>= y`` (operand order: [x, y])."""
    x, y = arrays
    _binary(x, x, y, op)
    return None


def adam_update_kernel(arrays, lr, beta1, beta2, eps, step):
    """The fused Adam step of Section 3.1, Equation (1).

    Operand order: ``[w, v, s, g]`` — weight, first-moment, second-moment,
    aggregated gradient.  Mutates ``w``, ``v`` and ``s`` in place; ``g`` is
    read-only.  Returns the local squared gradient norm as a progress signal
    (cheap, and exactly the kind of scalar PS2 ships back).

    Note: Equation (1) as printed in the paper applies ``beta1`` to the
    squared-gradient average and ``beta2`` to the gradient average, the
    reverse of Kingma & Ba's Adam.  With Table 4's values (0.9 / 0.999)
    that literal reading means momentum with a ~1000-step memory, which
    oscillates badly; we follow the standard role assignment (``beta1`` =
    first-moment decay, ``beta2`` = second-moment decay), which is surely
    what the production system computes.
    """
    w, v, s, g = arrays
    # One allocation for every intermediate (a shard is far past numpy's
    # small-block cache, so each temporary was an mmap of its own).  The
    # operations and their order are those of the plain expressions —
    #   s = beta2*s + ((1-beta2)*g)*g;  v = beta1*v + (1-beta1)*g
    #   w -= (lr * (v / (1-beta1^t))) / (sqrt(s / (1-beta2^t)) + eps)
    # — so results are bit-identical to them (pinned in test_kernels).
    num, den = np.empty((2, g.size))
    s *= beta2
    np.multiply(g, 1.0 - beta2, out=den)
    den *= g
    s += den
    v *= beta1
    np.multiply(g, 1.0 - beta1, out=num)
    v += num
    np.divide(s, 1.0 - beta2**step, out=den)
    np.sqrt(den, out=den)
    den += eps
    np.divide(v, 1.0 - beta1**step, out=num)
    num *= lr
    num /= den
    w -= num
    return float(np.dot(g, g))


def sgd_update_kernel(arrays, lr):
    """Plain SGD step: ``w -= lr * g`` (operand order: [w, g])."""
    w, g = arrays
    w -= lr * g
    return None


def adagrad_update_kernel(arrays, lr, eps):
    """Adagrad step (operand order: [w, h, g]); ``h`` accumulates g^2."""
    w, h, g = arrays
    h += g * g
    w -= lr * g / (np.sqrt(h) + eps)
    return None


def rmsprop_update_kernel(arrays, lr, decay, eps):
    """RMSProp step (operand order: [w, h, g])."""
    w, h, g = arrays
    h *= decay
    h += (1.0 - decay) * g * g
    w -= lr * g / (np.sqrt(h) + eps)
    return None


def update_round_kernel(arrays, update, update_args, grad_scale=None,
                        group=None):
    """One training round in one request: scale, update, reset.

    ``arrays`` is ordered as *update* (one of the ``*_update_kernel``s)
    wants it, aggregated gradient **last**.  The gradient is first scaled
    by ``grad_scale`` (the ``1 / batch_size`` of a mean; skipped when
    ``None``), then ``update(arrays, **update_args)`` runs, then the
    gradient is reset for the next iteration's pushes — the float
    operations of ``scale_kernel``, *update* and a zero ``fill``, in that
    order, so the values are bit-identical to the three separate requests.

    With ``group``, ``arrays`` is several consecutive groups of that many
    operands (FM's ``[w, gw, v0, gv0, ...]`` with ``group=2``) and the
    round runs on each.  Returns *update*'s result for the last group.
    """
    result = None
    group = group or len(arrays)
    for lo in range(0, len(arrays), group):
        operands = arrays[lo:lo + group]
        gradient = operands[-1]
        if grad_scale is not None:
            gradient *= grad_scale
        result = update(operands, **update_args)
        gradient.fill(0.0)
    return result


def _update_round_work(n_operands, grad_scale=None, group=None, **_args):
    n_groups = n_operands // (group or n_operands)
    scaled = n_groups if grad_scale is not None else 0
    return n_operands + scaled, n_groups


#: Flop conservation: the round is charged as the requests it replaces —
#: the update over every operand, plus per group a one-operand scale
#: kernel (when scaling) and a row fill.  See ``PSServer.execute_kernel``.
update_round_kernel._work = _update_round_work


def with_range(kernel):
    """Mark *kernel* as wanting its shard's global ``start``/``stop`` range.

    The server injects ``start=shard.start, stop=shard.stop`` keyword
    arguments, letting kernels that care about global positions (GBDT's
    per-feature histogram blocks) orient themselves.
    """
    kernel._wants_range = True
    return kernel


@with_range
def split_gain_kernel(arrays, start, stop, n_bins, parent_grad, parent_hess,
                      reg_lambda=1.0, min_child_weight=1e-6):
    """GBDT split finding over co-located grad/hess histograms (Figure 8).

    Operand order: ``[grad, hess]``; the DCVs hold histograms flattened as
    ``feature * n_bins + bin``.  The kernel enumerates cut positions of every
    feature whose bin block is fully contained in this shard (footnote 5 of
    the paper: "enumerate the same elements of grad and hess ... find the
    place that yields the maximal loss gain").  Features straddling a server
    boundary are skipped by that server — at most ``n_servers - 1`` of them,
    a documented approximation of the simulator.

    Returns ``(gain, feature, cut_bin, left_grad, left_hess)`` for this
    server's best cut, or gain ``-inf`` when it owns no complete feature.
    """
    grad, hess = arrays
    best = (-np.inf, -1, -1, 0.0, 0.0)
    parent_score = parent_grad**2 / (parent_hess + reg_lambda)
    feature = start // n_bins
    if feature * n_bins < start:
        feature += 1
    while (feature + 1) * n_bins <= stop:
        lo = feature * n_bins - start
        grad_left = np.cumsum(grad[lo : lo + n_bins])[:-1]
        hess_left = np.cumsum(hess[lo : lo + n_bins])[:-1]
        grad_right = parent_grad - grad_left
        hess_right = parent_hess - hess_left
        gains = (
            grad_left**2 / (hess_left + reg_lambda)
            + grad_right**2 / (hess_right + reg_lambda)
            - parent_score
        )
        invalid = (hess_left < min_child_weight) | (hess_right < min_child_weight)
        gains[invalid] = -np.inf
        cut = int(np.argmax(gains))
        if gains[cut] > best[0]:
            best = (
                float(gains[cut]),
                int(feature),
                cut,
                float(grad_left[cut]),
                float(hess_left[cut]),
            )
        feature += 1
    return best
