"""Server-side optimizers over DCVs.

An optimizer owns the model's auxiliary vectors (momenta, squared-gradient
accumulators, L-BFGS history), all allocated via ``derive`` so they are
co-located with the weights, and applies its update as a fused ``zip``
kernel — the server-side computation of Figure 3, lines 21-26.  One
``step`` is one training round: gradient scale, update and gradient reset,
which the first-order optimizers issue as a single kernel request per
server.
"""

from __future__ import annotations

from repro.common.errors import ReproError


class ServerSideOptimizer:
    """Base class: binds to a weight DCV and steps via a zip kernel."""

    name = "base"

    def __init__(self, learning_rate):
        self.learning_rate = float(learning_rate)
        self.weight = None
        self._grad = None
        self._step = 0

    def bind(self, weight):
        """Attach to *weight*, allocating co-located auxiliary DCVs.

        Returns the gradient DCV workers should ``add`` into.
        """
        self.weight = weight
        self._grad = weight.derive(name="%s.grad" % weight.name)
        self._grad.zero()
        self._allocate_aux()
        return self._grad

    def _allocate_aux(self):
        """Subclasses allocate their aux vectors here (may be empty)."""

    @property
    def gradient(self):
        if self._grad is None:
            raise ReproError("optimizer not bound; call bind(weight) first")
        return self._grad

    @property
    def step_count(self):
        return self._step

    def zero_grad(self):
        """Reset the shared gradient accumulator (Figure 3, line 10).

        :meth:`bind` and every :meth:`step` already leave it zero; this is
        for user code that discards a partly accumulated gradient.
        """
        self.gradient.zero()

    def step(self, grad_scale=None):
        """Apply one model update server-side and consume the gradient.

        The accumulated gradient is scaled by ``grad_scale`` first (pass
        ``1 / batch_size`` to turn the workers' sum into a mean) and is
        zero afterwards, ready for the next iteration's pushes.  Returns
        the update kernel's fold.
        """
        if self.weight is None:
            raise ReproError("optimizer not bound; call bind(weight) first")
        self._step += 1
        return self._round(grad_scale)

    def _round(self, grad_scale):
        """Scale, update, reset as coordinator rounds of their own — for
        an update that is multi-round by nature (L-BFGS).  Optimizers
        whose update is one kernel fold all three into it."""
        if grad_scale is not None:
            self.gradient.scale(grad_scale)
        result = self._apply()
        self.gradient.zero()
        return result

    def _apply(self):
        raise NotImplementedError
