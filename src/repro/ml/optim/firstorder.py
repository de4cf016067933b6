"""First-order server-side optimizers: SGD, Adam, Adagrad, RMSProp.

Adam follows Equation (1) of the paper exactly (including its naming:
``s`` is the decayed average of squared gradients with decay ``beta1``,
``v`` the decayed average of gradients with decay ``beta2``).  Defaults
come from Table 4: learning rate 0.618, beta1 0.9, beta2 0.999, eps 1e-8.
"""

from __future__ import annotations

from repro.core import kernels
from repro.ml.optim.base import ServerSideOptimizer


class FirstOrderOptimizer(ServerSideOptimizer):
    """An optimizer whose update is one kernel over ``[w, *aux, g]``.

    The whole round — gradient scale, update, gradient reset — is then one
    ``zip`` (:func:`~repro.core.kernels.update_round_kernel`): a single
    op descriptor per server instead of three coordinator fan-outs.
    """

    def _update(self):
        """``(aux DCVs between weight and gradient, kernel, its args)``."""
        raise NotImplementedError

    def _round(self, grad_scale):
        aux, kernel, args = self._update()
        return self.weight.zip(*aux, self.gradient).map_partitions(
            kernels.update_round_kernel,
            args={"update": kernel, "update_args": args,
                  "grad_scale": grad_scale},
            wait=False,
        )


class SGD(FirstOrderOptimizer):
    """Plain stochastic gradient descent: ``w -= lr * g``."""

    name = "sgd"

    def __init__(self, learning_rate=0.618):
        super().__init__(learning_rate)

    def _update(self):
        return (), kernels.sgd_update_kernel, {"lr": self.learning_rate}


class Adam(FirstOrderOptimizer):
    """Adam with bias correction (paper Section 3.1, Equation 1).

    Model state: weight ``w`` plus two co-located aux vectors — the squared-
    gradient average ``s`` and the gradient average ``v`` — exactly the four
    DCVs of Figure 3.
    """

    name = "adam"

    def __init__(self, learning_rate=0.618, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.velocity = None
        self.square = None

    def _allocate_aux(self):
        self.velocity = self.weight.derive(name="%s.velocity" % self.weight.name)
        self.velocity.fill(0.0)
        self.square = self.weight.derive(name="%s.square" % self.weight.name)
        self.square.fill(0.0)

    def _update(self):
        return (self.velocity, self.square), kernels.adam_update_kernel, {
            "lr": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "step": self._step,
        }


class Adagrad(FirstOrderOptimizer):
    """Adagrad: per-coordinate rates from accumulated squared gradients."""

    name = "adagrad"

    def __init__(self, learning_rate=0.618, eps=1e-8):
        super().__init__(learning_rate)
        self.eps = float(eps)
        self.accumulator = None

    def _allocate_aux(self):
        self.accumulator = self.weight.derive(name="%s.acc" % self.weight.name)
        self.accumulator.fill(0.0)

    def _update(self):
        return (self.accumulator,), kernels.adagrad_update_kernel, {
            "lr": self.learning_rate, "eps": self.eps}


class RMSProp(FirstOrderOptimizer):
    """RMSProp: exponentially decayed squared-gradient normalization."""

    name = "rmsprop"

    def __init__(self, learning_rate=0.1, decay=0.9, eps=1e-8):
        super().__init__(learning_rate)
        self.decay = float(decay)
        self.eps = float(eps)
        self.accumulator = None

    def _allocate_aux(self):
        self.accumulator = self.weight.derive(name="%s.acc" % self.weight.name)
        self.accumulator.fill(0.0)

    def _update(self):
        return (self.accumulator,), kernels.rmsprop_update_kernel, {
            "lr": self.learning_rate, "decay": self.decay, "eps": self.eps}
