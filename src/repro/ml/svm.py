"""Linear SVM on PS2 (hinge loss) — one of the "other models" of 5.2.4."""

from __future__ import annotations

from repro.ml.linear import train_linear_ps2
from repro.ml.optim import SGD


def train_svm(ctx, rows, dim, optimizer=None, n_iterations=20,
              batch_fraction=0.1, seed=0, target_loss=None, system="PS2"):
    """Train a linear SVM with minibatch subgradient descent on PS2.

    Labels are 0/1 (mapped internally to ±1).  Defaults to plain SGD, the
    standard choice for hinge loss.
    """
    if optimizer is None:
        optimizer = SGD(learning_rate=0.1)
    return train_linear_ps2(
        ctx, rows, dim, loss="hinge", optimizer=optimizer,
        n_iterations=n_iterations, batch_fraction=batch_fraction, seed=seed,
        target_loss=target_loss, system=system,
    )
