"""Logistic regression on PS2 (Sections 3.3 and 5.2.1)."""

from __future__ import annotations

from repro.ml.linear import train_linear_ps2


def train_logistic_regression(ctx, rows, dim, optimizer=None, n_iterations=20,
                              batch_fraction=0.1, seed=0, target_loss=None,
                              checkpoint_every=None, system="PS2"):
    """Train LR with a server-side optimizer (Adam by default, as Figure 3).

    See :func:`repro.ml.linear.train_linear_ps2` for the execution flow.
    """
    return train_linear_ps2(
        ctx, rows, dim, loss="logistic", optimizer=optimizer,
        n_iterations=n_iterations, batch_fraction=batch_fraction, seed=seed,
        target_loss=target_loss, checkpoint_every=checkpoint_every,
        system=system,
    )


def accuracy(rows, weights):
    """Classification accuracy of dense *weights* over *rows*."""
    correct = sum(
        1 for row in rows if (row.dot_dense(weights) > 0) == (row.label > 0.5)
    )
    return correct / max(1, len(rows))
