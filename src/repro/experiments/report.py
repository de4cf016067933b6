"""Plain-text reporting for benchmark output (speedups, curves); tables
come from :func:`repro.obs.report.format_table`."""

from __future__ import annotations


def format_speedup(value):
    """'3.42x' or 'n/a' for missing speedups."""
    if value is None:
        return "n/a"
    return "%.2fx" % value


def curve_summary(result, points=4):
    """A few (time, loss) samples from a TrainResult's history."""
    history = result.history
    if not history:
        return "(no history)"
    if len(history) <= points:
        samples = history
    else:
        step = max(1, len(history) // points)
        samples = history[::step][:points - 1] + [history[-1]]
    return ", ".join("(%.3fs, %.4f)" % (t, l) for t, l in samples)
