"""Fault-tolerance experiment: checkpoint recovery mid-training (Section 6.5).

Trains LR twice on identical data and hardware: once failure-free
(baseline), once with periodic checkpoint sweeps and a parameter-server
crash scheduled mid-training (chaos).  The chaos run recovers the crashed
server from the latest sweep transparently to the training loop, and the
experiment verifies the paper's Figure-12 shape: the loss curve regresses
by at most the updates applied since the last checkpoint — the model never
falls back behind the checkpointed state — and then re-converges.

Everything is seeded and driven by virtual time, so two invocations with
the same arguments print byte-identical summaries (``tests/test_chaos.py``
runs :func:`main` twice and compares).

Run:  PYTHONPATH=src python -m repro.experiments.fault_tolerance
"""

from __future__ import annotations

from repro.config import FailureConfig
from repro.data import sparse_classification
from repro.experiments.report import curve_summary
from repro.experiments.runner import make_context
from repro.ml import train_logistic_regression
from repro.obs.report import format_table

#: Loss-regression slack: minibatch losses are noisy, so the post-crash
#: peak is compared against the checkpoint-time loss with this headroom.
REGRESSION_TOLERANCE = 1.10


def _train(rows, dim, failures, seed, n_iterations):
    ctx = make_context(n_executors=8, n_servers=8, seed=seed,
                       failures=failures)
    result = train_logistic_regression(
        ctx, rows, dim, optimizer="sgd", n_iterations=n_iterations,
        batch_fraction=0.3, seed=seed,
    )
    return ctx, result


def run_fault_tolerance(seed=7, n_iterations=24, n_rows=400, dim=2000):
    """Run the baseline/chaos pair; returns a summary dict (deterministic).

    The crash is scheduled at ~60% of the baseline's virtual makespan and
    the checkpoint interval at a quarter of that, so several sweeps land
    before the failure — the recovery loses only the updates of the last
    fraction of an interval.
    """
    rows, _ = sparse_classification(n_rows, dim, 20, seed=seed)

    base_ctx, base = _train(rows, dim, FailureConfig(), seed, n_iterations)
    times = [t for t, _ in base.history]
    fail_at = times[int(len(times) * 0.6)]
    interval = fail_at / 4.0

    failures = FailureConfig(
        server_failure_times=((0, fail_at),),
        checkpoint_interval=interval,
    )
    chaos_ctx, chaos = _train(rows, dim, failures, seed, n_iterations)

    # The Figure-12 bound: the post-crash loss peak must stay within the
    # loss recorded at (or before) the last sweep preceding the crash.
    sweeps_before = [
        t for t in chaos_ctx.master.checkpoint_sweep_times if t <= fail_at
    ]
    last_sweep = sweeps_before[-1] if sweeps_before else 0.0
    at_checkpoint = [loss for t, loss in chaos.history if t <= last_sweep]
    after_crash = [loss for t, loss in chaos.history if t > fail_at]
    checkpoint_loss = at_checkpoint[-1] if at_checkpoint else float("inf")
    post_crash_peak = max(after_crash) if after_crash else 0.0
    regression_bounded = post_crash_peak <= checkpoint_loss * REGRESSION_TOLERANCE

    counters = chaos_ctx.metrics.counters
    return {
        "baseline": base,
        "chaos": chaos,
        "fail_at": fail_at,
        "checkpoint_interval": interval,
        "last_sweep": last_sweep,
        "checkpoint_loss": checkpoint_loss,
        "post_crash_peak": post_crash_peak,
        "regression_bounded": regression_bounded,
        "sweeps": counters.get("checkpoint-sweeps", 0),
        "recoveries": counters.get("server-recoveries", 0),
        "op_retries": counters.get("op-retries", 0),
        "reinit_shards": counters.get("recovery-reinit-shards", 0),
    }


def main():
    summary = run_fault_tolerance()
    base = summary["baseline"]
    chaos = summary["chaos"]
    print(format_table(
        ["run", "final loss", "virtual time", "iterations"],
        [
            ("baseline", "%.6f" % base.final_loss, "%.4f s" % base.elapsed,
             base.iterations),
            ("server crash", "%.6f" % chaos.final_loss,
             "%.4f s" % chaos.elapsed, chaos.iterations),
        ],
        title="Section 6.5: LR under a mid-training server crash",
    ))
    print()
    print("crash scheduled at      : %.4f s" % summary["fail_at"])
    print("checkpoint interval     : %.4f s" % summary["checkpoint_interval"])
    print("last sweep before crash : %.4f s" % summary["last_sweep"])
    print("checkpoint sweeps       : %d" % summary["sweeps"])
    print("server recoveries       : %d" % summary["recoveries"])
    print("op retries              : %d" % summary["op_retries"])
    print("shards re-initialized   : %d" % summary["reinit_shards"])
    print("loss at last checkpoint : %.6f" % summary["checkpoint_loss"])
    print("post-crash loss peak    : %.6f" % summary["post_crash_peak"])
    print("regression bounded      : %s" % summary["regression_bounded"])
    print()
    print("baseline curve:", curve_summary(base))
    print("chaos curve   :", curve_summary(chaos))


if __name__ == "__main__":
    main()
