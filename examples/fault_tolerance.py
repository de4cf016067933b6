"""Fault tolerance in action (Section 5.3 / Figure 13(c)).

Part 1 trains LR under injected task failures (0%, 1%, 10%) and shows that
every run converges to the same solution while the failing runs pay retry
time — the paper's Figure 13(c).

Part 2 checkpoints the model, crashes a parameter server mid-training, and
shows the coordinator recovering it from the checkpoint transparently to
the next pull.

Run:  python examples/fault_tolerance.py
"""

from repro.data import sparse_classification
from repro.experiments import format_table, make_context
from repro.ml import train_logistic_regression


def main():
    rows, _ = sparse_classification(600, 5000, 20, seed=11)

    # -- Part 1: task failures ------------------------------------------------
    table = []
    for prob in (0.0, 0.01, 0.1):
        ctx = make_context(n_executors=8, n_servers=8, seed=11,
                           task_failure_prob=prob)
        result = train_logistic_regression(
            ctx, rows, 5000, optimizer="sgd", n_iterations=15,
            batch_fraction=0.3, seed=11,
        )
        table.append((
            "%.0f%%" % (prob * 100),
            "%.3f s" % result.elapsed,
            "%.4f" % result.final_loss,
            ctx.metrics.counters.get("task-retries", 0),
        ))
    print(format_table(
        ["task failure rate", "time to finish", "final loss", "retries"],
        table, title="Figure 13(c): same solution, retries cost time",
    ))

    # -- Part 2: server failure + checkpoint recovery --------------------------
    ctx = make_context(n_executors=4, n_servers=4, seed=11)
    weight = ctx.dense(2000, rows=2, name="w").fill(1.0)
    ctx.checkpoint()
    print("\ncheckpointed; sum =", weight.sum())
    ctx.master.server(0).crash()
    print("server-0 crashed (its shard of the model is lost)")
    # The next access triggers recovery from the checkpoint.
    print("sum after transparent recovery =", weight.sum())
    print("recoveries performed:", ctx.metrics.counters["recoveries"])


if __name__ == "__main__":
    main()
