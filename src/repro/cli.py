"""Command-line interface: quick demos and dataset/experiment utilities.

Usage (``python -m repro <command>``):

- ``quickcheck`` — a 10-second end-to-end sanity run (DCV ops + LR training)
  that prints PASS/FAIL per check;
- ``dataset <name>`` — generate a Table-2 analogue and print its statistics;
- ``train <workload>`` — train one of the paper's workloads on its default
  analogue and print the loss curve;
- ``trace <workload>`` — same run with tracing enabled: writes a
  ``chrome://tracing``-compatible JSON and prints the observability report
  (latency percentiles, server utilization, hot shards);
- ``critical-path <workload>`` — traced run that prints the whole-run and
  per-stage critical-path attribution (compute / network / queueing /
  staleness-wait / retry-backoff over virtual time);
- ``profile <workload>`` — train one workload under ``cProfile`` and print
  the hottest *host* frames (where the simulator itself burns CPU, as
  opposed to where virtual time goes — that is ``critical-path``);
- ``serve <scenario>`` — replay a named online-serving scenario (Zipf
  traffic over a lazy embedding table) and print the serving report;
  ``--elastic`` turns the autoscaler on (live shard migration included);
- ``experiments`` — list every table/figure benchmark and how to run it.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_quickcheck(_args):
    from repro.config import ClusterConfig
    from repro.core.context import PS2Context
    from repro.data import sparse_classification
    from repro.ml import train_logistic_regression
    from repro.ml.optim import Adam

    checks = []
    ctx = PS2Context(config=ClusterConfig(n_executors=4, n_servers=4, seed=1))
    w = ctx.dense(1000, rows=4)
    g = w.derive().fill(2.0)
    w.push(np.arange(1000.0))
    checks.append(("pull round trip", bool(np.allclose(w.pull(),
                                                       np.arange(1000.0)))))
    checks.append(("server-side dot",
                   abs(w.dot(g) - 2 * np.arange(1000.0).sum()) < 1e-6))
    checks.append(("co-location", w.is_colocated_with(g)))
    rows, _ = sparse_classification(400, 1000, 12, seed=1)
    result = train_logistic_regression(
        ctx, rows, 1000, optimizer=Adam(learning_rate=0.2),
        n_iterations=15, batch_fraction=0.5, seed=1,
    )
    checks.append(("LR loss decreases",
                   result.final_loss < result.history[0][1]))
    checks.append(("virtual time advanced", ctx.elapsed() > 0))

    failed = False
    for name, ok in checks:
        print("%-24s %s" % (name, "PASS" if ok else "FAIL"))
        failed = failed or not ok
    return 1 if failed else 0


def _cmd_dataset(args):
    from repro.data import CATALOG, dataset

    if args.name not in CATALOG:
        print("unknown dataset %r; have: %s"
              % (args.name, ", ".join(sorted(CATALOG))))
        return 1
    spec_obj = CATALOG[args.name]
    data = dataset(args.name, seed=args.seed)
    print("dataset:  %s (%s analogue)" % (spec_obj.name, spec_obj.model))
    print("paper:    %s" % (spec_obj.paper_stats,))
    print("params:   %s" % (spec_obj.params,))
    if spec_obj.model in ("LR", "SVM"):
        nnz = sum(r.nnz for r in data)
        print("generated: %d rows, %d non-zeros" % (len(data), nnz))
    elif spec_obj.model == "LDA":
        print("generated: %d docs, %d tokens"
              % (len(data), sum(d.size for d in data)))
    elif spec_obj.model == "GBDT":
        print("generated: %d rows x %d features" % data[0].shape)
    else:
        adjacency, walks = data
        print("generated: %d vertices, %d walks" % (len(adjacency), len(walks)))
    return 0


_WORKLOADS = ("lr", "svm", "fm", "deepwalk", "line", "gbdt", "lda")


def _run_workload(ctx, workload, iterations, seed):
    """Train *workload* on its default analogue over *ctx*; returns result."""
    from repro.data import dataset, spec

    if workload == "lr":
        from repro.ml import train_logistic_regression

        rows = dataset("kddb", seed=seed)
        return train_logistic_regression(
            ctx, rows, spec("kddb").params["dim"], optimizer="adam",
            n_iterations=iterations, batch_fraction=0.1, seed=seed)
    if workload == "svm":
        from repro.ml import train_svm

        rows = dataset("kddb", seed=seed)
        return train_svm(ctx, rows, spec("kddb").params["dim"],
                         n_iterations=iterations,
                         batch_fraction=0.1, seed=seed)
    if workload == "fm":
        from repro.data import sparse_classification
        from repro.ml import train_fm

        rows, _ = sparse_classification(600, 2000, 12, seed=seed)
        return train_fm(ctx, rows, 2000, n_factors=8,
                        n_iterations=iterations,
                        batch_fraction=0.5, seed=seed)
    if workload == "deepwalk":
        from repro.ml import train_deepwalk

        _adjacency, walks = dataset("graph1", seed=seed)
        n_vertices = max(int(w.max()) for w in walks) + 1
        return train_deepwalk(ctx, walks, n_vertices, embedding_dim=32,
                              n_iterations=iterations, seed=seed)
    if workload == "line":
        from repro.ml import train_line

        adjacency, _walks = dataset("graph1", seed=seed)
        return train_line(ctx, adjacency, embedding_dim=32,
                          learning_rate=0.05,
                          n_iterations=iterations, seed=seed)
    if workload == "gbdt":
        from repro.ml import train_gbdt

        features, labels = dataset("gender", seed=seed)
        return train_gbdt(ctx, features, labels,
                          n_trees=iterations, max_depth=4, n_bins=16,
                          seed=seed)
    from repro.ml import train_lda

    docs = dataset("pubmed", seed=seed)
    return train_lda(ctx, docs, spec("pubmed").params["vocab"],
                     n_topics=24, n_iterations=iterations, seed=seed)


def _cmd_train(args):
    from repro.experiments import make_context

    ctx = make_context(n_executors=args.executors, n_servers=args.servers,
                       seed=args.seed)
    result = _run_workload(ctx, args.workload, args.iterations, args.seed)

    print("system:   %s" % result.system)
    print("workload: %s" % result.workload)
    for t, loss in result.history:
        print("  t=%9.4fs  loss=%.6f" % (t, loss))
    print("virtual time: %.4f s   (wall time is much smaller; see DESIGN.md)"
          % result.elapsed)
    return 0


def _cmd_trace(args):
    from repro.experiments import make_context
    from repro.obs import render_report, write_chrome_trace

    ctx = make_context(n_executors=args.executors, n_servers=args.servers,
                       seed=args.seed)
    ctx.cluster.tracer.enable()
    result = _run_workload(ctx, args.workload, args.iterations, args.seed)

    path = write_chrome_trace(ctx.cluster.tracer, args.out)
    print(render_report(
        ctx.cluster,
        title="%s on %s (%d iterations)"
        % (result.system, result.workload, args.iterations),
    ))
    print()
    print("final loss:   %.6f" % result.final_loss)
    print("virtual time: %.4f s" % result.elapsed)
    print("chrome trace: %s  (open in chrome://tracing or ui.perfetto.dev)"
          % path)
    return 0


def _cmd_critical_path(args):
    from repro.experiments import make_context
    from repro.obs import critical_path as cp

    ctx = make_context(n_executors=args.executors, n_servers=args.servers,
                       seed=args.seed, consistency=args.consistency,
                       staleness=args.staleness)
    ctx.cluster.tracer.enable()
    result = _run_workload(ctx, args.workload, args.iterations, args.seed)

    tracer = ctx.cluster.tracer
    run = cp.analyze(tracer)
    print(run.render(title="%s on %s (%d iterations)"
                     % (result.system, result.workload, args.iterations)))
    stages = cp.stage_breakdowns(tracer)
    if stages and args.stages:
        print()
        for span, breakdown in stages:
            print(breakdown.render(title=span.op))
    print()
    print("virtual makespan: %.6f s   final loss: %.6f"
          % (result.elapsed, result.final_loss))
    return 0


def _cmd_profile(args):
    from cProfile import Profile
    import pstats

    from repro.experiments import make_context

    ctx = make_context(n_executors=args.executors, n_servers=args.servers,
                       seed=args.seed)
    profiler = Profile()
    profiler.enable()
    result = _run_workload(ctx, args.workload, args.iterations, args.seed)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print("host profile: %s on %s (%d iterations, virtual makespan %.4f s)"
          % (result.system, result.workload, args.iterations, result.elapsed))
    print()
    stats.print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print("profile dump: %s  (open with snakeviz or pstats)" % args.out)
    return 0


def _cmd_serve(args):
    from repro.experiments import make_context
    from repro.obs import render_report
    from repro.serving.scenario import SCENARIOS, run_serving

    if args.scenario not in SCENARIOS:
        print("unknown scenario %r; have: %s"
              % (args.scenario, ", ".join(sorted(SCENARIOS))))
        return 1
    ctx = make_context(
        n_executors=args.workers, n_servers=args.servers, seed=args.seed,
        timeseries_window=args.window,
        elasticity="auto" if args.elastic else "off",
    )
    result = run_serving(ctx, args.scenario)
    print(render_report(
        ctx.cluster,
        title="serving scenario %r (%s)"
        % (args.scenario, "elastic" if args.elastic else "static"),
    ))
    print()
    print("requests served: %d  (SLO violations: %d)"
          % (result["requests"], result["violations"]))
    print("embedding rows created lazily: %d" % result["created_rows"])
    print("final topology: %d servers / %d workers"
          % (result["n_servers"], result["n_workers"]))
    for event in result["events"]:
        print("  t=%8.4fs scale %-4s (%s) -> %d servers / %d workers"
              % (event["time"], event["direction"],
                 ",".join(event["actions"]),
                 event["n_servers"], event["n_workers"]))
    return 0


def _cmd_experiments(_args):
    entries = [
        ("Figure 1", "benchmarks/bench_fig01_mllib_analysis.py"),
        ("Figure 9(a,b)", "benchmarks/bench_fig09_dcv_lr.py"),
        ("Figure 9(c,d)", "benchmarks/bench_fig09_dcv_deepwalk.py"),
        ("Figure 10", "benchmarks/bench_fig10_lr_end2end.py"),
        ("Figure 11", "benchmarks/bench_fig11_gbdt.py"),
        ("Figure 12", "benchmarks/bench_fig12_lda.py"),
        ("Figure 13(a,b)", "benchmarks/bench_fig13_scalability.py"),
        ("Figure 13(c)", "benchmarks/bench_fig13_fault_tolerance.py"),
        ("Table 2", "benchmarks/bench_table2_datasets.py"),
        ("Table 3", "benchmarks/bench_table3_capabilities.py"),
        ("Table 4", "benchmarks/bench_table4_hyperparams.py"),
        ("Ablations", "benchmarks/bench_ablation_colocation.py, "
                      "benchmarks/bench_ablation_hist_subtraction.py"),
    ]
    print("Run any experiment with:")
    print("  pytest <file> --benchmark-only -s\n")
    for name, target in entries:
        print("  %-14s %s" % (name, target))
    print("\nAll at once: pytest benchmarks/ --benchmark-only")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PS2 (SIGMOD'19) reproduction utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quickcheck", help="10-second end-to-end sanity run")

    p_dataset = sub.add_parser("dataset", help="generate a Table-2 analogue")
    p_dataset.add_argument("name")
    p_dataset.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="train one paper workload")
    p_train.add_argument("workload", choices=_WORKLOADS)
    p_train.add_argument("--iterations", type=int, default=10)
    p_train.add_argument("--executors", type=int, default=8)
    p_train.add_argument("--servers", type=int, default=8)
    p_train.add_argument("--seed", type=int, default=0)

    p_trace = sub.add_parser(
        "trace", help="train one workload with tracing; write a chrome trace"
    )
    p_trace.add_argument("workload", choices=_WORKLOADS)
    p_trace.add_argument("--iterations", type=int, default=5)
    p_trace.add_argument("--executors", type=int, default=8)
    p_trace.add_argument("--servers", type=int, default=8)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--out", default="trace.json",
                         help="chrome-trace JSON output path")

    p_cp = sub.add_parser(
        "critical-path",
        help="train one workload traced; print the critical-path breakdown",
    )
    p_cp.add_argument("workload", choices=_WORKLOADS)
    p_cp.add_argument("--iterations", type=int, default=5)
    p_cp.add_argument("--executors", type=int, default=8)
    p_cp.add_argument("--servers", type=int, default=8)
    p_cp.add_argument("--seed", type=int, default=0)
    p_cp.add_argument("--consistency", choices=("bsp", "ssp", "asp"),
                      default="bsp")
    p_cp.add_argument("--staleness", type=int, default=0)
    p_cp.add_argument("--stages", action="store_true",
                      help="also print the per-stage breakdowns")

    p_profile = sub.add_parser(
        "profile",
        help="train one workload under cProfile; print the hottest frames",
    )
    p_profile.add_argument("workload", choices=_WORKLOADS)
    p_profile.add_argument("--iterations", type=int, default=5)
    p_profile.add_argument("--executors", type=int, default=8)
    p_profile.add_argument("--servers", type=int, default=8)
    p_profile.add_argument("--seed", type=int, default=0)
    p_profile.add_argument("--top", type=int, default=25,
                           help="number of frames to print (default 25)")
    p_profile.add_argument("--sort", default="tottime",
                           choices=("tottime", "cumtime", "ncalls"),
                           help="pstats sort key (default tottime)")
    p_profile.add_argument("--out", default=None,
                           help="also dump raw pstats data to this path")

    p_serve = sub.add_parser(
        "serve", help="replay an online-serving scenario; print the report"
    )
    p_serve.add_argument("scenario",
                         help="scenario name (smoke, step, diurnal)")
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--servers", type=int, default=2)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--window", type=float, default=0.25,
                         help="time-series window width in virtual seconds")
    p_serve.add_argument("--elastic", action="store_true",
                         help="enable the autoscaler (elasticity mode auto)")

    sub.add_parser("experiments", help="list the table/figure benchmarks")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "quickcheck": _cmd_quickcheck,
        "dataset": _cmd_dataset,
        "train": _cmd_train,
        "trace": _cmd_trace,
        "critical-path": _cmd_critical_path,
        "profile": _cmd_profile,
        "serve": _cmd_serve,
        "experiments": _cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
