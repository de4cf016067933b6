"""Figure 9(a,b) — effectiveness of DCV on LR with Adam (Section 6.2.1).

Three realizations of the same Adam-for-LR computation on KDDB and CTR
analogues: Spark-Adam (driver-centric), PS-Adam (parameter server with
pull/push only) and PS2-Adam (DCVs with server-side update).  The paper
reports, to a fixed training loss, PS2 beating Spark by 15.7x (KDDB) /
55.6x (CTR) and PS by 4.7x / 5x.
"""

import pytest

from benchmarks._common import ITERATIONS, emit, run_once
from repro.baselines import train_lr_mllib, train_lr_ps_pushpull
from repro.data import dataset, spec
from repro.experiments import format_speedup, format_table, make_context
from repro.ml import train_logistic_regression

# CI's benchmark-smoke job runs this figure at reduced scale (fewer Adam
# iterations, ``_common.ITERATIONS``) so perf-path regressions fail fast;
# the paper-shape assertions below hold at any scale >= 3.


def _compare(name, seed):
    rows = dataset(name, seed=seed)
    dim = spec(name).params["dim"]
    kwargs = dict(n_iterations=ITERATIONS, batch_fraction=0.1, seed=seed)
    ps2 = train_logistic_regression(
        make_context(seed=seed), rows, dim, optimizer="adam",
        system="PS2-Adam", **kwargs,
    )
    ps = train_lr_ps_pushpull(
        make_context(seed=seed), rows, dim, optimizer="adam", **kwargs,
    )
    spark = train_lr_mllib(
        make_context(seed=seed), rows, dim, optimizer="adam",
        system="Spark-Adam", **kwargs,
    )
    # All three follow the same loss trajectory; compare time to the loss
    # the slowest-converging point all runs reach.
    target = ps2.history[-1][1]
    return {
        "dataset": spec(name).name,
        "results": [ps2, ps, spark],
        "target": target,
        "t_ps2": ps2.time_to(target),
        "t_ps": ps.time_to(target),
        "t_spark": spark.time_to(target),
    }


@pytest.mark.benchmark(group="fig09")
def test_fig09ab_dcv_effect_on_lr(benchmark):
    def run():
        return [_compare("kddb", seed=5), _compare("ctr", seed=5)]

    outcomes = run_once(benchmark, run)
    table = []
    for outcome in outcomes:
        ps_speedup = outcome["t_ps"] / outcome["t_ps2"]
        spark_speedup = outcome["t_spark"] / outcome["t_ps2"]
        table.append((
            outcome["dataset"],
            "%.4f s" % outcome["t_ps2"],
            "%.4f s" % outcome["t_ps"],
            "%.4f s" % outcome["t_spark"],
            format_speedup(ps_speedup),
            format_speedup(spark_speedup),
        ))
        benchmark.extra_info["%s_vs_ps" % outcome["dataset"]] = \
            round(ps_speedup, 2)
        benchmark.extra_info["%s_vs_spark" % outcome["dataset"]] = \
            round(spark_speedup, 2)

    text = format_table(
        ["dataset", "PS2-Adam", "PS-Adam", "Spark-Adam",
         "PS/PS2 (paper 4.7x-5x)", "Spark/PS2 (paper 15.7x-55.6x)"],
        table,
        title="Figure 9(a,b): time to common training loss",
    )
    emit("fig09ab_dcv_lr", text)

    for outcome in outcomes:
        # Shape: PS2 < PS < Spark, with meaningful margins.
        assert outcome["t_ps2"] < outcome["t_ps"] < outcome["t_spark"]
        assert outcome["t_ps"] / outcome["t_ps2"] > 2.0
        assert outcome["t_spark"] / outcome["t_ps2"] > 5.0
    # CTR (the much bigger model) shows the larger Spark gap, as in the paper.
    assert (outcomes[1]["t_spark"] / outcomes[1]["t_ps2"]) > \
        (outcomes[0]["t_spark"] / outcomes[0]["t_ps2"])
