"""CLI tests (``python -m repro ...``)."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_quickcheck_passes(capsys):
    assert main(["quickcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_dataset_command(capsys):
    assert main(["dataset", "graph1", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "DeepWalk" in out
    assert "254 vertices" in out


def test_dataset_unknown(capsys):
    assert main(["dataset", "imagenet"]) == 1
    assert "unknown dataset" in capsys.readouterr().out


@pytest.mark.parametrize("workload",
                         ["lr", "svm", "fm", "gbdt", "lda", "line"])
def test_train_commands(capsys, workload):
    code = main([
        "train", workload, "--iterations", "2",
        "--executors", "4", "--servers", "3", "--seed", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "loss=" in out
    assert "virtual time" in out


def test_train_deepwalk(capsys):
    assert main(["train", "deepwalk", "--iterations", "1",
                 "--executors", "4", "--servers", "2"]) == 0
    assert "deepwalk" in capsys.readouterr().out


def test_trace_command(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code = main([
        "trace", "lr", "--iterations", "1",
        "--executors", "4", "--servers", "3", "--seed", "1",
        "--out", str(out_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "per-op latency" in out
    assert "p50_s" in out
    assert "per-server load" in out
    assert "final loss" in out
    import json

    with open(out_path, encoding="utf-8") as handle:
        document = json.load(handle)
    events = document["traceEvents"]
    assert any(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert any(e["ph"] == "M" for e in events)


def test_critical_path_command(capsys):
    code = main([
        "critical-path", "lr", "--iterations", "2",
        "--executors", "2", "--servers", "3", "--seed", "1", "--stages",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "total attributed:" in out
    assert "compute" in out and "network" in out and "queueing" in out
    assert "stage:" in out  # per-stage breakdowns under --stages
    assert "virtual makespan:" in out


def test_critical_path_ssp(capsys):
    assert main([
        "critical-path", "lr", "--iterations", "2",
        "--executors", "2", "--servers", "2", "--seed", "1",
        "--consistency", "ssp", "--staleness", "1",
    ]) == 0
    assert "total attributed:" in capsys.readouterr().out


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "pytest benchmarks/ --benchmark-only" in out
    root = Path(__file__).resolve().parent.parent
    benches = sorted(root.glob("benchmarks/bench_*.py"))
    assert benches
    for bench in benches:
        assert "benchmarks/" + bench.name in out, bench.name


@pytest.mark.parametrize("verb,iterations", [
    ("train", 10), ("trace", 5), ("critical-path", 5), ("profile", 5)])
def test_workload_verbs_share_their_flags_and_keep_their_defaults(
        verb, iterations):
    args = build_parser().parse_args([verb, "lr"])
    assert (args.workload, args.iterations, args.executors, args.servers,
            args.seed) == ("lr", iterations, 8, 8, 0)
    args = build_parser().parse_args([
        verb, "fm", "--iterations", "2", "--executors", "3",
        "--servers", "4", "--seed", "9"])
    assert (args.workload, args.iterations, args.executors, args.servers,
            args.seed) == ("fm", 2, 3, 4, 9)


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_parser_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["train", "resnet"])


def test_profile_command(capsys, tmp_path):
    dump = tmp_path / "profile.pstats"
    code = main([
        "profile", "fm", "--iterations", "1",
        "--executors", "4", "--servers", "3", "--seed", "1",
        "--top", "5", "--out", str(dump),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "host profile" in out
    assert "tottime" in out
    assert dump.exists()
    import pstats

    stats = pstats.Stats(str(dump))
    assert stats.total_calls > 0


def test_profile_sort_choices():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["profile", "lr", "--sort", "bogus"])
