"""Smoke test of the perf ledger (not in tier-1; ``pytest benchmarks/perf``).

Runs ``python -m benchmarks.perf run --trace --smoke`` (~1/10 sizes, two
repeats, <= 20 s in all) and validates the result against
``BENCHMARK.json`` and ``interactions.json``: every declared workload
and metric is present, names are well-formed, every interaction names a
declared metric and workload, the predicted bypasses hold, and watching
did not change what ran (the child fails on a traced != untraced
digest, so a clean exit is that proof).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def spec():
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def interactions():
    return _load(os.path.join(HERE, "interactions.json"))


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("perf") / "smoke.json")
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--trace", "--smoke",
         "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return _load(out)


def test_spec_is_well_formed(spec, interactions):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in spec[section]]
    assert all(NAME.match(name) for name in names)
    for section in ("workloads", "end_to_end", "per_layer"):
        section_names = [entry["name"] for entry in spec[section]]
        assert len(section_names) == len(set(section_names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])

    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer_metric, targets in interactions["moves"].items():
        assert layer_metric in per_layer, layer_metric
        for target in targets:
            assert target["metric"] in end_to_end, target
            assert target["workload"] in workloads, target
    for prediction in interactions["predictions"]:
        assert prediction["metric"] in per_layer, prediction
        assert prediction["workload"] in workloads, prediction


def test_every_declared_metric_is_measured(spec, ledger):
    assert set(ledger["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, result in ledger["workloads"].items():
        assert not result["failures"], (name, result["failures"])
        assert result["failed"] == 0 and result["attempted"] >= 1
        for metric in spec["end_to_end"]:
            value = result["end_to_end"][metric["name"]]
            assert value["unit"] == metric["unit"], (name, metric["name"])
            assert value["median"] > 0, (name, metric["name"])
        for metric in spec["per_layer"]:
            value = result["per_layer"][metric["name"]]
            assert value["unit"] == metric["unit"], (name, metric["name"])
        assert os.path.exists(os.path.join(HERE, result["spans_file"]))
    assert ledger["allon_slowdown"] > 1.0


def test_predictions_hold(interactions, ledger):
    for prediction in interactions["predictions"]:
        result = ledger["workloads"][prediction["workload"]]
        value = result["per_layer"][prediction["metric"]]["value"]
        if "equals" in prediction:
            assert value == prediction["equals"], prediction
        if "min" in prediction:
            assert value >= prediction["min"], (prediction, value)
        if "max" in prediction:
            assert value <= prediction["max"], (prediction, value)


def test_compare_a_result_with_itself(ledger, tmp_path):
    path = str(tmp_path / "ledger.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle)
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "compare", path, path],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout
    assert "worse" not in done.stdout and "DIFFERS" not in done.stdout
