"""``python -m benchmarks.perf compare A.json B.json`` — parent vs change.

One row per (workload, end-to-end metric): both medians with quartiles,
the change as a share of the parent's median, the bound and a verdict.

Host metrics follow the spread rule: ``better`` / ``worse`` only when the
median moved by more than the bound *and* by more than the parent's
inter-quartile distance; inside the bound is ``same``; beyond the bound
but inside the parent's own spread is ``unresolved``.  ``setup_s`` also
has an absolute floor (a 30 ms set-up cannot move 25 % meaningfully).

Virtual metrics are deterministic for one (workload, seed), so they are
compared exactly: any move is shown with all its digits, ``worse`` once
it exceeds ``VIRTUAL_BOUND``.  (``BENCHMARK.json`` carries wider bounds
for them because its driver varies the seed between runs.)  With
different seeds on the two sides they are ``unresolved``.

Exits non-zero on any ``worse`` or a higher ``failed_op_share``.
"""

from __future__ import annotations

import json

HOST_METRICS = ("setup_s", "host_ops_per_s", "peak_rss_mb")
#: Same-seed bound for virtual metrics (the issue's 1 %).
VIRTUAL_BOUND = 0.01
#: ``setup_s`` moves smaller than this many seconds are never a verdict.
SETUP_FLOOR_S = 0.05


def verdict(name, better, bound, parent, change, same_seed):
    """``(delta share, verdict)`` for one metric of one workload."""
    a, b = parent["median"], change["median"]
    delta = (b - a) / a if a else 0.0
    worse_by = delta if better == "lower" else -delta
    if name not in HOST_METRICS:
        if not same_seed:
            return delta, "unresolved"
        if b == a:
            return delta, "same"
        if worse_by > VIRTUAL_BOUND:
            return delta, "worse"
        return delta, "better" if worse_by < 0 else "same"
    if abs(worse_by) <= bound or (
            name == "setup_s" and abs(b - a) < SETUP_FLOOR_S):
        return delta, "same"
    spread = abs(parent.get("q3", a) - parent.get("q1", a))
    if abs(b - a) <= spread:
        return delta, "unresolved"
    return delta, "worse" if worse_by > 0 else "better"


def _cell(metric):
    if "q1" in metric:
        return "%.6g [%.4g..%.4g]" % (metric["median"], metric["q1"],
                                      metric["q3"])
    return "%.10g" % metric["median"]


def compare(spec, parent, change, out=print):
    """Print the table; returns the process exit code."""
    code = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        a = parent["workloads"].get(name)
        b = change["workloads"].get(name)
        if a is None or b is None:
            out("%s: missing on one side, skipped" % name)
            continue
        same_seed = a["seed"] == b["seed"]
        out("== %s (seed %s vs %s, digest %s)" % (
            name, a["seed"], b["seed"],
            "identical" if a["virtual_digest"] == b["virtual_digest"]
            else "DIFFERS"))
        out("  %-22s %-34s %-34s %9s %6s  %s" % (
            "metric", "parent", "change", "delta", "bound", "verdict"))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            delta, word = verdict(key, metric["better"], metric["bound"],
                                  a["end_to_end"][key], b["end_to_end"][key],
                                  same_seed)
            bound = metric["bound"] if key in HOST_METRICS else VIRTUAL_BOUND
            out("  %-22s %-34s %-34s %+8.2f%% %5.0f%%  %s" % (
                key, _cell(a["end_to_end"][key]), _cell(b["end_to_end"][key]),
                100 * delta, 100 * bound, word))
            if word == "worse":
                code = 1
        if b["failed_op_share"] > a["failed_op_share"]:
            out("  failed_op_share rose: %.6g -> %.6g"
                % (a["failed_op_share"], b["failed_op_share"]))
            code = 1
        if "per_layer" in a and "per_layer" in b:
            out("  where the host time moved (traced self seconds):")
            for key in sorted(a["per_layer"]):
                if not key.endswith(".self_s") or key not in b["per_layer"]:
                    continue
                before = a["per_layer"][key]["value"]
                after = b["per_layer"][key]["value"]
                if before or after:
                    out("    %-28s %9.4f -> %9.4f  (%+.4f s)"
                        % (key, before, after, after - before))
    return code


def main(spec, path_a, path_b):
    with open(path_a, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        change = json.load(handle)
    return compare(spec, parent, change)
