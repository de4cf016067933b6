"""``python -m benchmarks.perf run | compare`` — the ledger's front door.

``run`` measures the workloads one at a time, each in a fresh
single-threaded child (``bench.py``; never two at once — nproc is 2),
prints every metric by name with its unit, and writes one JSON result.
``compare`` diffs two such results (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from benchmarks.perf import compare
from benchmarks.perf.bench import HERE, ROOT, load_spec

OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: End-to-end metrics that live on the virtual clock (exact per seed).
VIRTUAL_METRICS = ("virtual_makespan_s", "wire_bytes", "virtual_read_p50_s",
                   "virtual_read_p99_s", "virtual_write_p99_s",
                   "virtual_max_rate_rps")


def run_child(workload, args, spec):
    """Measure one workload in a child process; returns its full result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s.json" % workload)
    if os.path.exists(out):
        os.remove(out)
    command = [sys.executable, os.path.join(HERE, "bench.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds or spec["run_seconds"]),
               "--trace", "1" if args.trace else "0", "--out", out]
    if args.smoke:
        command.append("--smoke")
    code = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
    if not os.path.exists(out):
        return None, code
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), code


def print_result(result, spec):
    print("== %s  seed %d  %d x %d %ss  digest %s" % (
        result["workload"], result["seed"], result["repeats"],
        result["units_per_repeat"], result["unit_of_work"],
        result["virtual_digest"][:16]))
    for metric in spec["end_to_end"]:
        value = result["end_to_end"][metric["name"]]
        extra = ""
        if "q1" in value:
            extra = "  [q1 %.6g, q3 %.6g, n %d]" % (value["q1"], value["q3"],
                                                    value["n"])
        elif "percentile" in value:
            extra = "  [p%d of %d samples]" % (value["percentile"], value["n"])
        print("  %-24s %14.8g %-5s%s" % (metric["name"], value["median"],
                                         value["unit"], extra))
    print("  %-24s %14.8g share  (%d of %d %ss)" % (
        "failed_op_share", result["failed_op_share"], result["failed"],
        result["attempted"], result["unit_of_work"]))
    print("  %-24s %14.8g share" % ("slo_miss_share",
                                    result["slo_miss_share"]))
    for metric in spec["per_layer"]:
        value = result.get("per_layer", {}).get(metric["name"])
        if value is not None:
            print("    %-36s %14.8g %s" % (metric["name"], value["value"],
                                           value["unit"]))
    for failure in result["failures"]:
        print("  FAILED: %s" % failure)


def reference_entry(result):
    entry = {name: result["end_to_end"][name]["median"]
             for name in VIRTUAL_METRICS}
    entry["virtual_digest"] = result["virtual_digest"]
    return entry


def check_reference(results, write):
    """Report (never fail on) drift of the virtual numbers.

    A design change moves them on purpose and cannot edit this
    directory; the report makes the move a one-line diff."""
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as handle:
            reference = json.load(handle)
    for result in results:
        seeds = reference.setdefault(result["workload"], {})
        entry = reference_entry(result)
        known = seeds.get(str(result["seed"]))
        if write:
            seeds[str(result["seed"])] = entry
        elif known is None:
            print("reference: no entry for %s seed %d"
                  % (result["workload"], result["seed"]))
        elif known == entry:
            print("reference: %s seed %d matches" % (result["workload"],
                                                     result["seed"]))
        else:
            for key in sorted(entry):
                if known.get(key) != entry[key]:
                    print("reference: %s seed %d DRIFT %s: %r -> %r" % (
                        result["workload"], result["seed"], key,
                        known.get(key), entry[key]))
    if write:
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")


def run(args):
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    selected = [args.workload] if args.workload else names
    exit_code = 0
    results = []
    for name in selected:
        result, code = run_child(name, args, spec)
        exit_code = exit_code or code
        if result is None:
            print("== %s: no result (exit code %d)" % (name, code))
            continue
        results.append(result)
        print_result(result, spec)
    ledger = {"schema": "perf-ledger/v1", "seed": args.seed,
              "smoke": bool(args.smoke),
              "workloads": {result["workload"]: result for result in results}}
    by_name = ledger["workloads"]
    if "storm-bare" in by_name and "storm-allon" in by_name:
        ledger["allon_slowdown"] = (
            by_name["storm-bare"]["end_to_end"]["host_ops_per_s"]["median"]
            / by_name["storm-allon"]["end_to_end"]["host_ops_per_s"]["median"])
        print("allon_slowdown %.3f  (host_ops_per_s storm-bare / storm-allon)"
              % ledger["allon_slowdown"])
    if not args.smoke:
        check_reference(results, args.write_reference)
    out = args.out or os.path.join(OUT_DIR, "ledger.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    print("wrote %s" % os.path.relpath(out))
    return exit_code


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="measure the workloads")
    run_parser.add_argument("--seed", type=int, default=17)
    run_parser.add_argument("--workload")
    run_parser.add_argument("--trace", action="store_true",
                            help="add one traced repeat per workload and "
                                 "print the per-layer metrics")
    run_parser.add_argument("--smoke", action="store_true",
                            help="~1/10 sizes, 2 repeats, <= 20 s in all")
    run_parser.add_argument("--seconds", type=float,
                            help="timed budget per workload "
                                 "(default: BENCHMARK.json run_seconds)")
    run_parser.add_argument("--out", help="result file "
                                          "(default: benchmarks/perf/out/ledger.json)")
    run_parser.add_argument("--write-reference", action="store_true",
                            help="record this run's virtual numbers in "
                                 "reference.json")
    compare_parser = commands.add_parser("compare",
                                         help="diff two result files")
    compare_parser.add_argument("parent")
    compare_parser.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    return compare.main(load_spec(), args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
