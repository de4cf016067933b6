"""Measure one workload in this process — the command ``BENCHMARK.json`` names.

    python3 benchmarks/perf/bench.py --workload W --seed N --seconds S --trace 0|1

Prints progress to stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1`` (the traced repeat is one extra, after the timed ones).
``--out FILE`` also writes the full result (both metric sets when
traced, quartiles, digest, environment) for ``python -m benchmarks.perf``.
Exits non-zero without a result line when the program cannot be imported
or another measuring process is alive, and non-zero with
``"correct": false`` when an oracle, digest or schema check fails.
"""

import os
import sys
import time

STARTED = time.perf_counter()

# One thread, decided before numpy loads its BLAS: nproc is 2 and the
# wall/CPU re-run rule assumes a single-threaded measuring process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import json  # noqa: E402


def other_measuring_process():
    """The pid of another live ``bench.py`` run, if /proc shows one."""
    mine = {os.getpid(), os.getppid()}
    try:
        pids = [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]
    except OSError:
        return None
    for pid in pids:
        if pid in mine:
            continue
        try:
            with open("/proc/%d/cmdline" % pid, "rb") as handle:
                argv = handle.read().split(b"\0")
        except OSError:
            continue
        if any(arg.endswith(b"benchmarks/perf/bench.py") for arg in argv):
            return pid
    return None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None):
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="~1/10 sizes, 2 repeats (for the smoke test)")
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)

    other = other_measuring_process()
    if other is not None:
        print("bench: another measuring process (pid %d) is alive; two "
              "workloads must never share the 2 cores" % other,
              file=sys.stderr)
        return 3
    try:
        from benchmarks.perf import measure
    except ImportError as exc:
        print("bench: cannot import the program under test: %s" % exc,
              file=sys.stderr)
        return 2

    result = measure.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke, STARTED)
    section = "per_layer" if args.trace else "end_to_end"
    declared = [metric["name"] for metric in spec[section]]
    produced = result[section]
    missing = [name for name in declared if name not in produced]
    if missing:
        result["failures"].append("metrics declared in BENCHMARK.json but "
                                  "not produced: %s" % ", ".join(missing))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    for failure in result["failures"]:
        print("bench: FAILED %s: %s" % (args.workload, failure),
              file=sys.stderr)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": produced[name].get("value",
                                               produced[name].get("median")),
                   "unit": produced[name]["unit"]}
            for name in declared if name in produced},
    }))
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
