"""The perf ledger: four workloads, two clocks, fifteen layers.

``BENCHMARK.json`` at the repo root names this directory; ``bench.py``
measures one workload in one process, ``python -m benchmarks.perf``
runs all of them and compares two result files.  See README.md.
"""
