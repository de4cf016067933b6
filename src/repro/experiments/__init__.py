"""Experiment harness: shared runners, reports and the Table-3 registry."""

from repro.experiments.capabilities import (
    SUPPORT_MATRIX,
    TRAINER_INDEX,
    WORKLOADS,
    support_rows,
)
from repro.experiments.fault_tolerance import run_fault_tolerance
from repro.experiments.report import curve_summary, format_speedup
from repro.experiments.runner import make_context
from repro.obs.report import format_table

__all__ = [
    "SUPPORT_MATRIX",
    "TRAINER_INDEX",
    "WORKLOADS",
    "support_rows",
    "curve_summary",
    "format_speedup",
    "format_table",
    "make_context",
    "run_fault_tolerance",
]
