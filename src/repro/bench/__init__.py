"""Evaluation harness (S7 in DESIGN.md): calibration, trials, sizing.

Scenarios themselves live in :data:`repro.world.scenarios.SCENARIO_SPECS`.
"""

from .calibration import CostModel, PAPER_RESULTS_MS, PAPER_TABLE2, PAPER_TESTBED
from .harness import DEFAULT_TRIALS, Measurement, measure, measure_all, run_trials
from .reporting import format_measurements, format_table2
from .sizing import (
    InteropSizing,
    SizeReport,
    count_classes,
    count_ncss,
    indiss_size_reports,
    interop_sizing,
    measure_path,
)

__all__ = [
    "CostModel",
    "DEFAULT_TRIALS",
    "InteropSizing",
    "Measurement",
    "PAPER_RESULTS_MS",
    "PAPER_TABLE2",
    "PAPER_TESTBED",
    "SizeReport",
    "count_classes",
    "count_ncss",
    "format_measurements",
    "format_table2",
    "indiss_size_reports",
    "interop_sizing",
    "measure",
    "measure_all",
    "measure_path",
    "run_trials",
]
