"""Experiment running and paper-style reporting."""
from .invariants import (InvariantChecker, InvariantViolation,
                         check_final_state)
from .report import (ConfigResult, TRAFFIC_CLASSES, WorkloadResult,
                     format_figure, format_traffic_stack,
                     summarize_headline)
from .sweep import (CellError, CellResult, CellSpec, ResultCache,
                    SweepSummary, cell_key, code_fingerprint, grid_specs,
                    run_sweep, simulate_cell)

__all__ = ["InvariantChecker", "InvariantViolation",
           "check_final_state", "ConfigResult", "TRAFFIC_CLASSES",
           "WorkloadResult", "format_figure", "format_traffic_stack",
           "summarize_headline",
           "CellError", "CellResult", "CellSpec", "ResultCache",
           "SweepSummary", "cell_key", "code_fingerprint", "grid_specs",
           "run_sweep", "simulate_cell"]
