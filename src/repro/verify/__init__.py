"""Litmus-driven protocol verification (schedule exploration).

The subsystem has four cooperating layers:

* :mod:`repro.verify.systems` — each Table V configuration built by
  the simulator's own :class:`~repro.system.builder.System` from a
  litmus-scale ``SystemConfig``, small enough that a litmus scenario's
  reachable interleaving space is tractable;
* :mod:`repro.verify.litmus` — the declarative scenario corpus,
  distilled from PROTOCOL.md's race table;
* :mod:`repro.verify.explorer` — a controllable network shim plus
  schedule enumeration (bounded DFS with partial-order pruning, seeded
  random walk, replay, shrinking), with every explored schedule checked
  against the invariant auditor, the sequential reference memory image
  and the SC-for-DRF value-legality pass;
* :mod:`repro.verify.coverage` / :mod:`repro.verify.mutants` — FSM
  (state, event) transition-coverage accounting and the mutant catalog
  the corpus must kill.

See VERIFY.md for the user-facing guide.
"""

from .coverage import CoverageRecorder, coverage_report, format_coverage
from .explorer import (DfsExplorer, ExplorationResult, RandomWalkExplorer,
                      ScheduleFailure, replay_schedule, run_schedule,
                      shrink_failure)
from .litmus import CORPUS, LitmusScenario, scenario_by_name
from .mutants import MUTANTS, Mutant, mutant_by_name
from .systems import VerifySystem

__all__ = [
    "CORPUS", "CoverageRecorder", "DfsExplorer", "ExplorationResult",
    "LitmusScenario", "MUTANTS", "Mutant", "RandomWalkExplorer",
    "ScheduleFailure", "VerifySystem", "coverage_report",
    "format_coverage", "mutant_by_name", "replay_schedule",
    "run_schedule", "scenario_by_name", "shrink_failure",
]
