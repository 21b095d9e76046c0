"""Graceful-degradation tests for the sweep harness: crashed workers,
cells that blow their wall-clock budget, deterministic cell errors, and
corrupt cache entries must each degrade to per-cell error records while
every healthy cell's result survives.

The misbehaving workload generators live at module level so worker
processes can re-import them through ``CellSpec.generator_ref``.
"""

import json
import os
import time
import warnings

import pytest

from repro.analysis.report import (ConfigResult, WorkloadResult,
                                   format_figure)
from repro.analysis.sweep import CellSpec, ResultCache, run_sweep
from repro.system import FaultConfig, LinkWindow
from repro.workloads import MICROBENCHMARKS

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)


# -- module-level generators (importable by ref in workers) -------------------
def crashing_generator(**kwargs):
    """Simulates a hard worker death (segfault, OOM kill)."""
    os._exit(3)


def sleeping_generator(**kwargs):
    time.sleep(60)
    return MICROBENCHMARKS["ReuseS"](**kwargs)     # pragma: no cover


def erroring_generator(**kwargs):
    raise ValueError("synthetic deterministic failure")


def good_spec():
    return CellSpec.make("ReuseS", "SDD", SMALL)


# -- crashed workers ----------------------------------------------------------
def test_crashed_cell_degrades_to_error_record():
    specs = [good_spec(),
             CellSpec.make("Crash", "SDD", SMALL,
                           generator=crashing_generator)]
    summary = run_sweep(specs, jobs=2, cell_retries=1)
    assert [(c.workload, c.config) for c in summary.cells] == \
        [("ReuseS", "SDD")]
    assert summary.cells[0].memory_ok is True
    (error,) = summary.errors
    assert error.kind == "crash"
    assert error.workload == "Crash"
    assert error.attempts == 2          # original + one bounded re-run
    assert "exit" in error.message
    assert "failed: 1" in summary.format_summary()
    assert "-- no result --" in summary.format_summary()


# -- wall-clock timeouts ------------------------------------------------------
def test_timed_out_cell_is_terminated_and_recorded():
    specs = [CellSpec.make("Sleeper", "SDD", SMALL,
                           generator=sleeping_generator)]
    started = time.perf_counter()
    summary = run_sweep(specs, jobs=1, cell_timeout=1.0, cell_retries=0)
    assert time.perf_counter() - started < 30
    assert summary.cells == []
    (error,) = summary.errors
    assert error.kind == "timeout"
    assert error.attempts == 1
    assert "wall-clock" in error.message


# -- deterministic exceptions -------------------------------------------------
def test_serial_cell_exception_is_not_retried():
    summary = run_sweep([CellSpec.make("Boom", "SDD", SMALL,
                                       generator=erroring_generator)],
                        jobs=1, cell_retries=3)
    (error,) = summary.errors
    assert error.kind == "error"
    assert error.attempts == 1          # deterministic: retry is futile
    assert "synthetic deterministic failure" in error.message
    payload = summary.to_json()
    assert payload["errors"][0]["kind"] == "error"
    assert json.dumps(payload)          # stays JSON-serializable


# -- partial grids in reports -------------------------------------------------
def test_workload_results_carry_error_annotations():
    specs = [good_spec(),
             CellSpec.make("ReuseS", "HMG", SMALL,
                           generator=erroring_generator),
             CellSpec.make("Boom", "SDD", SMALL,
                           generator=erroring_generator)]
    summary = run_sweep(specs, jobs=1)
    by_name = {wr.workload: wr for wr in summary.workload_results()}
    assert set(by_name) == {"ReuseS", "Boom"}
    assert "SDD" in by_name["ReuseS"].results
    assert "HMG" in by_name["ReuseS"].errors
    assert by_name["Boom"].results == {}        # error-only workload


def test_format_figure_renders_failed_cells_as_gaps():
    ok = ConfigResult("HMG", cycles=100, network_bytes=1000.0,
                      traffic={})
    wr = WorkloadResult("Foo", {"HMG": ok},
                        errors={"SDD": "timeout after 2 attempt(s)"})
    figure = format_figure([wr], "partial grid")
    assert "FAIL" in figure
    assert "failed cells:" in figure
    assert "! Foo/SDD timeout" in figure


# -- corrupt cache quarantine -------------------------------------------------
def test_corrupt_cache_entry_quarantined_and_resimulated(tmp_path):
    cache = ResultCache(tmp_path)
    summary = run_sweep([good_spec()], jobs=1, cache=cache)
    assert summary.simulated == 1
    (path,) = tmp_path.glob("*.json")
    path.write_text('{"workload": "ReuseS"')        # truncated write

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rerun = run_sweep([good_spec()], jobs=1, cache=cache)
    assert rerun.cache_hits == 0 and rerun.simulated == 1
    assert any("quarantined" in str(w.message) for w in caught)
    assert path.with_name(path.name + ".corrupt").exists()
    assert path.exists()                # rewritten by the re-simulation

    warm = run_sweep([good_spec()], jobs=1, cache=cache)
    assert warm.cache_hits == 1


def test_schema_drift_entry_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k1", {"workload": "X"})              # missing keys
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.get("k1") is None
    assert caught
    assert (tmp_path / "k1.json.corrupt").exists()
    assert cache.clear() == 1                       # corpses swept too
    assert not list(tmp_path.glob("*"))


# -- unreliable-fabric sweep axes ---------------------------------------------
def _faulty_spec(**fault_fields):
    return CellSpec.make("ReuseS", "SDD", SMALL,
                         overrides={"faults": FaultConfig(**fault_fields)})


def test_fault_kwargs_are_stripped_from_generator_kwargs():
    spec = _faulty_spec(drop_prob=0.02, dup_prob=0.01, reorder_prob=0.05,
                        reorder_window=32,
                        link_down=(LinkWindow(2000, 1500),), seed=3)
    assert spec.kwargs_dict() == SMALL


def test_fault_kwargs_build_the_cell_fault_config():
    spec = _faulty_spec(drop_prob=0.02, dup_prob=0.01, reorder_prob=0.05,
                        reorder_window=32,
                        link_down=(LinkWindow(2000, 1500),
                                   LinkWindow(100, 50, "c0", "llc*")),
                        seed=3)
    faults = spec.system_config().faults
    assert faults is not None and faults.unreliable
    assert faults.seed == 3
    assert faults.drop_prob == 0.02
    assert faults.dup_prob == 0.01
    assert (faults.reorder_prob, faults.reorder_window) == (0.05, 32)
    assert [(w.start, w.length, w.src, w.dst) for w in faults.link_down] \
        == [(2000, 1500, "*", "*"), (100, 50, "c0", "llc*")]


def test_plain_spec_has_no_fault_config():
    assert good_spec().system_config().faults is None


def test_fault_axes_change_the_cache_key():
    from repro.analysis.sweep import cell_key

    assert cell_key(good_spec()) != cell_key(_faulty_spec(drop_prob=0.02))
    assert cell_key(_faulty_spec(drop_prob=0.02)) != \
        cell_key(_faulty_spec(drop_prob=0.02, seed=9))


def test_faulty_cell_simulates_and_validates_memory():
    summary = run_sweep([_faulty_spec(drop_prob=0.02, dup_prob=0.02,
                                      seed=1)], jobs=1)
    (cell,) = summary.cells
    assert cell.memory_ok is True
    assert cell.stats().get("transport.acks") > 0
