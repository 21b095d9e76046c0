"""Unit tests for the parallel, cached experiment-sweep subsystem."""

import json
import pickle

import pytest

from repro.analysis.sweep import (CellSpec, ResultCache, SweepError,
                                  cell_key, code_fingerprint, grid_specs,
                                  run_sweep, simulate_cell)
from repro.obs import (load_chrome_trace, parse_prometheus_text,
                       validate_chrome_trace)
from repro.sim.stats import StatsRegistry
from repro.system import FaultConfig
from repro.workloads import MICROBENCHMARKS
from repro.workloads.synthetic import make_local_sync

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)

#: a deliberately tiny grid so the whole file stays fast
TINY_SPECS = grid_specs(["ReuseS"], ["SDD", "HMG"], SMALL)


# -- specs and keys ------------------------------------------------------------
def test_grid_specs_cross_product_order():
    specs = grid_specs(["A", "B"], ["SDD", "HMG"])
    assert [(s.workload, s.config) for s in specs] == \
        [("A", "SDD"), ("A", "HMG"), ("B", "SDD"), ("B", "HMG")]


def test_cell_spec_kwargs_are_canonical():
    a = CellSpec.make("ReuseS", "SDD", dict(num_cpus=2, num_gpus=4))
    b = CellSpec.make("ReuseS", "SDD", dict(num_gpus=4, num_cpus=2))
    assert a == b
    assert cell_key(a) == cell_key(b)


def test_cell_key_distinguishes_cells():
    base = CellSpec.make("ReuseS", "SDD", SMALL)
    keys = {
        cell_key(base),
        cell_key(CellSpec.make("ReuseS", "HMG", SMALL)),
        cell_key(CellSpec.make("ReuseO", "SDD", SMALL)),
        cell_key(CellSpec.make("ReuseS", "SDD",
                               dict(SMALL, warps_per_cu=2))),
        cell_key(base, validate_memory=False),
        cell_key(base, max_events=123),
    }
    assert len(keys) == 6


def test_cell_key_distinguishes_overrides():
    variants = [None, dict(llc_shards=2), dict(shard_interleave="hash"),
                dict(topology="mesh"), dict(num_sockets=3),
                dict(request_policy="adaptive"), dict(owner_pred=True),
                dict(faults=FaultConfig(drop_prob=0.02)),
                dict(faults=FaultConfig(drop_prob=0.02, seed=1))]
    specs = [CellSpec.make("ReuseS", "SDD", SMALL, overrides=overrides)
             for overrides in variants]
    assert len({cell_key(spec) for spec in specs}) == len(variants)
    # overrides ride through process pools and spec-keyed dicts
    for spec in specs:
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and hash(copy) == hash(spec)


def test_code_fingerprint_is_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_registry_generator_resolution():
    spec = CellSpec.make("ReuseS", "SDD", SMALL)
    assert spec.generator_ref is None
    assert spec.resolve_generator() is MICROBENCHMARKS["ReuseS"]


def test_non_registry_generator_roundtrips_by_ref():
    spec = CellSpec.make("LocalSync", "SDD", SMALL,
                         generator=make_local_sync)
    assert spec.generator_ref == \
        "repro.workloads.synthetic:make_local_sync"
    assert spec.resolve_generator() is make_local_sync


def test_unknown_workload_without_ref_raises():
    with pytest.raises(SweepError):
        CellSpec.make("NotAWorkload", "SDD").resolve_generator()


# -- the cache -----------------------------------------------------------------
#: smallest payload the cache's schema validation accepts
VALID_PAYLOAD = {"workload": "W", "config": "SDD", "cycles": 7,
                 "network_bytes": 1.0, "traffic": {}, "stats": {}}


def test_cache_roundtrip_and_clear(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("missing") is None
    cache.put("k1", VALID_PAYLOAD)
    assert (tmp_path / "k1.json").read_text() == json.dumps(VALID_PAYLOAD)
    assert cache.get("k1") == VALID_PAYLOAD
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get("k1") is None


def test_cache_tolerates_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.warns(RuntimeWarning, match="quarantined"):
        assert cache.get("bad") is None


def test_cache_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "env"))
    cache = ResultCache()
    cache.put("k", {"cycles": 1})
    assert (tmp_path / "env" / "k.json").exists()


# -- running sweeps ------------------------------------------------------------
def test_serial_sweep_matches_direct_simulation(tmp_path):
    summary = run_sweep(TINY_SPECS, jobs=1, cache=ResultCache(tmp_path))
    direct = simulate_cell(TINY_SPECS[0])
    cell = summary.cells[0]
    assert cell.cycles == direct["cycles"]
    assert cell.network_bytes == direct["network_bytes"]
    assert cell.payload["traffic"] == direct["traffic"]
    assert cell.memory_ok is True
    assert cell.wall_time > 0


def test_trace_artifacts_are_valid_and_passive(tmp_path):
    spec = CellSpec.make("ReuseS", "SDD", SMALL)
    traced = simulate_cell(spec, trace_dir=str(tmp_path))
    plain = simulate_cell(spec)
    for key in ("cycles", "network_bytes", "stats"):
        assert traced[key] == plain[key], key
    artifacts = {key for key in traced if key.endswith("_artifact")}
    assert artifacts == {"trace_artifact", "metrics_artifact",
                         "prom_artifact"}
    trace = load_chrome_trace(traced["trace_artifact"])
    assert trace["traceEvents"]
    assert validate_chrome_trace(trace) == []
    with open(traced["metrics_artifact"]) as handle:
        metrics = json.load(handle)
    assert json.loads(json.dumps(metrics)) == metrics
    assert metrics["monitor"]["scrapes"] > 0
    with open(traced["prom_artifact"]) as handle:
        names = {name for name, _, _ in
                 parse_prometheus_text(handle.read())}
    assert "repro_home_queue_depth" in names


def test_warm_cache_rerun_simulates_nothing(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_sweep(TINY_SPECS, jobs=1, cache=cache)
    assert cold.cache_hits == 0
    assert cold.simulated == len(TINY_SPECS)
    warm = run_sweep(TINY_SPECS, jobs=1, cache=cache)
    assert warm.cache_hits == len(TINY_SPECS)
    assert warm.simulated == 0
    for a, b in zip(cold.cells, warm.cells):
        assert (a.cycles, a.network_bytes) == (b.cycles, b.network_bytes)


def test_parallel_sweep_is_byte_identical_to_serial():
    serial = run_sweep(TINY_SPECS, jobs=1, cache=None)
    parallel = run_sweep(TINY_SPECS, jobs=2, cache=None)
    for a, b in zip(serial.cells, parallel.cells):
        assert (a.workload, a.config) == (b.workload, b.config)
        assert a.cycles == b.cycles
        assert a.network_bytes == b.network_bytes
        assert a.payload["traffic"] == b.payload["traffic"]
        assert a.payload["stats"] == b.payload["stats"]


def test_summary_grouping_and_counters(tmp_path):
    summary = run_sweep(TINY_SPECS, jobs=1, cache=None)
    (wr,) = summary.workload_results()
    assert wr.workload == "ReuseS"
    assert list(wr.results) == ["SDD", "HMG"]
    assert wr.results["SDD"].memory_ok is True
    merged = summary.merged_stats()
    assert merged.get("network.bytes") == pytest.approx(
        sum(cell.network_bytes for cell in summary.cells))
    text = summary.format_summary()
    assert "cache hits: 0" in text and "simulated: 2" in text
    assert "wall time:" in text
    payload = json.loads(json.dumps(summary.to_json()))
    assert payload["cells"] == 2 and len(payload["results"]) == 2


def test_progress_callback_sees_every_cell(tmp_path):
    seen = []
    run_sweep(TINY_SPECS, jobs=1, cache=None,
              progress=lambda cell: seen.append(cell.config))
    assert sorted(seen) == ["HMG", "SDD"]


# -- grids as per-workload results --------------------------------------------
def test_experiment_runner_on_sweep(tmp_path):
    summary = run_sweep(TINY_SPECS, cache=ResultCache(tmp_path))
    (result,) = summary.workload_results()
    assert list(result.results) == ["SDD", "HMG"]
    assert summary.simulated == 2
    # a second sweep over the same cache re-simulates nothing
    summary2 = run_sweep(TINY_SPECS, cache=ResultCache(tmp_path))
    (result2,) = summary2.workload_results()
    assert summary2.cache_hits == 2
    assert result2.results["SDD"].cycles == result.results["SDD"].cycles


def test_experiment_runner_extra_kwargs_change_key():
    a = CellSpec.make("ReuseS", "SDD", dict(SMALL))
    b = CellSpec.make("ReuseS", "SDD", dict(SMALL, use_regions=True))
    assert cell_key(a) != cell_key(b)


# -- stats folding (worker -> parent) -----------------------------------------
def test_stats_registry_from_snapshot_merge():
    worker = StatsRegistry()
    worker.incr("cycles", 10)
    worker.incr_group("traffic.bytes", "ReqV", 64)
    rebuilt = StatsRegistry.from_snapshot(
        json.loads(json.dumps(worker.snapshot())))
    assert rebuilt.get("cycles") == 10
    assert rebuilt.group("traffic.bytes") == {"ReqV": 64}
    parent = StatsRegistry()
    parent.incr("cycles", 5)
    parent.merge(rebuilt)
    assert parent.get("cycles") == 15
