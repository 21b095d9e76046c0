"""Sharded-home and fabric-topology integration tests.

The anchor is the bit-identity property: an explicit ``llc_shards=1``
system (which now flows through the HomeMap / topology machinery) must
produce byte-identical stats AND traces to the default build on every
configuration.  On top of that, multi-shard systems on every topology
must still converge to reference-correct memory — including under the
standing fault-injection stress profile — and the sweep layer must
route shard/topology axes to the system config, not the workload
generator.
"""

import itertools
from collections import Counter

import pytest

from repro.coherence.messages import Message

from repro.analysis import check_final_state
from repro.analysis.sweep import CellSpec, simulate_cell
from repro.obs import TraceEvent
from repro.system import (CONFIG_ORDER, SPANDEX_CONFIGS, TraceConfig,
                          build_system, scaled_config)
from repro.system.config import FaultConfig
from repro.workloads import MICROBENCHMARKS

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)


def _run(config, workload_name="ReuseS"):
    workload = MICROBENCHMARKS[workload_name](**SMALL)
    system = build_system(config)
    counts = Counter()
    system.network.trace_hook = lambda msg, _t: counts.update([msg.dst])
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    return system, workload, counts


def _fingerprint(config):
    # bit-identity means "as if each run were a fresh process": home
    # transaction ids are per-instance now, and the one remaining
    # process-global counter (message req_ids) is reset so raw traces
    # are comparable without renumbering
    Message._req_ids = itertools.count(1)
    system, _, _ = _run(config)
    trace = [TraceEvent(*event).to_dict()
             for event in system.tracer.events()]
    return dict(cycles=system.engine.now,
                events=system.engine.events_executed,
                stats=system.stats.counters(),
                trace=trace)


def _assert_memory_matches(system, workload):
    reference = workload.reference()
    mismatches = [
        (hex(addr), system.read_coherent(addr), value)
        for addr, value in reference.memory.items()
        if system.read_coherent(addr) != value]
    assert not mismatches, mismatches[:5]


# -- the bit-identity property ------------------------------------------------
@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_one_shard_is_bit_identical_to_default(config_name):
    trace = TraceConfig(monitor_interval=500)
    baseline = _fingerprint(scaled_config(config_name, 2, 2, trace=trace))
    explicit = _fingerprint(scaled_config(
        config_name, 2, 2, trace=trace,
        llc_shards=1, shard_interleave="line", topology="p2p"))
    assert explicit["cycles"] == baseline["cycles"]
    assert explicit["events"] == baseline["events"]
    assert explicit["stats"] == baseline["stats"]
    assert explicit["trace"] == baseline["trace"]


# -- multi-shard correctness --------------------------------------------------
@pytest.mark.parametrize("config_name", SPANDEX_CONFIGS)
def test_two_shards_match_reference(config_name):
    system, workload, counts = _run(
        scaled_config(config_name, 2, 2, llc_shards=2))
    _assert_memory_matches(system, workload)
    # the interleave genuinely splits traffic across both homes
    assert counts["llc0"] > 0 and counts["llc1"] > 0
    check_final_state(system)


def test_hash_interleave_matches_reference():
    system, workload, counts = _run(
        scaled_config("SDD", 2, 2, llc_shards=4,
                      shard_interleave="hash"))
    _assert_memory_matches(system, workload)
    assert sum(counts[f"llc{i}"] > 0 for i in range(4)) >= 2


@pytest.mark.parametrize("topology", ("mesh", "switch", "multi_socket"))
def test_sharded_topologies_match_reference(topology):
    system, workload, _ = _run(
        scaled_config("SMG", 2, 2, llc_shards=2, topology=topology))
    _assert_memory_matches(system, workload)
    assert system.topology.kind == topology


def test_topology_changes_latency_but_not_memory():
    near = _run(scaled_config("SMG", 2, 2, llc_shards=2,
                              topology="multi_socket",
                              cross_socket_latency=5,
                              cross_socket_return_latency=5))
    far = _run(scaled_config("SMG", 2, 2, llc_shards=2,
                             topology="multi_socket",
                             cross_socket_latency=200,
                             cross_socket_return_latency=200))
    for system, workload, _ in (near, far):
        _assert_memory_matches(system, workload)
    assert far[0].engine.now > near[0].engine.now


def test_sharded_multi_socket_under_fault_stress():
    system, workload, counts = _run(
        scaled_config("SDD", 2, 2, llc_shards=2,
                      topology="multi_socket",
                      faults=FaultConfig.stress(seed=7)))
    _assert_memory_matches(system, workload)
    assert counts["llc0"] > 0 and counts["llc1"] > 0


# -- sweep plumbing -----------------------------------------------------------
def test_sweep_routes_shard_axes_to_system_config():
    spec = CellSpec.make("ReuseS", "SMG", SMALL,
                         overrides=dict(llc_shards=2, topology="switch"))
    config = spec.system_config()
    assert config.llc_shards == 2
    assert config.topology == "switch"
    # the generator never sees the system axes
    assert "llc_shards" not in spec.kwargs_dict()
    assert "topology" not in spec.kwargs_dict()
    result = simulate_cell(spec)
    assert result["memory_ok"] is True


def test_sweep_cache_key_distinguishes_shard_counts():
    from repro.analysis.sweep import cell_key
    one = CellSpec.make("ReuseS", "SMG", SMALL, overrides=dict(llc_shards=1))
    two = CellSpec.make("ReuseS", "SMG", SMALL, overrides=dict(llc_shards=2))
    assert cell_key(one) != cell_key(two)
