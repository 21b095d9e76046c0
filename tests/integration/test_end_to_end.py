"""End-to-end runs: every workload on every configuration, with the
final coherent memory checked word-for-word against the DRF reference
executor.  This is the simulator's strongest correctness oracle.
"""

import pytest

from repro.analysis import CellSpec, run_sweep
from repro.system import CONFIG_ORDER, build_system, scaled_config
from repro.workloads import (APPLICATIONS, MICROBENCHMARKS, make_bc,
                             make_reuse_o)

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=2)

ALL_GENERATORS = {}
ALL_GENERATORS.update(MICROBENCHMARKS)
ALL_GENERATORS.update(APPLICATIONS)


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
@pytest.mark.parametrize("workload_name", sorted(ALL_GENERATORS))
def test_memory_matches_reference(workload_name, config_name):
    workload = ALL_GENERATORS[workload_name](**SMALL)
    reference = workload.reference()
    system = build_system(scaled_config(config_name, 2, 2))
    system.load_workload(workload)
    result = system.run(max_events=30_000_000)
    mismatches = [
        (hex(addr), system.read_coherent(addr), value)
        for addr, value in reference.memory.items()
        if system.read_coherent(addr) != value]
    assert not mismatches, mismatches[:5]
    assert result.cycles > 0


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_all_devices_finish(config_name):
    workload = make_reuse_o(**SMALL, tile_lines=4, iterations=2)
    system = build_system(scaled_config(config_name, 2, 2))
    system.load_workload(workload)
    system.run(max_events=10_000_000)
    for core in system.cpus:
        assert core.done or not core.trace
    for cu in system.gpus:
        assert cu.done or not cu.warps
    # the system reached quiescence: no stuck events
    assert system.engine.pending() == 0


def test_traffic_accounted_for_every_run():
    workload = make_bc(**SMALL)
    for config_name in CONFIG_ORDER:
        system = build_system(scaled_config(config_name, 2, 2))
        system.load_workload(workload)
        result = system.run(max_events=30_000_000)
        traffic = result.traffic_by_class()
        assert sum(traffic.values()) == result.network_bytes
        assert result.network_bytes > 0


def test_experiment_runner_reports_memory_ok():
    kwargs = dict(num_cpus=2, num_gpus=2, warps_per_cu=1, tile_lines=4,
                  iterations=2)
    (result,) = run_sweep([CellSpec.make("ReuseO", config, kwargs)
                           for config in ("HMG", "SDD")]
                          ).workload_results()
    for config_result in result.results.values():
        assert config_result.memory_ok is True
    assert result.hbest() == "HMG"
    assert result.sbest() == "SDD"


def test_deterministic_across_runs():
    """Same workload + config => bit-identical cycles and traffic."""
    workload_a = make_bc(**SMALL)
    workload_b = make_bc(**SMALL)
    outcomes = []
    for workload in (workload_a, workload_b):
        system = build_system(scaled_config("SMD", 2, 2))
        system.load_workload(workload)
        result = system.run(max_events=30_000_000)
        outcomes.append((result.cycles, result.network_bytes))
    assert outcomes[0] == outcomes[1]
