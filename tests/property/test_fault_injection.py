"""Property-style stress tests: every cache configuration must survive
seeded fault injection (message delay jitter, burst congestion, forced
NACKs) with the invariant checker armed, finish without deadlock, and
produce final memory byte-identical to the fault-free run.

The injector is seeded, so the whole suite is deterministic: the same
seed must yield the same event count, cycle count, and final memory.
"""

import dataclasses

import pytest

from repro.analysis import InvariantChecker
from repro.system import (CONFIG_ORDER, FaultConfig, WatchdogConfig,
                          build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS

SEED = 7
SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)


def _workload():
    return MICROBENCHMARKS["ReuseS"](**SMALL)


def _config(name, fault_seed):
    faults = FaultConfig.stress(fault_seed) if fault_seed is not None \
        else None
    return scaled_config(
        name, SMALL["num_cpus"], SMALL["num_gpus"],
        faults=faults,
        # tight enough to catch a hang quickly, loose enough that
        # fault-injected delays never trip it on a healthy run
        watchdog=WatchdogConfig(stall_cycles=200_000))


def run_once(config_name, fault_seed=None):
    """Simulate one config; return (image, cycles, events, stats)."""
    workload = _workload()
    reference = workload.reference()
    system = build_system(_config(config_name, fault_seed))
    system.load_workload(workload)
    checker = InvariantChecker(system, period=500)
    for core in system.cpus:
        if core.trace:
            core.start()
    for cu in system.gpus:
        if cu.warps:
            cu.start()
    checker.arm()
    if system.watchdog is not None:
        system.watchdog.arm()
    system.engine.run(max_events=30_000_000)
    checker.audit(final=True)
    assert checker.audits > 2
    image = {addr: system.read_coherent(addr)
             for addr in sorted(reference.memory)}
    return (image, system.engine.now,
            system.engine.events_executed, system.stats, reference)


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_faulted_run_matches_fault_free_memory(config_name):
    clean_image, _, _, _, reference = run_once(config_name)
    image, _, _, stats, _ = run_once(config_name, fault_seed=SEED)
    # the injector really fired — otherwise this test proves nothing
    assert stats.get("faults.jitter_delayed") + \
        stats.get("faults.burst_delayed") > 0
    assert image == clean_image
    assert image == {addr: value
                     for addr, value in sorted(reference.memory.items())}


@pytest.mark.parametrize("config_name", ("SDD", "HMG"))
def test_fault_injection_is_deterministic(config_name):
    first = run_once(config_name, fault_seed=SEED)
    second = run_once(config_name, fault_seed=SEED)
    image_a, cycles_a, events_a, stats_a, _ = first
    image_b, cycles_b, events_b, stats_b, _ = second
    assert events_a == events_b
    assert cycles_a == cycles_b
    assert image_a == image_b
    assert stats_a.counters() == stats_b.counters()


def test_different_seeds_perturb_differently():
    _, cycles_a, events_a, stats_a, _ = run_once("SDD", fault_seed=SEED)
    _, cycles_b, events_b, stats_b, _ = run_once("SDD",
                                                 fault_seed=SEED + 1)
    # a different seed must produce a different fault schedule
    assert (stats_a.get("faults.extra_delay_cycles"),
            events_a, cycles_a) != \
        (stats_b.get("faults.extra_delay_cycles"),
         events_b, cycles_b)


def test_forced_nacks_trigger_tu_retries():
    """Spandex homes NACK-amplify DeNovo/GPU ReqV; the TU must absorb
    them with bounded backoff, never escalating on a healthy run."""
    config = dataclasses.replace(_config("SDD", SEED),
                                 tu_nack_retry_limit=4)
    workload = _workload()
    system = build_system(config)
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    assert system.stats.get("home.llc.forced_nacks") > 0
    assert system.stats.get("tu.nack_retries") > 0
    assert system.stats.get("tu.escalations") == 0
    per_device = system.stats.group("tu.retries_by_device")
    assert per_device and all(v > 0 for v in per_device.values())


#: exact (events, cycles, network bytes) of ReuseS at 2 CPUs / 2 CUs x
#: 2 warps under fault seed 7, per fault profile and LLC family
PINNED_FAULT_CELLS = {
    ("stress", "SMG"): (24_380, 23_270, 80_246),
    ("stress", "HMG"): (22_880, 22_266, 89_088),
    ("unreliable_stress", "SMG"): (28_222, 32_223, 120_802),
    ("unreliable_stress", "HMG"): (26_461, 30_526, 129_446),
}


@pytest.mark.parametrize("profile,config_name", sorted(PINNED_FAULT_CELLS))
def test_faulted_cell_counts_are_pinned(profile, config_name):
    """Retry/Nack churn (``stress``) and drop/dup/reorder recovery
    through the reliable transport (``unreliable_stress``) are seeded,
    so every count is exact: any drift means behaviour changed."""
    faults = getattr(FaultConfig, profile)(SEED)
    system = build_system(scaled_config(config_name, 2, 2, faults=faults))
    system.load_workload(MICROBENCHMARKS["ReuseS"](
        num_cpus=2, num_gpus=2, warps_per_cu=2))
    result = system.run(max_events=30_000_000)
    assert (system.engine.events_executed, result.cycles,
            result.network_bytes) == \
        PINNED_FAULT_CELLS[(profile, config_name)]

