"""Property suite for the unreliable fabric (ISSUE 7 acceptance).

Under seeded delivery faults — message loss, duplication, cross-message
reordering past the FIFO clamp, scheduled link outages, and socket
partitions — every configuration must finish (no deadlock, invariants
clean) with final memory **byte-identical** to the fault-free run, for
at least three seeds of every fault class, on all six Table V
configurations *and* on a sharded multi-socket fabric.

The reliable-delivery sublayer (``repro.network.reliable``) is what
makes this hold: the protocols underneath still assume exactly-once
per-(src, dst) FIFO delivery and are never told the wire is lossy.
"""

import pytest

from repro.analysis import InvariantChecker
from repro.network import ReliableNetwork
from repro.system import (CONFIG_ORDER, FaultConfig, LinkWindow,
                          PartitionWindow, WatchdogConfig, build_system,
                          scaled_config)
from repro.workloads import MICROBENCHMARKS

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)
SEEDS = (1, 2, 3)

#: one profile per delivery-fault class; each must fire its own counter
FAULT_CLASSES = {
    "drop": (dict(drop_prob=0.04), "faults.dropped"),
    "dup": (dict(dup_prob=0.06), "faults.duplicated"),
    "reorder": (dict(reorder_prob=0.08, reorder_window=64),
                "faults.reordered"),
    "link_down": (dict(link_down=(LinkWindow(start=1_500,
                                             length=1_200),)),
                  "faults.link_down_dropped"),
}

#: the sharded multi-socket fabric the acceptance calls out explicitly
SHARDED = dict(llc_shards=2, topology="multi_socket", num_sockets=2)


def _workload():
    return MICROBENCHMARKS["ReuseS"](**SMALL)


def _config(name, faults, **overrides):
    return scaled_config(
        name, SMALL["num_cpus"], SMALL["num_gpus"], faults=faults,
        watchdog=WatchdogConfig(stall_cycles=200_000), **overrides)


def run_once(config_name, faults=None, **overrides):
    """Simulate one config; return (image, cycles, events, stats)."""
    workload = _workload()
    reference = workload.reference()
    system = build_system(_config(config_name, faults, **overrides))
    if faults is not None and faults.unreliable:
        assert isinstance(system.network, ReliableNetwork)
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
    image = {addr: system.read_coherent(addr)
             for addr in sorted(reference.memory)}
    assert image == {addr: value
                     for addr, value in sorted(reference.memory.items())}
    return (image, system.engine.now,
            system.engine.events_executed, system.stats)


_clean_cache = {}


def _clean_image(config_name, **overrides):
    key = (config_name, tuple(sorted(overrides.items())))
    if key not in _clean_cache:
        _clean_cache[key] = run_once(config_name, None, **overrides)[0]
    return _clean_cache[key]


# -- the acceptance matrix: every class x every config x 3 seeds --------------
@pytest.mark.parametrize("class_name", sorted(FAULT_CLASSES))
@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_fault_class_preserves_memory(config_name, class_name):
    profile, counter = FAULT_CLASSES[class_name]
    clean = _clean_image(config_name)
    for seed in SEEDS:
        image, _, _, stats = run_once(
            config_name, FaultConfig(seed=seed, **profile))
        # the class really fired — otherwise this proves nothing
        assert stats.get(counter) > 0, (config_name, class_name, seed)
        assert image == clean, (config_name, class_name, seed)


@pytest.mark.parametrize("class_name", sorted(FAULT_CLASSES))
def test_fault_class_on_sharded_multi_socket(class_name):
    profile, counter = FAULT_CLASSES[class_name]
    clean = _clean_image("SDD", **SHARDED)
    for seed in SEEDS:
        image, _, _, stats = run_once(
            "SDD", FaultConfig(seed=seed, **profile), **SHARDED)
        assert stats.get(counter) > 0, (class_name, seed)
        assert image == clean, (class_name, seed)


def test_socket_partition_preserves_memory():
    """A pulled-cable partition window drops every cross-socket message
    until it lifts; the transport must recover all of them."""
    clean = _clean_image("SMG", **SHARDED)
    faults = FaultConfig(
        seed=1, partitions=(PartitionWindow(start=3_000, length=2_000,
                                            socket=1),))
    image, _, _, stats = run_once("SMG", faults, **SHARDED)
    assert stats.get("faults.partition_dropped") > 0
    assert stats.get("transport.retransmits") > 0
    assert image == clean


# -- the combined stress profile ----------------------------------------------
@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_unreliable_stress_all_configs(config_name):
    """All classes at once (the profile CI and the bench harness use)."""
    clean = _clean_image(config_name)
    image, _, _, stats = run_once(
        config_name, FaultConfig.unreliable_stress(1))
    assert image == clean
    # recovery machinery demonstrably engaged
    assert stats.get("transport.retransmits") > 0
    assert stats.get("transport.dup_dropped") > 0
    assert stats.get("transport.acks") > 0


def test_hmg_lossy_multi_socket_inv_overtaking_gets_grant():
    """The GPU L2 drops a Shared grant that a directory Inv overtook.

    Across sockets, with drops and retransmits, the L3's Inv can reach
    the GPU L2 before the forwarded owner's DATA_S for its GetS.  The
    L2 acks the Inv, so installing the data afterwards left a stale
    copy no later write would invalidate, and the warps spun on it
    past a 200k-event budget."""
    workload = MICROBENCHMARKS["ProducerConsumer"](
        num_cpus=2, num_gpus=2, warps_per_cu=2)
    reference = workload.reference()
    system = build_system(_config(
        "HMG", FaultConfig.unreliable_stress(1),
        topology="multi_socket", num_sockets=2))
    system.load_workload(workload)
    checker = InvariantChecker(system, period=500)
    checker.arm()
    system.run(max_events=200_000)
    checker.audit(final=True)
    assert checker.audits > 2
    for addr, value in reference.memory.items():
        assert system.read_coherent(addr) == value, hex(addr)


@pytest.mark.parametrize("config_name", ("SDD", "SMG"))
def test_unreliable_runs_are_deterministic(config_name):
    faults = FaultConfig.unreliable_stress(5)
    first = run_once(config_name, faults)
    second = run_once(config_name, faults)
    image_a, cycles_a, events_a, stats_a = first
    image_b, cycles_b, events_b, stats_b = second
    assert events_a == events_b
    assert cycles_a == cycles_b
    assert image_a == image_b
    assert stats_a.counters() == stats_b.counters()


def test_different_seeds_shuffle_the_fault_schedule():
    _, cycles_a, events_a, stats_a = run_once(
        "SDD", FaultConfig.unreliable_stress(1))
    _, cycles_b, events_b, stats_b = run_once(
        "SDD", FaultConfig.unreliable_stress(2))
    assert (stats_a.get("faults.dropped"), events_a, cycles_a) != \
        (stats_b.get("faults.dropped"), events_b, cycles_b)
