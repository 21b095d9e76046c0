"""Monitoring-is-passive property: enabling the health monitor and
span collector must yield a simulation bit-identical to the merely
traced run — same executed-event count, same cycle count, same final
memory image, same counters, same normalized trace — on every cache
configuration, including a sharded multi-socket run on an unreliable
fabric (the heaviest scrape surface: transport channels, reorder
buffers, per-shard queues).

The monitor and span collector run from inside the trace recorder:
they read passive state and never schedule engine events.  These tests
enforce that invariant.
"""

import dataclasses

import pytest

from repro.obs import TraceEvent
from repro.system import (CONFIG_ORDER, FaultConfig, TraceConfig,
                          WatchdogConfig, build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS

SEED = 7
SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)
INTERVAL = 1000


def _workload():
    return MICROBENCHMARKS["ReuseS"](**SMALL)


def _config(name, monitor, faults=None, **overrides):
    trace = TraceConfig(monitor_interval=INTERVAL if monitor else 0)
    return scaled_config(
        name, SMALL["num_cpus"], SMALL["num_gpus"],
        faults=faults,
        watchdog=WatchdogConfig(stall_cycles=200_000),
        trace=trace, **overrides)


def run_once(config_name, monitor, faults=None, **overrides):
    """Simulate one config; return (image, cycles, events, system)."""
    workload = _workload()
    reference = workload.reference()
    system = build_system(_config(config_name, monitor, faults,
                                  **overrides))
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    image = {addr: system.read_coherent(addr)
             for addr in sorted(reference.memory)}
    return image, system.engine.now, system.engine.events_executed, \
        system


@pytest.fixture(scope="module", autouse=True)
def _advance_global_req_ids():
    """Request ids come from a process-global counter while home txn
    ids restart at 1 every run; if the very first run's request ids
    overlap the txn-id range, renumbering-by-first-appearance collides
    the two id spaces differently in the off vs on run.  One warm-up
    run pushes the global counter past any txn-id range."""
    run_once("HMG", monitor=False)


def _normalized_trace(system):
    """Ring contents with req_ids renumbered by first appearance."""
    renumber = {}
    out = []
    for event in system.tracer.events():
        record = TraceEvent(*event).to_dict()
        req_id = record.get("req_id")
        if req_id is not None:
            record["req_id"] = renumber.setdefault(req_id,
                                                   len(renumber))
        out.append(record)
    return out


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_monitoring_does_not_perturb_simulation(config_name):
    image_off, cycles_off, events_off, system_off = \
        run_once(config_name, monitor=False)
    image_on, cycles_on, events_on, system_on = \
        run_once(config_name, monitor=True)
    # the monitor really scraped and spans really closed — else this
    # proves nothing
    assert system_on.monitor is not None
    assert system_on.monitor.scrapes > 1
    assert system_on.spans.completed > 0
    assert system_off.monitor is None and system_off.spans is not None
    assert events_on == events_off
    assert cycles_on == cycles_off
    assert image_on == image_off
    assert system_on.stats.counters() == system_off.stats.counters()
    assert _normalized_trace(system_on) == _normalized_trace(system_off)


def test_monitoring_is_passive_on_sharded_multisocket_unreliable():
    """The acceptance configuration: two shards across two sockets on
    a lossy, duplicating, reordering fabric with the reliable
    transport armed — every monitor read path (transport channels,
    reorder buffers, per-shard homes, asymmetric links) is live."""
    overrides = dict(llc_shards=2, topology="multi_socket",
                     num_sockets=2)
    faults = FaultConfig.unreliable_stress(SEED)
    off = run_once("SDD", monitor=False, faults=faults, **overrides)
    on = run_once("SDD", monitor=True, faults=faults, **overrides)
    assert on[3].monitor.scrapes > 1
    assert on[3].spans.completed > 0
    # the transport scrape surface was actually exercised
    assert any("transport" in row for row in on[3].monitor.samples)
    assert on[:3] == off[:3]
    assert on[3].stats.counters() == off[3].stats.counters()
    assert _normalized_trace(on[3]) == _normalized_trace(off[3])


def test_monitored_run_is_deterministic():
    first = run_once("SMG", monitor=True)
    second = run_once("SMG", monitor=True)
    assert first[:3] == second[:3]
    assert list(first[3].monitor.samples) == \
        list(second[3].monitor.samples)
    assert first[3].spans.stage_totals == second[3].spans.stage_totals
    assert first[3].spans.shard_cycles == second[3].spans.shard_cycles
    assert first[3].spans.link_cycles == second[3].spans.link_cycles


def test_critical_path_sums_to_end_to_end_latency():
    """Acceptance: per-request critical-path stages must sum to the
    request's end-to-end latency within 1% (the exact-partition
    decomposition makes the error zero) on every configuration."""
    for config_name in CONFIG_ORDER:
        system = run_once(config_name, monitor=True)[3]
        assert system.spans.completed > 0
        for record in system.spans.recent:
            total = record["total"]
            attributed = sum(record["stages"].values())
            assert abs(attributed - total) <= max(0.01 * total, 1e-9), (
                config_name, record)
        rollup = sum(system.spans.stage_totals.values())
        assert abs(rollup - system.spans.total_cycles) <= \
            0.01 * max(system.spans.total_cycles, 1.0)
