"""Tracing-is-passive property: for a fixed seed, running with the
trace recorder (plus its span-collector sink and health monitor) must
yield a
simulation bit-identical to the untraced run — same executed-event
count, same cycle count, same final memory image, same counters — on
every cache configuration.

The recorder never schedules engine events; these tests are the
enforcement of that invariant.
"""

import functools

import pytest

from repro.obs import TraceEvent
from repro.system import (CONFIG_ORDER, FaultConfig, TraceConfig,
                          WatchdogConfig, build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS

SEED = 7
SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)


def _workload():
    return MICROBENCHMARKS["ReuseS"](**SMALL)


def _config(name, trace, fault_seed=None, **trace_kwargs):
    faults = FaultConfig.stress(fault_seed) if fault_seed is not None \
        else None
    return scaled_config(
        name, SMALL["num_cpus"], SMALL["num_gpus"],
        faults=faults,
        watchdog=WatchdogConfig(stall_cycles=200_000),
        trace=TraceConfig(**trace_kwargs) if trace else None)


def run_once(config_name, trace, fault_seed=None, **trace_kwargs):
    """Simulate one config; return (image, cycles, events, system)."""
    workload = _workload()
    reference = workload.reference()
    system = build_system(_config(config_name, trace, fault_seed,
                                  **trace_kwargs))
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    image = {addr: system.read_coherent(addr)
             for addr in sorted(reference.memory)}
    return image, system.engine.now, system.engine.events_executed, system


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_tracing_does_not_perturb_simulation(config_name):
    image_off, cycles_off, events_off, system_off = \
        run_once(config_name, trace=False)
    image_on, cycles_on, events_on, system_on = \
        run_once(config_name, trace=True, monitor_interval=1000)
    # the trace really recorded something — else this proves nothing
    assert system_on.tracer is not None and system_on.tracer.seen > 0
    assert system_on.tracer.handlers == system_on.spans.handlers()
    assert system_on.tracer.monitor is system_on.monitor
    assert system_on.spans.completed > 0
    assert system_on.monitor is not None and system_on.monitor.samples
    assert system_off.tracer is None
    assert events_on == events_off
    assert cycles_on == cycles_off
    assert image_on == image_off
    assert system_on.stats.counters() == system_off.stats.counters()


@pytest.mark.parametrize("config_name", ("SDD", "HMG"))
def test_tracing_is_passive_under_fault_injection(config_name):
    """Jitter + forced Nacks exercise the retry/Nack trace points; the
    perturbed schedule must still be identical traced vs untraced."""
    off = run_once(config_name, trace=False, fault_seed=SEED)
    on = run_once(config_name, trace=True, fault_seed=SEED)
    assert on[:3] == off[:3]


def test_ring_filter_does_not_perturb_simulation():
    off = run_once("SDD", trace=False)
    on = run_once("SDD", trace=True, capacity=64,
                  filters=("dev=cpu0.l1",))
    assert on[:3] == off[:3]
    tracer = on[3].tracer
    # the filter restricted the ring but the span handlers saw the
    # full stream
    assert tracer.kept < tracer.seen
    assert len(tracer) <= 64
    assert on[3].spans.completed > 0


def _normalized_trace(system):
    """Ring contents with req_ids renumbered by first appearance.

    Request ids come from a process-global counter, so two identical
    runs in one process see different absolute ids; everything else
    about the trace must match exactly.
    """
    renumber = {}
    out = []
    for event in system.tracer.events():
        record = TraceEvent(*event).to_dict()
        req_id = record.get("req_id")
        if req_id is not None:
            record["req_id"] = renumber.setdefault(req_id, len(renumber))
        out.append(record)
    return out


def test_traced_run_is_deterministic():
    first = run_once("SMG", trace=True, monitor_interval=500)
    second = run_once("SMG", trace=True, monitor_interval=500)
    assert first[:3] == second[:3]
    assert _normalized_trace(first[3]) == _normalized_trace(second[3])
    assert list(first[3].monitor.samples) == \
        list(second[3].monitor.samples)


#: EXPERIMENTS.md "Observability" table: Indirection at 2 CPU + 2 CU
INDIRECTION_TABLE = {"HMG": 52_278, "HMD": 54_384, "SMG": 3_408,
                     "SMD": 8_166, "SDG": 3_188, "SDD": 3_008}


@functools.lru_cache(maxsize=None)
def _indirection(config_name):
    workload = MICROBENCHMARKS["Indirection"](**SMALL)
    system = build_system(_config(config_name, trace=True))
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    return system.spans.indirection_cycles()


def test_hierarchical_pays_more_indirection_than_spandex():
    """The hop rollup must expose the paper's headline effect: on the
    indirection microbenchmark, hierarchical-MESI configurations spend
    strictly more flight time on indirection hops (home forwards +
    GPU L2 <-> L3 level crossings) than any Spandex configuration."""
    hier = {name: _indirection(name) for name in ("HMG", "HMD")}
    span = {name: _indirection(name) for name in ("SMG", "SMD",
                                                  "SDG", "SDD")}
    assert min(hier.values()) > max(span.values()), (hier, span)


def test_indirection_cycles_match_the_experiments_table():
    """Every send counts, deduped per channel — crediting only
    critical-path flight would shrink the hierarchical figures."""
    assert {name: _indirection(name) for name in CONFIG_ORDER} == \
        INDIRECTION_TABLE
