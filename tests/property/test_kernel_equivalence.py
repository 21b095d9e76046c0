"""Kernel-equivalence property: the hot-path overhaul changed cost,
not behaviour.

The optimized engine (indexed queue, FIFO micro-queue, compaction,
``args`` fast path) and the seed-algorithm
:class:`tests.reference_engine.ReferenceEngine` are run through identical
full-system simulations on every Table V configuration; the runs must
be bit-identical — same cycle count, same executed-event count, same
final memory image, same stats counters.  A differential timing test
then runs both kernels through one idle-heavy churn schedule: they must
execute the identical event order, and the optimized kernel must stay
at least 1.5x faster.
"""

import gc
import time

import pytest

import repro.system.builder
from repro.sim.engine import Engine
from repro.system import (CONFIG_ORDER, FaultConfig, WatchdogConfig,
                          build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS

from tests.reference_engine import ReferenceEngine

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)
FAULT_SEED = 7


def run_once(config_name, workload_name="ReuseS", fault_seed=None):
    """One full simulation; returns its behavioural fingerprint."""
    workload = MICROBENCHMARKS[workload_name](**SMALL)
    reference = workload.reference()
    faults = FaultConfig.stress(fault_seed) if fault_seed is not None \
        else None
    system = build_system(scaled_config(
        config_name, SMALL["num_cpus"], SMALL["num_gpus"],
        faults=faults,
        watchdog=WatchdogConfig(stall_cycles=200_000)))
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    image = {addr: system.read_coherent(addr)
             for addr in sorted(reference.memory)}
    return (system.engine.now, system.engine.events_executed, image,
            system.stats.counters())


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_optimized_kernel_matches_reference(config_name, monkeypatch):
    optimized = run_once(config_name)
    monkeypatch.setattr(repro.system.builder, "Engine", ReferenceEngine)
    seed = run_once(config_name)
    assert optimized[0] == seed[0], "cycle counts diverged"
    assert optimized[1] == seed[1], "executed-event counts diverged"
    assert optimized[2] == seed[2], "final memory images diverged"
    assert optimized[3] == seed[3], "stats counters diverged"


@pytest.mark.parametrize("config_name", ("SDD", "HMG"))
def test_equivalence_holds_under_fault_injection(config_name, monkeypatch):
    """Jitter, bursts and forced Nacks reorder deliveries through the
    scheduler; the two kernels must still agree event for event."""
    optimized = run_once(config_name, fault_seed=FAULT_SEED)
    monkeypatch.setattr(repro.system.builder, "Engine", ReferenceEngine)
    seed = run_once(config_name, fault_seed=FAULT_SEED)
    assert optimized == seed


@pytest.mark.parametrize("config_name", ("SMG", "HMD"))
def test_equivalence_on_indirection_workload(config_name, monkeypatch):
    optimized = run_once(config_name, workload_name="Indirection")
    monkeypatch.setattr(repro.system.builder, "Engine", ReferenceEngine)
    seed = run_once(config_name, workload_name="Indirection")
    assert optimized == seed


def _drive_idle_churn(engine):
    """Run the seed kernel's pathological schedule; return (order, s).

    ``n_background`` far-future *idle* housekeeping events hold the
    heap large while ``n_ticks`` periodic idle ticks each force the
    seed's O(heap) may-housekeeping-run rescan.  Every tick also
    cancels and reschedules ``churn`` real events (the Nack-retry
    pattern that grew the seed heap without bound: cancelled events
    are dead weight the rescan must step over).
    """
    n_background, n_ticks, churn = 1000, 1000, 4
    order = []
    horizon = n_ticks + 10
    for i in range(n_background):
        engine.schedule(horizon + i, order.append, (i,), idle=True)
    # one real-work sentinel keeps the simulation live throughout
    engine.schedule(horizon + n_background + n_ticks * churn + 1,
                    order.append, (-999,))
    pending = []

    def tick(i):
        order.append(-1 - i)
        for event in pending:
            engine.cancel(event)
        pending.clear()
        for c in range(churn):
            pending.append(engine.schedule(
                horizon + n_background + i * churn + c,
                order.append, (-1,)))
        if i + 1 < n_ticks:
            engine.schedule(1, tick, (i + 1,), idle=True)

    engine.schedule(1, tick, (0,), idle=True)
    gc.collect()        # keep earlier tests' garbage off the clock
    started = time.perf_counter()
    engine.run()
    return order, time.perf_counter() - started


def test_optimized_kernel_beats_reference_on_idle_churn():
    """Same schedule, same execution order, >= 1.5x faster (best of 2).

    The ratio of two kernels timed in one process does not depend on
    the host's speed, so the bound holds on any machine.
    """
    runs = {engine_cls: [_drive_idle_churn(engine_cls())
                         for _ in range(2)]
            for engine_cls in (ReferenceEngine, Engine)}
    orders = [order for pair in runs.values() for order, _ in pair]
    assert orders[0], "the schedule executed nothing"
    assert all(order == orders[0] for order in orders), \
        "the kernels executed the same schedule in different orders"
    reference_s = min(seconds for _, seconds in runs[ReferenceEngine])
    optimized_s = min(seconds for _, seconds in runs[Engine])
    speedup = reference_s / max(optimized_s, 1e-9)
    assert speedup >= 1.5, (
        f"optimized kernel only {speedup:.2f}x faster than the seed "
        f"reference ({reference_s:.3f}s -> {optimized_s:.3f}s)")
