"""MetricsRegistry gauges, name grammar, and HealthMonitor
sampling behaviour."""

import json

import pytest

from repro.obs import (Gauge, HealthMonitor, MetricsRegistry,
                       SpanCollector, TraceRecorder, format_health)
from repro.sim.stats import MetricNameError, StatsRegistry
from repro.system import (TraceConfig, WatchdogConfig, build_system,
                          scaled_config)
from repro.workloads import MICROBENCHMARKS


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_instrument_kinds_and_values():
    registry = MetricsRegistry()
    gauge = registry.gauge("a.level", help="things", unit="things")
    assert isinstance(gauge, Gauge) and gauge.kind == "gauge"
    gauge.set(7)
    gauge.set(3)
    assert gauge.value == 3 and gauge.high_water == 7
    (sample,) = registry.collect()
    assert sample == {"name": "a.level", "kind": "gauge",
                      "help": "things", "unit": "things", "labels": {},
                      "value": 3.0, "high_water": 7.0}


def test_registration_is_idempotent_per_name_and_labels():
    registry = MetricsRegistry()
    first = registry.gauge("x.y", labels={"shard": "llc0"})
    again = registry.gauge("x.y", labels={"shard": "llc0"})
    assert first is again
    other = registry.gauge("x.y", labels={"shard": "llc1"})
    assert other is not first
    assert len(registry.instruments()) == 2


def test_name_grammar_enforced():
    registry = MetricsRegistry()
    for bad in ("Upper.case", "1starts.with.digit", "trailing.",
                "sp ace", "dash-es.allowed", ""):
        with pytest.raises(MetricNameError):
            registry.gauge(bad)
    with pytest.raises(MetricNameError):
        registry.gauge("ok.name", labels={"BadLabel": "v"})


def test_snapshot_json_round_trip_exact():
    registry = MetricsRegistry()
    registry.gauge("a.b", labels={"k": "v"}).set(3)
    registry.gauge("a.g").set(1.5)
    snapshot = registry.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot


# ---------------------------------------------------------------------------
# health monitor
# ---------------------------------------------------------------------------
def _monitored_system(**overrides):
    config = scaled_config(
        "SDD", 2, 2, watchdog=WatchdogConfig(stall_cycles=200_000),
        trace=TraceConfig(monitor_interval=1000), **overrides)
    system = build_system(config)
    workload = MICROBENCHMARKS["ReuseS"](num_cpus=2, num_gpus=2,
                                         warps_per_cu=1)
    system.load_workload(workload)
    return system


def test_monitor_samples_on_interval_boundaries():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    monitor = system.monitor
    assert monitor.scrapes == len(monitor.samples)
    assert monitor.scrapes > 1
    stamps = [row["ts"] for row in monitor.samples]
    assert stamps == sorted(stamps)
    # one scrape per interval window at most
    assert len({ts // 1000 for ts in stamps[:-1]}) == len(stamps) - 1


def test_monitor_rows_cover_every_surface():
    system = _monitored_system(llc_shards=2)
    system.run(max_events=30_000_000)
    row = system.monitor.samples[-1]
    home_names = {home.name for home in system.llcs}
    if system.gpu_l2 is not None:
        home_names.add(system.gpu_l2.name)
    assert set(row["homes"]) == home_names
    assert len(system.llcs) == 2
    l1_names = {l1.name for l1 in system.l1s.values()}
    assert set(row["mshr"]) == l1_names and len(l1_names) == 4
    assert row["engine"]["events"] == system.engine.events_executed
    for entry in row["mshr"].values():
        assert entry["capacity"] >= entry["high_water"] >= 1


def test_monitor_engine_events_are_current_mid_run():
    # Regression: the engine booked its executed count only when run()
    # returned, so every mid-run row read 0 events and the last window
    # absorbed the whole run (a bogus ~107 events/cycle peak gauge).
    system = _monitored_system()
    system.run(max_events=30_000_000)
    rows = list(system.monitor.samples)
    events = [row["engine"]["events"] for row in rows]
    assert len(events) > 2
    assert all(a < b for a, b in zip(events, events[1:]))
    assert events[-1] == system.engine.events_executed
    peak = system.monitor.health_summary()["peaks"][
        "engine.events_per_cycle"]
    assert peak == pytest.approx(
        max(row["engine"]["events_per_cycle"] for row in rows), abs=1e-4)
    assert peak < 10


def test_mshr_high_water_tracks_peak_occupancy():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    for l1 in system.l1s.values():
        assert l1.mshrs.high_water >= 1
        assert l1.mshrs.high_water <= l1.mshrs.capacity
        assert len(l1.mshrs) == 0      # drained at quiescence


def test_finalize_is_idempotent():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    scrapes = system.monitor.scrapes
    system.monitor.finalize(system.engine.now)
    assert system.monitor.scrapes == scrapes


def test_on_sample_callbacks_fire_per_scrape():
    system = _monitored_system()
    rows = []
    system.monitor.on_sample.append(rows.append)
    system.run(max_events=30_000_000)
    assert len(rows) == system.monitor.scrapes


def test_monitor_gauge_high_water_is_whole_run_peak():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    peak = max(gauge.high_water
               for gauge in system.registry.instruments()
               if gauge.name == "mshr.high_water")
    direct = max(l1.mshrs.high_water
                 for l1 in system.l1s.values())
    assert peak == direct


def test_health_summary_and_format():
    system = _monitored_system()
    system.run(max_events=30_000_000)
    summary = system.monitor.health_summary()
    assert summary["scrapes"] == system.monitor.scrapes
    assert summary["peaks"]
    assert "critical_path" in summary
    # the last row's counter snapshot stays out of diagnostic dumps
    assert "counters" in system.monitor.samples[-1]
    assert "counters" not in summary["last"]
    assert json.loads(json.dumps(summary)) == summary
    text = format_health(system.monitor)
    assert "== health @ cycle" in text
    assert "engine:" in text


def test_monitor_ignores_events_before_interval():
    registry = MetricsRegistry()

    class _Engine:
        events_executed = 10
        def pending(self):
            return 0
        def pending_non_idle(self):
            return 0

    class _Network:
        def links_snapshot(self):
            return []

    class _System:
        engine = _Engine()
        network = _Network()
        stats = StatsRegistry()
        l1s = {}
        homes = ()
        spans = None

    system = _System()      # the monitor refers to its system weakly
    monitor = HealthMonitor(system, registry, interval=100)
    recorder = TraceRecorder(_Engine())
    recorder.handlers.update(SpanCollector().handlers())
    recorder.monitor = monitor
    recorder.engine.now = 5
    recorder.record("net.send", "a")
    assert monitor.scrapes == 0
    recorder.engine.now = 100
    recorder.record("net.send", "a")
    assert monitor.scrapes == 1
    recorder.engine.now = 150
    recorder.record("net.send", "a")
    assert monitor.scrapes == 1
    recorder.engine.now = 205
    recorder.record("net.send", "a")
    assert monitor.scrapes == 2
    monitor.finalize(300)
    assert monitor.scrapes == 3
