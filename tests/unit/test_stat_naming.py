"""Dotted stat-name scheme: per-shard canonical names, build-time
collision detection, and no legacy ``llc.*`` / ``l2.*`` names."""

import pytest

from repro.sim.stats import (MetricNameError, StatsRegistry,
                             validate_metric_name)
from repro.system import (CONFIG_ORDER, TraceConfig, WatchdogConfig,
                          build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS


# ---------------------------------------------------------------------------
# grammar + scoping
# ---------------------------------------------------------------------------
def test_grammar_accepts_canonical_names():
    for name in ("l1.hits", "home.llc0.fills", "transport.retransmits",
                 "a", "a1.b_2.c"):
        assert validate_metric_name(name) == name


def test_grammar_rejects_violations():
    for bad in ("Llc.hits", "1a.b", "a..b", "a.", ".a", "a-b", "a b",
                ""):
        with pytest.raises(MetricNameError):
            validate_metric_name(bad)


def test_scoped_writes_only_the_canonical_name():
    registry = StatsRegistry()
    scope = registry.scoped("home.llc0")
    scope.incr("fills", 3)
    scope.incr_group("traffic", "req", 2)
    assert registry.counters() == {"home.llc0.fills": 3}
    assert registry.group("home.llc0.traffic") == {"req": 2}
    assert list(registry.groups()) == ["home.llc0.traffic"]


def test_shard_scopes_count_independently():
    registry = StatsRegistry()
    registry.scoped("home.llc0").incr("fills", 3)
    registry.scoped("home.llc1").incr("fills", 4)
    registry.scoped("network").incr("fills", 5)
    assert registry.counters() == {"home.llc0.fills": 3,
                                   "home.llc1.fills": 4,
                                   "network.fills": 5}
    # the cross-home total readers such as the CLI summary line use
    assert registry.home_total("fills") == 7


def test_duplicate_scope_prefix_raises_at_build_time():
    registry = StatsRegistry()
    registry.scoped("home.llc0")
    with pytest.raises(MetricNameError):
        registry.scoped("home.llc0")


def test_scope_prefix_grammar_enforced():
    registry = StatsRegistry()
    with pytest.raises(MetricNameError):
        registry.scoped("Home.LLC0")
    with pytest.raises(MetricNameError):
        registry.scoped("home.llc0").incr("Fills")


# ---------------------------------------------------------------------------
# end-to-end: only canonical home names, on every configuration
# ---------------------------------------------------------------------------
def _run(config_name, **overrides):
    system = build_system(scaled_config(
        config_name, 2, 2, watchdog=WatchdogConfig(stall_cycles=200_000),
        **overrides))
    system.load_workload(MICROBENCHMARKS["ReuseS"](
        num_cpus=2, num_gpus=2, warps_per_cu=1))
    system.run(max_events=30_000_000)
    return system


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_no_config_emits_legacy_home_names(config_name):
    system = _run(config_name)
    stats = system.stats
    names = list(stats.counters()) + list(stats.groups())
    assert not [name for name in names
                if name.split(".", 1)[0] in ("llc", "l2")]
    homes = {f"home.{home.name}" for home in system.llcs}
    if system.gpu_l2 is not None:
        homes.add("home.gpu_l2")
    assert homes <= set(stats.scopes())
    # every home reports its own traffic under its own scope
    for home in homes:
        assert stats.group_total(f"{home}.requests") > 0, home


def test_gpu_l2_upstream_counters_live_in_its_home_scope():
    counters = _run("HMG").stats.counters()
    upstream = [name for name in counters
                if name.startswith("home.gpu_l2.upstream_")]
    assert upstream
    assert not [name for name in counters if "upstream_" in name
                and not name.startswith("home.gpu_l2.")]


def test_sharded_run_emits_only_canonical_home_names():
    system = _run("SDD", llc_shards=2, trace=TraceConfig())
    counters = system.stats.counters()
    shard_prefixes = [f"home.{home.name}." for home in system.llcs]
    assert len(shard_prefixes) == 2
    home_names = [name for name in counters if name.startswith("home.")]
    assert home_names, "sharded run emitted no home.<shard>.* counters"
    assert all(name.startswith(tuple(shard_prefixes))
               for name in home_names)
    # every emitted name satisfies the registry grammar
    for name in counters:
        validate_metric_name(name)
