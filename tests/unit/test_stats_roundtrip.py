"""Regression tests for the stats layer's snapshot semantics: deep
copies (no live defaultdict ever escapes), exact JSON round-trips, and
the LatencySampler's histogram percentiles."""

import json

from repro.sim.stats import (HISTOGRAM_BUCKETS, LatencySampler,
                             StatsRegistry)


# ---------------------------------------------------------------------------
# StatsRegistry
# ---------------------------------------------------------------------------
def _registry():
    stats = StatsRegistry()
    stats.incr("home.llc.hits", 3)
    stats.set("execution.cycles", 1234)
    stats.incr_group("traffic.bytes", "ReqV", 64)
    stats.incr_group("traffic.bytes", "RspV", 128)
    return stats


def test_snapshot_is_a_deep_copy():
    stats = _registry()
    snap = stats.snapshot()
    snap["counters"]["home.llc.hits"] = 999
    snap["groups"]["traffic.bytes"]["ReqV"] = 999
    snap["groups"]["new"] = {"x": 1}
    assert stats.get("home.llc.hits") == 3
    assert stats.group("traffic.bytes")["ReqV"] == 64
    assert "new" not in list(stats.groups())
    # two snapshots of the same state serialize identically
    assert json.dumps(stats.snapshot(), sort_keys=True) == \
        json.dumps(_registry().snapshot(), sort_keys=True)


def test_snapshot_round_trips_exactly():
    stats = _registry()
    snap = stats.snapshot()
    via_json = json.loads(json.dumps(snap))
    rebuilt = StatsRegistry.from_snapshot(via_json)
    assert rebuilt.snapshot() == snap
    assert rebuilt.counters() == stats.counters()
    assert rebuilt.group("traffic.bytes") == stats.group("traffic.bytes")


def test_format_table_does_not_mutate_registry():
    stats = _registry()
    before = stats.snapshot()
    text = stats.format_table("t")
    assert "home.llc.hits" in text and "traffic.bytes" in text
    assert stats.snapshot() == before


# ---------------------------------------------------------------------------
# LatencySampler
# ---------------------------------------------------------------------------
def test_sampler_percentiles_track_the_tail():
    sampler = LatencySampler()
    for _ in range(99):
        sampler.sample("lat", 10)
    sampler.sample("lat", 1000)
    # p50 lands in the bucket holding 10 ([8, 16) -> upper bound 16)
    assert 10 <= sampler.percentile("lat", 50) <= 16
    # p99 must see the outlier's bucket, clamped to the observed max
    assert sampler.percentile("lat", 99.5) == 1000
    snap = sampler.snapshot()["lat"]
    assert sampler.percentile("lat", 0) >= snap["min"] == 10
    assert snap["count"] == 100 and snap["max"] == 1000
    assert sampler.percentile("lat", 50) <= sampler.percentile("lat", 95) \
        <= sampler.percentile("lat", 99)


def test_sampler_percentile_exact_for_single_bucket():
    sampler = LatencySampler()
    for _ in range(7):
        sampler.sample("x", 42)
    for p in (1, 50, 95, 99, 100):
        assert sampler.percentile("x", p) == 42
    assert sampler.percentile("missing", 50) == 0.0


def test_sampler_snapshot_round_trips_exactly():
    sampler = LatencySampler()
    for value in (0, 1, 2, 3.5, 1000, 2 ** 50):
        sampler.sample("lat", value)
    snap = sampler.snapshot()
    assert json.loads(json.dumps(snap)) == snap
    # huge values clamp into the last bucket
    assert max(int(b) for b in snap["lat"]["hist"]) \
        == HISTOGRAM_BUCKETS - 1
