"""Regression tests for the stats layer's snapshot semantics: deep
copies (no live defaultdict ever escapes), exact JSON round-trips, and
the LatencySampler's histogram percentiles and exact merges."""

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
    assert sampler.percentile("lat", 0) >= sampler.minimum("lat")
    summary = sampler.summary("lat")
    assert summary["count"] == 100 and summary["max"] == 1000
    assert summary["p50"] <= summary["p95"] <= summary["p99"]


def test_sampler_percentile_exact_for_single_bucket():
    sampler = LatencySampler()
    for _ in range(7):
        sampler.sample("x", 42)
    for p in (1, 50, 95, 99, 100):
        assert sampler.percentile("x", p) == 42
    assert sampler.percentile("missing", 50) == 0.0


def test_sampler_merge_is_exact():
    left, right, combined = (LatencySampler() for _ in range(3))
    for value in (1, 5, 9, 200):
        left.sample("lat", value)
        combined.sample("lat", value)
    for value in (3, 7, 100000):
        right.sample("lat", value)
        combined.sample("lat", value)
    right.sample("other", 2)
    combined.sample("other", 2)
    left.merge(right)
    assert left.snapshot() == combined.snapshot()
    for p in (50, 95, 99):
        assert left.percentile("lat", p) == combined.percentile("lat", p)


def test_sampler_snapshot_round_trips_exactly():
    sampler = LatencySampler()
    for value in (0, 1, 2, 3.5, 1000, 2 ** 50):
        sampler.sample("lat", value)
    snap = sampler.snapshot()
    via_json = json.loads(json.dumps(snap))
    rebuilt = LatencySampler.from_snapshot(via_json)
    assert rebuilt.snapshot() == snap
    assert rebuilt.percentile("lat", 99) == sampler.percentile("lat", 99)
    # huge values clamp into the last bucket
    assert max(int(b) for b in snap["lat"]["hist"]) \
        == HISTOGRAM_BUCKETS - 1


def test_sampler_accepts_legacy_snapshot_format():
    rebuilt = LatencySampler.from_snapshot(
        {"lat": [4, 100.0, 10.0, 40.0]})
    assert rebuilt.count("lat") == 4
    assert rebuilt.mean("lat") == 25.0
    # no histogram: percentile degrades to the observed max
    assert rebuilt.percentile("lat", 50) == 40.0
