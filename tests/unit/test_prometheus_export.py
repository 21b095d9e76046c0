"""Prometheus text-exposition exporter vs the validating parser, JSON
snapshot round-trips, and the empty-trace validator pin."""

import json

import pytest

from repro.obs import (MetricsRegistry, parse_prometheus_text,
                       prometheus_text, registry_samples,
                       sanitize_metric_name, stats_samples,
                       validate_chrome_trace)
from repro.obs.prometheus import escape_label_value
from repro.sim.stats import StatsRegistry


# ---------------------------------------------------------------------------
# name + escaping
# ---------------------------------------------------------------------------
def test_sanitize_metric_name():
    assert sanitize_metric_name("home.queue_depth") == \
        "repro_home_queue_depth"
    assert sanitize_metric_name("a.b.c") == "repro_a_b_c"
    with pytest.raises(ValueError):
        sanitize_metric_name("bad name")


def test_label_value_escaping_round_trips_through_parser():
    nasty = {
        "plain": "llc0",
        "quote": 'say "hi"',
        "backslash": "a\\b",
        "newline": "two\nlines",
        "brace": "a}b{c",          # embedded } must not end the body
        "mixed": 'x\\"y\nz}',
    }
    registry = MetricsRegistry()
    for key, value in nasty.items():
        registry.gauge("esc.check", labels={"case": key,
                                            "payload": value}).set(1)
    text = prometheus_text(registry_samples(registry))
    parsed = parse_prometheus_text(text)
    recovered = {labels["case"]: labels["payload"]
                 for name, labels, _ in parsed
                 if name == "repro_esc_check"}
    assert recovered == nasty


def test_escape_label_value_is_exposition_compliant():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"


# ---------------------------------------------------------------------------
# exposition rendering
# ---------------------------------------------------------------------------
def test_exposition_families_and_series():
    stats = StatsRegistry()
    stats.incr_group("req.count", "llc0", 3)
    stats.incr_group("req.count", "llc1", 4)
    registry = MetricsRegistry()
    gauge = registry.gauge("queue.depth", help="depth")
    gauge.set(9)
    gauge.set(2)
    registry.gauge("link.depth", labels={"src": "a", "dst": "b"}).set(1)
    text = prometheus_text(stats_samples(stats)
                           + registry_samples(registry))

    assert text.count("# TYPE repro_req_count counter") == 1
    assert 'repro_req_count{key="llc0"} 3' in text
    assert 'repro_req_count{key="llc1"} 4' in text
    assert text.count("# TYPE repro_queue_depth gauge") == 1
    # gauges also expose their high-water series
    assert "repro_queue_depth 2" in text
    assert "repro_queue_depth_high_water 9" in text
    assert 'repro_link_depth_high_water{dst="b",src="a"} 1' in text
    parsed = parse_prometheus_text(text)
    assert len(parsed) == 2 + 2 * 2


def test_stats_samples_flatten_groups_into_label_dimension():
    stats = StatsRegistry()
    stats.incr("l1.hits", 5)
    stats.incr_group("dir.state", "M", 2)
    stats.incr_group("dir.state", "S", 7)
    text = prometheus_text(stats_samples(stats))
    parsed = dict(((name, tuple(sorted(labels.items()))), value)
                  for name, labels, value in parse_prometheus_text(text))
    assert parsed[("repro_l1_hits", ())] == 5.0
    assert parsed[("repro_dir_state", (("key", "M"),))] == 2.0
    assert parsed[("repro_dir_state", (("key", "S"),))] == 7.0


# ---------------------------------------------------------------------------
# parser strictness
# ---------------------------------------------------------------------------
def test_parser_rejects_malformed_input():
    for bad in (
        "1bad_name 3\n",                          # name grammar
        'metric{key="unterminated} 3\n',          # unbalanced quote
        'metric{key="x",key="y"} 3\n',            # duplicate label
        'metric{key="a\\qb"} 3\n',                # bad escape
        "metric notanumber\n",                    # bad value
        "# TYPE m counter\n# TYPE m gauge\nm 1\n",  # re-declared TYPE
        "# TYPE m frobnicator\nm 1\n",            # unknown kind
    ):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)


def test_parser_accepts_comments_blanks_and_infinities():
    parsed = parse_prometheus_text(
        "# HELP m help text\n"
        "# TYPE m gauge\n"
        "\n"
        "m +Inf\n"
        "m2 -Inf\n"
        "m3 2.5\n")
    assert parsed[0][2] == float("inf")
    assert parsed[1][2] == float("-inf")
    assert parsed[2] == ("m3", {}, 2.5)


# ---------------------------------------------------------------------------
# JSON snapshot round-trip
# ---------------------------------------------------------------------------
def test_registry_snapshot_survives_json_round_trip():
    registry = MetricsRegistry()
    registry.gauge("a.level", labels={"x": "1"}).set(2)
    registry.gauge("a.gauge").set(3.5)
    snapshot = registry.snapshot()
    rehydrated = json.loads(json.dumps(snapshot))
    assert rehydrated == snapshot
    # and rendering the rehydrated samples still produces valid text
    text = prometheus_text(rehydrated["metrics"])
    assert parse_prometheus_text(text)


# ---------------------------------------------------------------------------
# chrome-trace validator pin
# ---------------------------------------------------------------------------
def test_validate_chrome_trace_accepts_empty_trace():
    assert validate_chrome_trace({"traceEvents": []}) == []
