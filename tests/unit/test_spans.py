"""Span-tree builder and exact-partition critical-path decomposition,
driven with synthetic trace-event streams."""

import json

from repro.obs import (SPAN_STAGES, SpanCollector, TraceEvent,
                       TraceRecorder, decompose)


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------
def test_decompose_partitions_exactly():
    #  0        10        25   35        55   65           100
    #  |-issue--|--queue--|    |-flight--|    |-retransmit-|->
    # flight [30, 45) overlaps queue's tail?  no — craft overlaps:
    intervals = [
        ("issue", 0, 10, "cpu0.l1"),
        ("queue", 10, 35, "llc0"),
        ("flight", 30, 45, "a->b"),          # tail under queue loses
        ("probe", 40, 55, "b->c"),           # beats flight on [40,45)
        ("retransmit", 50, 65, "a->b"),      # beats probe on [50,55)
    ]
    stages, segments = decompose(0, 100, intervals)
    assert stages == {"issue": 10, "queue": 25, "flight": 5,
                      "probe": 10, "retransmit": 15, "other": 35}
    assert sum(stages.values()) == 100
    # segments tile [0, 100) without gap or overlap
    assert segments[0][1] == 0 and segments[-1][2] == 100
    for left, right in zip(segments, segments[1:]):
        assert left[2] == right[1]
    # overlap resolution: queue wins over flight on [30, 35)
    assert ("queue", 10, 35, "llc0") in segments
    assert ("flight", 35, 40, "a->b") in segments
    assert ("retransmit", 50, 65, "a->b") in segments


def test_decompose_clips_to_window_and_handles_empty():
    stages, segments = decompose(10, 20, [("flight", 0, 100, "x->y")])
    assert stages["flight"] == 10 and sum(stages.values()) == 10
    assert segments == [("flight", 10, 20, "x->y")]

    stages, segments = decompose(5, 5, [("queue", 0, 10, "llc")])
    assert sum(stages.values()) == 0 and segments == []


def test_decompose_merges_adjacent_same_stage_segments():
    intervals = [("flight", 0, 10, "a->b"), ("flight", 10, 20, "a->b")]
    stages, segments = decompose(0, 20, intervals)
    assert stages["flight"] == 20
    assert segments == [("flight", 0, 20, "a->b")]


# ---------------------------------------------------------------------------
# collector
# ---------------------------------------------------------------------------
class _Clock:
    now = 0


def drive(collector, events):
    """Feed ``events`` through a recorder that dispatches to the
    collector's handler table, each at its own timestamp."""
    recorder = TraceRecorder(_Clock())
    recorder.handlers.update(collector.handlers())
    for event in events:
        recorder.engine.now = event[0]
        recorder.record(*event[1:])
    return recorder


def test_collector_builds_exact_span():
    spans = SpanCollector(top_k=4)
    drive(spans, [
        TraceEvent(0, "l1.issue", "cpu0.l1", line=0x40, req_id=1,
                   info="GetO"),
        TraceEvent(8, "net.send", "cpu0.l1", dst="llc0", req_id=1,
                   dur=12),
        TraceEvent(20, "home.busy", "llc0", req_id=1, dur=6),
        TraceEvent(26, "net.send", "llc0", dst="cpu0.l1", req_id=1,
                   dur=12),
        TraceEvent(40, "l1.complete", "cpu0.l1", req_id=1),
    ])
    assert spans.completed == 1 and not spans._open
    (record,) = spans.recent
    assert record["total"] == 40
    assert record["stages"] == {"issue": 8, "queue": 6, "flight": 24,
                                "probe": 0, "retransmit": 0, "other": 2}
    assert sum(record["stages"].values()) == record["total"]
    assert spans.shard_cycles == {"llc0": 6}
    assert spans.link_cycles == {"cpu0.l1->llc0": 12,
                                 "llc0->cpu0.l1": 12}
    # contention on the line = queue + retransmit + probe
    assert spans.line_cycles == {0x40: 6}


def test_collector_probe_defer_and_retransmit_attribution():
    spans = SpanCollector(top_k=4)
    drive(spans, [
        TraceEvent(0, "l1.issue", "gpu0.l1", line=0x80, req_id=7,
                   info="GetV"),
        TraceEvent(4, "net.send", "gpu0.l1", dst="llc0", req_id=7,
                   dur=10),
        TraceEvent(14, "home.defer", "llc0", req_id=7),
        TraceEvent(30, "home.replay", "llc0", req_id=7),
        # probe fan-out wins over plain flight on overlap
        TraceEvent(30, "net.send", "llc0", dst="cpu0.l1", req_id=7,
                   dur=8, hop="probe"),
        # retransmit instant at 50; the 12-cycle RTO wait precedes it
        TraceEvent(50, "transport.retx", "llc0", dst="gpu0.l1",
                   req_id=7, dur=12),
        TraceEvent(50, "net.send", "llc0", dst="gpu0.l1", req_id=7,
                   dur=10),
        TraceEvent(60, "l1.complete", "gpu0.l1", req_id=7),
    ])
    (record,) = spans.recent
    assert record["stages"] == {"issue": 4, "queue": 16, "flight": 20,
                                "probe": 8, "retransmit": 12,
                                "other": 0}
    assert sum(record["stages"].values()) == 60
    assert spans.shard_cycles == {"llc0": 16}
    assert spans.link_cycles == {"gpu0.l1->llc0": 10,
                                 "llc0->cpu0.l1": 8,
                                 "llc0->gpu0.l1": 22}
    assert spans.line_cycles == {0x80: 16 + 8 + 12}


def test_orphan_events_are_ignored():
    spans = SpanCollector()
    drive(spans, [
        TraceEvent(5, "net.send", "cpu0.l1", dst="llc0", req_id=99,
                   dur=10),
        TraceEvent(9, "home.busy", "llc0", req_id=99, dur=3),
        TraceEvent(12, "transport.retx", "llc0", dst="cpu0.l1",
                   req_id=99, dur=4),
        TraceEvent(20, "l1.complete", "cpu0.l1", req_id=99),
    ])
    assert spans.completed == 0
    assert not spans._open and not spans.recent


def test_top_k_rollups_rank_by_cycles():
    spans = SpanCollector(top_k=2)
    for index, (line, queue_cycles) in enumerate(
            [(0x100, 30), (0x200, 20), (0x300, 10)]):
        req = index + 1
        home = f"llc{index}"
        base = index * 1000
        drive(spans, [
            TraceEvent(base, "l1.issue", "cpu0.l1", line=line,
                       req_id=req, info="GetO"),
            TraceEvent(base + 1, "net.send", "cpu0.l1", dst=home,
                       req_id=req, dur=2),
            TraceEvent(base + 3, "home.busy", home, req_id=req,
                       dur=queue_cycles),
            TraceEvent(base + 3 + queue_cycles, "l1.complete",
                       "cpu0.l1", req_id=req),
        ])
    assert spans.top_lines() == [(0x100, 30.0), (0x200, 20.0)]
    assert spans.top_shards() == [("llc0", 30.0), ("llc1", 20.0)]
    assert spans.top_shards(3) == [("llc0", 30.0), ("llc1", 20.0),
                                   ("llc2", 10.0)]
    # slowest table is bounded by top_k and sorted by latency
    assert len(spans.slowest) == 2
    assert [r["total"] for r in spans.slowest] == [33.0, 23.0]


def test_snapshot_is_json_round_trip_exact():
    spans = SpanCollector(top_k=2)
    drive(spans, [
        TraceEvent(0, "l1.issue", "cpu0.l1", line=0xabc0, req_id=3,
                   info="GetS"),
        TraceEvent(2, "net.send", "cpu0.l1", dst="llc0", req_id=3,
                   dur=5),
        TraceEvent(7, "home.busy", "llc0", req_id=3, dur=4),
        TraceEvent(11, "l1.complete", "cpu0.l1", req_id=3),
    ])
    snapshot = spans.snapshot()
    assert json.loads(json.dumps(snapshot)) == snapshot
    assert snapshot["completed"] == 1
    assert snapshot["top_lines"] == [["0xabc0", 4.0]]


def test_format_span_and_report_smoke():
    spans = SpanCollector(top_k=2)
    drive(spans, [
        TraceEvent(0, "l1.issue", "cpu0.l1", line=0x40, req_id=1,
                   info="GetO"),
        TraceEvent(4, "net.send", "cpu0.l1", dst="llc0", req_id=1,
                   dur=10),
        TraceEvent(20, "l1.complete", "cpu0.l1", req_id=1),
    ])
    text = spans.format_span(spans.recent[0])
    assert "req 1 GetO cpu0.l1 line 0x40" in text
    assert "issue" in text and "flight" in text
    report = spans.format_report("unit test")
    assert report.startswith("== unit test ==")
    for stage in SPAN_STAGES:
        assert stage in report
    assert "slowest requests:" in report
    # empty collector renders without the stage table
    assert SpanCollector().format_report().count("\n") == 1
