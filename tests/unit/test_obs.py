"""Unit tests for the observability layer (``repro.obs``): recorder
ring semantics, filter parsing, hop classification, span stitching,
Chrome-trace export/validation, monitor counter series, and
timelines."""

import gc
import json

import pytest

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import Message, MsgKind
from repro.obs import (SPAN_STAGES, HealthMonitor, MetricsRegistry,
                       SpanCollector, TraceEvent, TraceFilter, TraceRecorder,
                       format_timeline, hop_class, load_chrome_trace,
                       validate_chrome_trace, write_chrome_trace)
from repro.sim.stats import StatsRegistry
from repro.system import TraceConfig, build_system, scaled_config
from repro.workloads import MICROBENCHMARKS


class FakeEngine:
    def __init__(self):
        self.now = 0
        self.tracer = None


def make_recorder(capacity=16, filter=None):
    return TraceRecorder(FakeEngine(), capacity=capacity, filter=filter)


# ---------------------------------------------------------------------------
# recorder ring
# ---------------------------------------------------------------------------
def test_ring_is_bounded_and_counts_everything():
    recorder = make_recorder(capacity=8)
    for i in range(20):
        recorder.engine.now = i
        recorder.record("l1.state", "cpu0.l1", line=i * 64)
    assert recorder.seen == 20
    assert recorder.kept == 20          # filterless: every event kept...
    assert len(recorder) == 8           # ...but the ring holds only 8
    assert [TraceEvent(*e).ts for e in recorder.events()] == \
        list(range(12, 20))


def test_sinks_see_filtered_out_events():
    filt = TraceFilter.parse(["dev=gpu0.l1"])
    recorder = make_recorder(filter=filt)
    spans = SpanCollector()
    recorder.handlers.update(spans.handlers())
    seen_by_sink = []
    recorder.handlers["l1.state"] = seen_by_sink.append
    recorder.record("l1.issue", "cpu0.l1", None, 0x40, 1, None, 0, None,
                    "load")
    recorder.record("l1.state", "cpu0.l1")
    recorder.record("l1.state", "gpu0.l1")
    recorder.engine.now = 9
    recorder.record("l1.complete", "cpu0.l1", None, 0x40, 1, None, 9,
                    None, "load")
    assert len(seen_by_sink) == 2       # handlers: everything
    assert spans.completed == 1         # (span kinds included)
    assert len(recorder) == 1           # ring: only the match
    assert TraceEvent(*recorder.events()[0]).src == "gpu0.l1"


def test_tail_picks_events_for_implicated_lines():
    recorder = make_recorder(capacity=64)
    for i in range(10):
        recorder.engine.now = i
        recorder.record("home.busy", "llc", line=(i % 2) * 64)
    tail = recorder.tail(3, lines={64})
    assert [e.ts for e in tail] == [5, 7, 9]
    assert all(e.line == 64 for e in tail)
    assert [e.ts for e in recorder.tail(2)] == [8, 9]


@pytest.mark.parametrize("config_name", ("SDD", "HMG"))
def test_ring_events_are_untracked_plain_tuples(config_name):
    """Recorded events are exact tuples of ints, strs and None, so the
    cyclic collector untracks them and stops traversing the ring."""
    system = build_system(scaled_config(config_name, 2, 2,
                                        trace=TraceConfig()))
    system.load_workload(MICROBENCHMARKS["ReuseS"](
        num_cpus=2, num_gpus=2, warps_per_cu=1))
    system.run(max_events=30_000_000)
    gc.collect()
    events = system.tracer.events()
    assert events
    assert not [event for event in events if gc.is_tracked(event)]
    assert {type(event) for event in events} == {tuple}
    assert {type(field) for event in events for field in event} <= \
        {int, str, type(None)}


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------
def test_filter_parse_and_match():
    filt = TraceFilter.parse(["addr=0x1044/dev=cpu0.l1", "class=ReqV"])
    assert filt.lines == frozenset({0x1040})       # line-aligned
    recorder = make_recorder(filter=filt)
    kept = recorder.record("net.send", "cpu0.l1", line=0x1040, cls="ReqV")
    assert filt.matches(kept)
    # wrong line
    assert not filt.matches(
        recorder.record("net.send", "cpu0.l1", line=0x2000, cls="ReqV"))
    # event without a line is dropped when addr= is constrained
    assert not filt.matches(recorder.record("net.send", "cpu0.l1",
                                            cls="ReqV"))
    # dst counts as a device match
    assert filt.matches(recorder.record("net.send", "llc",
                                        dst="cpu0.l1", line=0x1040,
                                        cls="ReqV"))


def test_filter_parse_rejects_bad_specs():
    with pytest.raises(ValueError):
        TraceFilter.parse(["addr"])
    with pytest.raises(ValueError):
        TraceFilter.parse(["color=red"])
    assert TraceFilter.parse([]) is None
    assert TraceFilter.parse(["", " / "]) is None


# ---------------------------------------------------------------------------
# hop classification
# ---------------------------------------------------------------------------
def _msg(kind, src, dst, requestor=None):
    return Message(kind, 0x1000, FULL_LINE_MASK, src=src, dst=dst,
                   requestor=requestor)


def test_hop_classification():
    homes = {"llc", "gpu_l2", "l3"}
    # device request and plain home response: direct
    assert hop_class(_msg(MsgKind.REQ_V, "cpu0.l1", "llc"),
                     homes) == "direct"
    assert hop_class(_msg(MsgKind.RSP_V, "llc", "cpu0.l1"),
                     homes) == "direct"
    # home <-> home: the hierarchical level crossing
    assert hop_class(_msg(MsgKind.GET_S, "gpu_l2", "l3"),
                     homes) == "level"
    assert hop_class(_msg(MsgKind.DATA_E, "l3", "gpu_l2"),
                     homes) == "level"
    # home forwarding on behalf of a requestor: indirection
    assert hop_class(_msg(MsgKind.REQ_V, "llc", "cpu0.l1",
                          requestor="gpu0.l1"), homes) == "fwd"
    assert hop_class(_msg(MsgKind.FWD_GET_S, "l3", "cpu1.l1",
                          requestor="cpu0.l1"), homes) == "fwd"
    # a forward between two home nodes is still the level crossing
    # (both hop classes count as indirection)
    assert hop_class(_msg(MsgKind.FWD_GET_S, "l3", "gpu_l2",
                          requestor="cpu0.l1"), homes) == "level"
    # probes and their acks
    assert hop_class(_msg(MsgKind.INV, "llc", "cpu0.l1"),
                     homes) == "probe"
    assert hop_class(_msg(MsgKind.MESI_INV, "l3", "cpu1.l1"),
                     homes) == "probe"
    assert hop_class(_msg(MsgKind.ACK, "cpu0.l1", "llc"),
                     homes) == "probe"
    assert hop_class(_msg(MsgKind.RSP_RVK_O, "cpu0.l1", "llc"),
                     homes) == "probe"
    # owner answering a forward directly to the requestor
    assert hop_class(_msg(MsgKind.RSP_V, "cpu0.l1", "gpu0.l1"),
                     homes) == "fwd_rsp"
    assert hop_class(_msg(MsgKind.DATA_M, "cpu0.l1", "cpu1.l1"),
                     homes) == "fwd_rsp"


# ---------------------------------------------------------------------------
# span stitching: hop rollup, per-purpose latency, per-origin stages
# ---------------------------------------------------------------------------
def test_profiler_stitches_one_transaction():
    recorder = make_recorder()
    spans = SpanCollector()
    recorder.handlers.update(spans.handlers())
    engine = recorder.engine

    engine.now = 100
    recorder.record("l1.issue", "cpu0.l1", line=0x40, req_id=9,
                    info="load")
    engine.now = 102                                  # 2 cycles of issue
    recorder.record("net.send", "cpu0.l1", dst="llc", line=0x40,
                    req_id=9, cls="ReqS", dur=10, hop="direct")
    engine.now = 112
    recorder.record("home.busy", "llc", line=0x40, req_id=9, dur=12)
    engine.now = 124
    recorder.record("net.send", "llc", dst="cpu1.l1", line=0x40,
                    req_id=9, cls="ReqS", dur=8, hop="fwd")
    engine.now = 132
    recorder.record("net.send", "cpu1.l1", dst="cpu0.l1", line=0x40,
                    req_id=9, cls="ReqS", dur=9, hop="fwd_rsp")
    engine.now = 145
    recorder.record("l1.complete", "cpu0.l1", line=0x40, req_id=9,
                    dur=45, info="load")

    assert spans.completed == 1 and not spans._open
    origin = spans.by_origin["cpu0.l1"]
    assert origin["count"] == 1
    assert origin["total"] == 45
    # exact partition: issue [100,102), flight [102,112), queue
    # [112,124), flight [124,141) (fwd then fwd_rsp), other [141,145)
    assert {stage: origin[stage] for stage in SPAN_STAGES} == {
        "issue": 2, "queue": 12, "flight": 27, "probe": 0,
        "retransmit": 0, "other": 4}
    assert sum(origin[stage] for stage in SPAN_STAGES) == origin["total"]
    assert spans.indirection_cycles() == 8
    assert spans.by_class["ReqS"] == {"direct": 10, "fwd": 8,
                                      "fwd_rsp": 9}
    assert spans.sampler.count("txn.load") == 1
    assert spans.sampler.mean("txn.load") == 45


def test_profiler_attributes_blocked_time():
    recorder = make_recorder()
    spans = SpanCollector()
    recorder.handlers.update(spans.handlers())
    engine = recorder.engine

    recorder.record("l1.issue", "gpu0.l1", line=0x80, req_id=3,
                    info="store")
    engine.now = 20
    recorder.record("home.defer", "llc", line=0x80, req_id=3)
    engine.now = 50
    recorder.record("home.replay", "llc", line=0x80, req_id=3)
    engine.now = 60
    recorder.record("l1.complete", "gpu0.l1", line=0x80, req_id=3,
                    info="store")
    # the defer -> replay window is queue time at the deferring home
    assert spans.by_origin["gpu0.l1"]["queue"] == 30
    assert spans.shard_cycles == {"llc": 30}
    report = spans.format_report("test")
    assert "gpu0.l1" in report and "txn.store" in report


def test_profiler_snapshot_is_json_safe():
    spans = SpanCollector()
    recorder = make_recorder()
    recorder.handlers.update(spans.handlers())
    recorder.record("l1.issue", "cpu0.l1", req_id=1, info="load")
    recorder.engine.now = 7
    recorder.record("l1.complete", "cpu0.l1", req_id=1, info="load")
    snap = json.loads(json.dumps(spans.snapshot()))
    assert snap["completed"] == 1
    assert snap["latency"]["txn.load"]["count"] == 1
    assert snap["by_origin"]["cpu0.l1"]["total"] == 7


# ---------------------------------------------------------------------------
# Chrome export
# ---------------------------------------------------------------------------
def test_chrome_export_round_trip(tmp_path):
    recorder = make_recorder()
    recorder.engine.now = 5
    recorder.record("net.send", "cpu0.l1", dst="llc", line=0x40,
                    req_id=1, cls="ReqV", dur=10, hop="direct",
                    info="ReqV")
    recorder.engine.now = 15
    recorder.record("net.deliver", "cpu0.l1", dst="llc", line=0x40,
                    req_id=1, cls="ReqV")
    path = tmp_path / "trace.json"
    count = write_chrome_trace(str(path), [
        {"name": "SDD", "events": recorder.events(),
         "samples": [{"ts": 10, "counters": {"home.llc.hits": 3.0}}]},
    ])
    loaded = load_chrome_trace(str(path))
    assert validate_chrome_trace(loaded) == []
    assert set(loaded) == {"traceEvents", "displayTimeUnit"}
    events = loaded["traceEvents"]
    assert count == len(events) == 5
    # process metadata first, then thread metadata, spans, instants,
    # and the counter track
    assert events[0] == {"ph": "M", "pid": 0, "name": "process_name",
                         "args": {"name": "SDD"}}
    spans = [e for e in events if e["ph"] == "X"]
    assert spans[0]["dur"] == 10 and spans[0]["ts"] == 5
    assert spans[0]["args"]["hop"] == "direct"
    instants = [e for e in events if e["ph"] == "i"]
    assert instants and instants[0]["s"] == "t"
    counters = [e for e in events if e["ph"] == "C"]
    assert counters == [{"ph": "C", "pid": 0, "name": "home.llc.hits",
                         "ts": 10, "args": {"value": 3.0}}]


def _written(tmp_path, sections):
    """The trace events of ``sections`` after a write/load round trip."""
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), sections)
    return load_chrome_trace(str(path))["traceEvents"]


def test_chrome_events_share_tid_per_component(tmp_path):
    recorder = make_recorder()
    for src in ("cpu0.l1", "llc", "cpu0.l1"):
        recorder.record("l1.state", src)
    # two empty sections first, so this one is rendered as pid 2
    events = _written(tmp_path, [{"events": []}, {"events": []},
                                 {"events": recorder.events()}])[2:]
    assert len(events) == 6          # process + 2 threads + 3 events
    data = [e for e in events if e["ph"] != "M"]
    assert data[0]["tid"] == data[2]["tid"]      # both cpu0.l1
    assert data[0]["tid"] != data[1]["tid"]
    assert all(e["pid"] == 2 for e in events)


def test_validator_flags_backwards_timestamps_and_missing_dur():
    payload = {"traceEvents": [
        {"ph": "X", "pid": 0, "tid": 0, "ts": 10, "name": "a"},
        {"ph": "i", "pid": 0, "tid": 0, "ts": 5, "name": "b", "s": "t"},
    ]}
    problems = validate_chrome_trace(payload)
    assert any("without dur" in p for p in problems)
    assert any("ts 5 < 10" in p for p in problems)
    assert validate_chrome_trace({}) == ["missing traceEvents list"]


# ---------------------------------------------------------------------------
# counter series: the health monitor's scrape rows
# ---------------------------------------------------------------------------
class _QuietSystem:
    """The scrape surface of a system with no homes, L1s or links."""

    class engine:
        events_executed = 0

        @staticmethod
        def pending():
            return 0

        @staticmethod
        def pending_non_idle():
            return 0

    class network:
        @staticmethod
        def links_snapshot():
            return []

    l1s = {}
    homes = ()
    spans = None

    def __init__(self):
        self.stats = StatsRegistry()


def test_metrics_sample_on_epoch_boundaries(tmp_path):
    system = _QuietSystem()
    stats = system.stats
    spans = SpanCollector()
    monitor = HealthMonitor(system, MetricsRegistry(), interval=100)
    recorder = make_recorder()
    recorder.handlers.update(spans.handlers())
    recorder.monitor = monitor
    engine = recorder.engine

    stats.incr("x")
    engine.now = 50
    recorder.record("l1.state", "cpu0.l1")   # before first boundary
    assert not monitor.samples
    engine.now = 130
    recorder.record("l1.state", "cpu0.l1")   # crosses t=100
    stats.incr("x")
    engine.now = 140
    recorder.record("l1.state", "cpu0.l1")   # same epoch: no sample
    engine.now = 460
    recorder.record("l1.state", "cpu0.l1")   # skips empty epochs
    monitor.finalize(500)
    monitor.finalize(500)                     # idempotent
    rows = list(monitor.samples)
    assert [row["ts"] for row in rows] == [130, 460, 500]
    assert [(row["ts"], row["counters"]["x"]) for row in rows] == \
        [(130, 1.0), (460, 2.0), (500, 2.0)]
    # each row renders as one point per counter on a Chrome track
    written = _written(tmp_path, [{"events": []},
                                  {"events": [], "samples": rows}])
    assert [e for e in written if e["ph"] != "M"] == [
        {"ph": "C", "pid": 1, "name": "x", "ts": ts,
         "args": {"value": value}}
        for ts, value in ((130, 1.0), (460, 2.0), (500, 2.0))]
    # diagnostic dumps carry the last row without its counters
    assert "counters" not in monitor.health_summary()["last"]
    snap = json.loads(json.dumps(monitor.snapshot()))
    assert snap["interval"] == 100 and len(snap["samples"]) == 3


# ---------------------------------------------------------------------------
# timelines
# ---------------------------------------------------------------------------
def test_format_timeline_filters_and_limits():
    recorder = make_recorder(capacity=64)
    for i in range(6):
        recorder.engine.now = i
        recorder.record("home.busy", "llc",
                        line=64 * (i % 2), info=f"op{i}")
    text = format_timeline(recorder.events(), line=0x47)
    assert "op1" in text and "op0" not in text    # 0x47 -> line 0x40
    text = format_timeline(recorder.events(), device="llc", limit=2)
    assert "(4 earlier events omitted)" in text
    assert "op5" in text and "op0" not in text
    assert "no matching events" in \
        format_timeline(recorder.events(), device="nosuch")
