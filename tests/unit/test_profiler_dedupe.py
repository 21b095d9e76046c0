"""Regression: transport retransmissions must not inflate the span
collector's traffic-class x hop-class flight rollup.

Each retransmission is a genuine ``net.send`` carrying the *same*
``rseq`` on its (src, dst) channel.  Before the per-channel watermark
dedupe, every retransmission re-accrued its flight time into
``by_class`` (and so into the indirection cycles), so lossy runs
reported inflated network cycles.  The critical-path partition is
unaffected: a retransmitted flight really is on the request's path."""

from repro.obs import SpanCollector, TraceEvent
from tests.unit.test_spans import drive


def _events(*specs):
    return [TraceEvent(*args, **kwargs) for args, kwargs in specs]


def test_duplicate_rseq_send_is_suppressed():
    spans = SpanCollector()
    drive(spans, _events(
        ((0, "l1.issue", "cpu0.l1"), dict(line=0x40, req_id=1,
                                          info="GetO")),
        ((4, "net.send", "cpu0.l1"), dict(dst="llc", req_id=1,
                                          cls="req", dur=10, rseq=0)),
        # the transport retransmits the same sequence number
        ((40, "net.send", "cpu0.l1"), dict(dst="llc", req_id=1,
                                           cls="req", dur=10, rseq=0)),
        ((80, "net.send", "cpu0.l1"), dict(dst="llc", req_id=1,
                                           cls="req", dur=10, rseq=0)),
        ((100, "l1.complete", "cpu0.l1"), dict(req_id=1)),
    ))
    assert spans.by_class["req"]["direct"] == 10       # not 30
    assert spans.retx_suppressed == 2
    assert spans.retx_flight_cycles == 20
    snapshot = spans.snapshot()
    assert snapshot["retx_suppressed"] == 2
    assert snapshot["retx_flight_cycles"] == 20.0
    # the request still decomposes exactly over its whole lifetime
    (record,) = spans.recent
    assert sum(record["stages"].values()) == record["total"] == 100
    assert "retransmitted sends excluded: 2 (20 flight cycles)" \
        in spans.format_report()


def test_increasing_rseq_advances_the_watermark():
    spans = SpanCollector()
    drive(spans, _events(
        ((0, "net.send", "a"), dict(dst="b", cls="req", dur=5, rseq=0)),
        ((9, "net.send", "a"), dict(dst="b", cls="req", dur=5, rseq=1)),
        ((18, "net.send", "a"), dict(dst="b", cls="req", dur=5,
                                     rseq=2)),
    ))
    assert spans.by_class["req"]["direct"] == 15
    assert spans.retx_suppressed == 0


def test_watermark_is_per_channel():
    spans = SpanCollector()
    # rseq 0 on two different channels: both are first sends
    drive(spans, _events(
        ((0, "net.send", "a"), dict(dst="b", cls="req", dur=5, rseq=0)),
        ((0, "net.send", "b"), dict(dst="a", cls="rsp", dur=7, rseq=0)),
        # reverse-direction retransmission is still caught
        ((30, "net.send", "b"), dict(dst="a", cls="rsp", dur=7,
                                     rseq=0)),
    ))
    assert spans.by_class["req"]["direct"] == 5
    assert spans.by_class["rsp"]["direct"] == 7
    assert spans.retx_suppressed == 1
    assert spans.retx_flight_cycles == 7


def test_unsequenced_sends_are_never_suppressed():
    spans = SpanCollector()
    # reliable-network runs carry no rseq; identical sends all count
    drive(spans, _events(
        ((0, "net.send", "a"), dict(dst="b", cls="req", dur=5)),
        ((9, "net.send", "a"), dict(dst="b", cls="req", dur=5)),
    ))
    assert spans.by_class["req"]["direct"] == 10
    assert spans.retx_suppressed == 0


def test_wire_duplicates_never_reach_the_send_path():
    spans = SpanCollector()
    drive(spans, _events(
        ((0, "net.send", "a"), dict(dst="b", cls="req", dur=5, rseq=0)),
        # a fault-injected wire duplicate is traced as net.dup, which
        # must not touch flight attribution or the watermark
        ((12, "net.dup", "a"), dict(dst="b", cls="req", dur=5, rseq=0)),
    ))
    assert spans.by_class["req"]["direct"] == 5
    assert spans.retx_suppressed == 0
    assert spans.retx_flight_cycles == 0
