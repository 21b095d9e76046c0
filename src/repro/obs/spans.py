"""Span trees, cross-shard critical-path attribution, and hop rollups.

:class:`SpanCollector` installs a handler per span event kind in the
:class:`~repro.obs.trace.TraceRecorder` (:meth:`~SpanCollector.
handlers`).  It stitches those events into a causal per-request span
tree (issue -> shard-indirected hops -> probe fan-out -> transport
retransmissions -> completion), keyed by ``req_id`` (globally unique
per request and preserved across forwards and responses), and
decomposes each request's end-to-end latency into an **exact
partition** of wall-clock stages:

``issue``
    from ``l1.issue`` until the request's first wire hop.
``queue``
    covered by home occupancy (``home.busy``) or a defer->replay
    window — the shard-contention component.
``flight``
    covered by a direct / forwarded / response hop in flight.
``probe``
    covered by invalidation / revocation fan-out flight.
``retransmit``
    the RTO wait that preceded a transport retransmission.
``other``
    wall-clock time covered by none of the above (device-side
    bookkeeping, L2 hits under the L1, ...).

The decomposition sweeps the elementary segments between interval
boundaries and assigns each segment to the *highest-priority* active
interval (retransmit > queue > probe > flight > issue), so the stage
values sum to the end-to-end latency **exactly** — no double counting
of overlapped hops, no residual clamp.

Each interval carries a resource tag (home name for queue time, the
``(src, dst)`` link for flight/probe/retransmit), and each request a
line address, so critical-path cycles roll up into top-K contended
lines, shards, and links — the live monitor and the diagnostic health
summary both read those tables.  Completed requests also roll up per
originating device (``by_origin``) and feed per-purpose end-to-end
latency percentiles (``sampler``, labels ``txn.<purpose>``).

Independently of any span, every ``net.send`` is booked into a
traffic-class x hop-class flight rollup (``by_class``), whether or not
it belongs to an open request; :meth:`SpanCollector.
indirection_cycles` sums its ``fwd`` and ``level`` hops — the paper's
Figure 1 indirection cost.  On an unreliable fabric each transport
retransmission is a genuine ``net.send`` carrying the *same* ``rseq``;
the rollup counts each sequence number once per channel (a per-(src,
dst) high-water mark — first sends stamp strictly increasing sequence
numbers) and books repeats as ``retx_flight_cycles`` instead.
``net.dup`` wire duplicates never reach the send path.

The collector is passive: it never schedules engine events, so runs
are bit-identical with tracing on or off.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.stats import LatencySampler
from .trace import INDIRECTION_HOPS

#: exact-partition stages, in report order
SPAN_STAGES = ("issue", "queue", "flight", "probe", "retransmit",
               "other")

#: which active interval wins an overlapped segment (higher wins);
#: "other" is the absence of any interval
_PRIORITY = {"retransmit": 5, "queue": 4, "probe": 3, "flight": 2,
             "issue": 1}

_STAGE_ZERO = {stage: 0.0 for stage in SPAN_STAGES}
_BY_START = itemgetter(1, 2)


class _OpenSpan:
    __slots__ = ("origin", "line", "purpose", "start", "first_send",
                 "intervals", "defer_starts")

    def __init__(self, origin: str, line: Optional[int], purpose: str,
                 start: int):
        self.origin = origin
        self.line = line
        self.purpose = purpose
        self.start = start
        self.first_send: Optional[int] = None
        #: (stage, t0, t1, resource) — resource is a home name for
        #: queue, "src->dst" for wire stages, origin for issue
        self.intervals: List[Tuple[str, int, int, str]] = []
        self.defer_starts: List[Tuple[int, str]] = []


def decompose(start: int, end: int,
              intervals: List[Tuple[str, int, int, str]]
              ) -> Tuple[Dict[str, float], List[Tuple[str, int, int,
                                                      str]]]:
    """Exact-partition [start, end) across prioritized intervals.

    Returns ``(stages, segments)``: per-stage totals summing to
    ``end - start`` exactly, and the winning elementary segments
    (stage, t0, t1, resource) for resource attribution.
    """
    stages = _STAGE_ZERO.copy()
    segments: List[Tuple[str, int, int, str]] = []
    if end <= start:
        return stages, segments
    clipped = []
    for stage, t0, t1, resource in intervals:
        if t0 < start:
            t0 = start
        if t1 > end:
            t1 = end
        if t1 > t0:
            clipped.append((stage, t0, t1, resource))
    # fast path: most spans' intervals are strictly sequential (issue
    # -> flight -> queue -> flight), which needs no overlap sweep —
    # emit segments linearly, gap-filling with "other", until an
    # interval starts before the previous one ends.  This path is hot
    # (once per completed request on every traced run); the sweep
    # below is the general case.
    clipped.sort(key=_BY_START)
    cursor = start
    for stage, t0, t1, resource in clipped:
        if t0 < cursor:
            break
        if t0 > cursor:
            stages["other"] += t0 - cursor
            segments.append(("other", cursor, t0, ""))
        stages[stage] += t1 - t0
        if segments and segments[-1][0] == stage \
                and segments[-1][2] == t0 \
                and segments[-1][3] == resource:
            segments[-1] = (stage, segments[-1][1], t1, resource)
        else:
            segments.append((stage, t0, t1, resource))
        cursor = t1
    else:
        if end > cursor:
            stages["other"] += end - cursor
            segments.append(("other", cursor, end, ""))
        return stages, segments
    stages = _STAGE_ZERO.copy()
    segments = []
    boundaries = {start, end}
    for _, t0, t1, _ in clipped:
        boundaries.add(t0)
        boundaries.add(t1)
    cuts = sorted(boundaries)
    for left, right in zip(cuts, cuts[1:]):
        stage, resource, rank = "other", "", 0
        for candidate, t0, t1, owner in clipped:
            if t0 > left:
                break       # sorted by start: no later one covers left
            if right <= t1 and _PRIORITY[candidate] > rank:
                stage, resource, rank = candidate, owner, \
                    _PRIORITY[candidate]
        stages[stage] += right - left
        if segments and segments[-1][0] == stage \
                and segments[-1][3] == resource:
            # merge adjacent same-stage segments for readable trees
            segments[-1] = (stage, segments[-1][1], right, resource)
        else:
            segments.append((stage, left, right, resource))
    return stages, segments


class SpanCollector:
    """Stitch trace events into spans; attribute the critical path."""

    def __init__(self, top_k: int = 8, keep_spans: int = 256):
        self.top_k = max(1, int(top_k))
        self._open: Dict[int, _OpenSpan] = {}
        self.completed = 0
        self.total_cycles = 0.0
        self.stage_totals: Dict[str, float] = \
            {stage: 0.0 for stage in SPAN_STAGES}
        #: line address -> contention cycles (queue + retransmit +
        #: probe on the critical path)
        self.line_cycles: Dict[int, float] = {}
        #: home/shard name -> critical-path queue cycles
        self.shard_cycles: Dict[str, float] = {}
        #: "src->dst" -> critical-path wire cycles (flight + probe +
        #: retransmit)
        self.link_cycles: Dict[str, float] = {}
        #: most recent completed spans (bounded), with segment trees
        self.recent = deque(maxlen=max(1, int(keep_spans)))
        #: top-K slowest spans by end-to-end latency
        self.slowest: List[dict] = []
        #: origin device -> request count, end-to-end total and
        #: exact-partition stage totals
        self.by_origin: Dict[str, Dict[str, float]] = {}
        #: end-to-end latency distributions per purpose (txn.<purpose>)
        self.sampler = LatencySampler()
        #: traffic class -> hop class -> flight cycles of every first
        #: send, matched to a request or not
        self.by_class: Dict[str, Dict[str, float]] = {}
        #: per-(src, dst) highest transport sequence already booked
        self._seq_watermark: Dict[Tuple[str, str], int] = {}
        #: flight cycles of retransmitted wire sends (kept out of
        #: by_class)
        self.retx_flight_cycles = 0.0
        self.retx_suppressed = 0
        #: purpose -> its sampler label, built once per purpose
        self._txn_labels: Dict[str, str] = {}

    def handlers(self) -> Dict[str, Callable[[tuple], None]]:
        """Event kind -> the bound handler that consumes it, the table
        a :class:`~repro.obs.trace.TraceRecorder` dispatches through
        (each handler reads its event tuple by position)."""
        return {
            "net.send": self._on_send,
            "home.busy": self._on_busy,
            "home.defer": self._on_defer,
            "home.replay": self._on_replay,
            "transport.retx": self._on_retx,
            "l1.issue": self._on_issue,
            "l1.complete": self._finish,
        }

    def _first_send(self, channel: Tuple[str, str], rseq: int,
                    dur: int) -> bool:
        """Advance the channel's ``rseq`` watermark; a send at or below
        it is a transport retransmission, booked apart (False)."""
        if rseq <= self._seq_watermark.get(channel, -1):
            self.retx_flight_cycles += dur
            self.retx_suppressed += 1
            return False
        self._seq_watermark[channel] = rseq
        return True

    def _on_send(self, event: tuple) -> None:
        ts, _, src, dst, _, req_id, cls, dur, hop, _, rseq = event
        if (rseq is None or self._first_send((src, dst), rseq, dur)) \
                and cls is not None:
            hops = self.by_class.get(cls)
            if hops is None:
                hops = self.by_class[cls] = {}
            hop_name = hop or "direct"
            hops[hop_name] = hops.get(hop_name, 0.0) + dur
        span = self._open.get(req_id)
        if span is None:
            return
        if span.first_send is None:
            span.first_send = ts
        stage = "probe" if hop == "probe" else "flight"
        span.intervals.append(
            (stage, ts, ts + int(dur), f"{src}->{dst}"))

    def _on_busy(self, event: tuple) -> None:
        span = self._open.get(event[5])
        if span is not None:
            ts = event[0]
            span.intervals.append(
                ("queue", ts, ts + int(event[7]), event[2]))

    def _on_defer(self, event: tuple) -> None:
        span = self._open.get(event[5])
        if span is not None:
            span.defer_starts.append((event[0], event[2]))

    def _on_replay(self, event: tuple) -> None:
        span = self._open.get(event[5])
        if span is not None and span.defer_starts:
            t0, home = span.defer_starts.pop()
            span.intervals.append(("queue", t0, event[0], home))

    def _on_retx(self, event: tuple) -> None:
        ts, _, src, dst, _, req_id, _, dur, _, _, _ = event
        span = self._open.get(req_id)
        if span is not None:
            # the event marks the retransmission instant; its dur
            # is the RTO that was waited out beforehand
            t0 = max(span.start, ts - int(dur))
            span.intervals.append(
                ("retransmit", t0, ts, f"{src}->{dst}"))

    def _on_issue(self, event: tuple) -> None:
        ts, _, src, _, line, req_id, _, _, _, info, _ = event
        self._open[req_id] = _OpenSpan(src, line, info or "?", ts)

    def _finish(self, event: tuple) -> None:
        req_id = event[5]
        span = self._open.pop(req_id, None)
        if span is None:
            return
        end = event[0]
        start = span.start
        first_send = span.first_send
        if first_send is not None and first_send > start:
            span.intervals.append(("issue", start, first_send, span.origin))
        stages, segments = decompose(start, end, span.intervals)
        total = float(end - start)
        self.completed += 1
        self.total_cycles += total
        try:
            label = self._txn_labels[span.purpose]
        except KeyError:
            label = self._txn_labels[span.purpose] = f"txn.{span.purpose}"
        self.sampler.sample(label, total)
        origin = self.by_origin.get(span.origin)
        if origin is None:
            origin = self.by_origin[span.origin] = dict(
                _STAGE_ZERO, count=0.0, total=0.0)
        origin["count"] += 1
        origin["total"] += total
        stage_totals = self.stage_totals
        for stage, value in stages.items():
            if value:               # adding 0.0 leaves a total unchanged
                stage_totals[stage] += value
                origin[stage] += value
        contention = (stages["queue"] + stages["retransmit"]
                      + stages["probe"])
        if span.line is not None and contention > 0:
            self.line_cycles[span.line] = \
                self.line_cycles.get(span.line, 0.0) + contention
        for stage, t0, t1, resource in segments:
            if stage == "queue":
                self.shard_cycles[resource] = \
                    self.shard_cycles.get(resource, 0.0) + (t1 - t0)
            elif stage in ("flight", "probe", "retransmit") \
                    and resource:
                self.link_cycles[resource] = \
                    self.link_cycles.get(resource, 0.0) + (t1 - t0)
        record = {
            "req_id": req_id,
            "origin": span.origin,
            "line": span.line,
            "purpose": span.purpose,
            "start": start,
            "end": end,
            "total": total,
            "stages": stages,
            # tuples internally; exports convert (snapshot / to-JSON)
            "segments": segments,
        }
        self.recent.append(record)
        # keep the top-K slowest; most requests are not among them
        slowest = self.slowest
        if len(slowest) >= self.top_k and total <= slowest[-1]["total"]:
            return
        slowest.append(record)
        slowest.sort(key=lambda r: (-r["total"], r["req_id"]))
        del slowest[self.top_k:]

    # -- rollups -----------------------------------------------------------
    def _top(self, table: Dict, k: int) -> List[Tuple]:
        ranked = sorted(table.items(),
                        key=lambda kv: (-kv[1], str(kv[0])))
        return [(key, cycles) for key, cycles in ranked[:k]]

    def top_lines(self, k: int = 0) -> List[Tuple[int, float]]:
        """Lines ranked by critical-path contention cycles."""
        return self._top(self.line_cycles, k or self.top_k)

    def top_shards(self, k: int = 0) -> List[Tuple[str, float]]:
        """Homes ranked by critical-path queue cycles."""
        return self._top(self.shard_cycles, k or self.top_k)

    def top_links(self, k: int = 0) -> List[Tuple[str, float]]:
        """Links ranked by critical-path wire cycles."""
        return self._top(self.link_cycles, k or self.top_k)

    def indirection_cycles(self) -> float:
        """Flight cycles on indirection hops (all traffic)."""
        return sum(hops.get(hop, 0.0)
                   for hops in self.by_class.values()
                   for hop in INDIRECTION_HOPS)

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe rollup (recent segment trees included)."""
        return {
            "completed": self.completed,
            "open": len(self._open),
            "total_cycles": self.total_cycles,
            "stage_totals": dict(self.stage_totals),
            "by_origin": {origin: dict(row) for origin, row
                          in sorted(self.by_origin.items())},
            "latency": self.sampler.snapshot(),
            "by_class": {cls: dict(hops) for cls, hops
                         in sorted(self.by_class.items())},
            "indirection_cycles": self.indirection_cycles(),
            "retx_flight_cycles": self.retx_flight_cycles,
            "retx_suppressed": self.retx_suppressed,
            "top_lines": [[f"0x{line:x}", cycles]
                          for line, cycles in self.top_lines()],
            "top_shards": [list(row) for row in self.top_shards()],
            "top_links": [list(row) for row in self.top_links()],
            "slowest": [dict(row, segments=list(map(list, row["segments"])))
                        for row in self.slowest],
        }

    # -- rendering ---------------------------------------------------------
    def format_span(self, record: dict) -> str:
        """Render one span's segment tree, indented under its root."""
        total = record["total"]
        line = record["line"]
        head = (f"req {record['req_id']} {record['purpose']} "
                f"{record['origin']}"
                + (f" line 0x{line:x}" if line is not None else "")
                + f": {total:,.0f} cycles "
                f"[{record['start']:,}..{record['end']:,}]")
        rows = [head]
        for stage, t0, t1, resource in record["segments"]:
            share = 100.0 * (t1 - t0) / total if total else 0.0
            tag = f" @{resource}" if resource else ""
            rows.append(f"  +- {stage:<10} {t1 - t0:>8,} cycles "
                        f"({share:4.1f}%) [{t0:,}..{t1:,}]{tag}")
        return "\n".join(rows)

    def format_report(self, title: str = "critical path") -> str:
        lines = [f"== {title} =="]
        lines.append(f"  requests decomposed: {self.completed}"
                     + (f"  (open: {len(self._open)})"
                        if self._open else ""))
        if self.completed:
            total = self.total_cycles or 1.0
            lines.append("  end-to-end cycles by stage "
                         "(exact partition):")
            for stage in SPAN_STAGES:
                cycles = self.stage_totals[stage]
                lines.append(f"    {stage:<10} {cycles:>14,.0f} "
                             f"({100.0 * cycles / total:5.1f}%)")
            lines.append("  per-request average by origin:")
            lines.append(f"    {'origin':<12} {'reqs':>6} {'total':>8} "
                         + " ".join(f"{s:>10}" for s in SPAN_STAGES))
            for name, row in sorted(self.by_origin.items()):
                count = row["count"]
                lines.append(
                    f"    {name:<12} {int(count):>6} "
                    f"{row['total'] / count:>8.1f} "
                    + " ".join(f"{row[s] / count:>10.1f}"
                               for s in SPAN_STAGES))
            for label in sorted(self.sampler.labels()):
                lines.append(
                    f"  {label:<16} n={self.sampler.count(label):<7} "
                    f"mean={self.sampler.mean(label):8.1f} "
                    f"p50={self.sampler.percentile(label, 50):8.1f} "
                    f"p95={self.sampler.percentile(label, 95):8.1f} "
                    f"p99={self.sampler.percentile(label, 99):8.1f}")
        if self.by_class:
            lines.append("  flight cycles by traffic class x hop "
                         "(every send):")
            for cls, hops in sorted(self.by_class.items()):
                detail = " ".join(f"{hop}={cycles:,.0f}"
                                  for hop, cycles in sorted(hops.items()))
                lines.append(f"    {cls:<12} {detail}")
            lines.append(f"  indirection cycles: "
                         f"{self.indirection_cycles():,.0f}")
        if self.retx_suppressed:
            lines.append(f"  retransmitted sends excluded: "
                         f"{self.retx_suppressed} "
                         f"({self.retx_flight_cycles:,.0f} flight cycles)")
        if self.line_cycles:
            detail = "  ".join(f"0x{line:x}={cycles:,.0f}"
                               for line, cycles in self.top_lines())
            lines.append(f"  top contended lines: {detail}")
        if self.shard_cycles:
            detail = "  ".join(f"{name}={cycles:,.0f}"
                               for name, cycles in self.top_shards())
            lines.append(f"  top shards (queue cycles): {detail}")
        if self.link_cycles:
            detail = "  ".join(f"{name}={cycles:,.0f}"
                               for name, cycles in self.top_links())
            lines.append(f"  top links (wire cycles): {detail}")
        if self.slowest:
            lines.append("  slowest requests:")
            for record in self.slowest:
                for row in self.format_span(record).splitlines():
                    lines.append(f"    {row}")
        return "\n".join(lines)

