"""Low-overhead protocol trace recorder.

Trace points across the simulator call :meth:`TraceRecorder.record`
(guarded by ``self.engine.tracer is not None``, so the disabled path is
one attribute load per site).  Events land in a bounded ring buffer and
are additionally pushed to registered *sinks* — in a built system the
one :class:`~repro.obs.spans.SpanCollector` — which always see the full
stream even when a :class:`TraceFilter` restricts what the ring keeps.

Every network hop is classified at send time (:func:`hop_class`) so the
span collector's hop rollup can separate the paper's headline effect —
indirection through a hierarchical MESI directory — from Spandex's
direct owner responses:

``level``
    both endpoints are home nodes (GPU L2 <-> L3 directory): the extra
    cache-level traversal hierarchical configurations pay per miss.
``fwd``
    a home forwarding a request/probe to an owner on behalf of a
    requestor (``msg.requestor`` set): the indirection hop itself.
``fwd_rsp``
    an owner responding *directly* to the requestor (device -> device,
    Spandex Figure 1c/1d) — the direct path, not indirection.
``probe``
    invalidations / revocations and their acks.
``direct``
    everything else: device requests and plain home responses.

Recording is strictly passive: no engine events are scheduled, no
simulation state is touched, and timestamps come from the engine clock,
so tracing on vs. off yields identical simulations.
"""

from __future__ import annotations

import re
from collections import deque
from typing import (Callable, Deque, FrozenSet, Iterable, List, Optional,
                    Set)

from ..coherence.messages import Message, MsgKind

#: hop classes counted as indirection cycles
INDIRECTION_HOPS = ("fwd", "level")

_PROBE_KINDS = frozenset((MsgKind.INV, MsgKind.RVK_O, MsgKind.MESI_INV))
_PROBE_ACK_KINDS = frozenset((MsgKind.ACK, MsgKind.MESI_INV_ACK,
                              MsgKind.RSP_RVK_O))
#: kinds a device sends only when answering a forwarded request (a
#: NACK also answers an owner-predicted direct ReqV, which is likewise
#: a device->device leg of a forwarded path)
_FWD_RESPONSE_KINDS = frozenset((
    MsgKind.RSP_V, MsgKind.RSP_S, MsgKind.RSP_WT, MsgKind.RSP_O,
    MsgKind.RSP_WT_DATA, MsgKind.RSP_O_DATA, MsgKind.NACK,
    MsgKind.RSP_WT_FWD, MsgKind.DATA_S, MsgKind.DATA_E, MsgKind.DATA_M))


def hop_class(msg: Message, homes: Set[str]) -> str:
    """Classify one network hop (see module docstring)."""
    src_home = msg.src in homes
    if src_home:
        if msg.dst in homes:
            return "level"
        if msg.requestor is not None:
            return "fwd"
        if msg.kind in _PROBE_KINDS:
            return "probe"
        return "direct"
    if msg.kind in _PROBE_ACK_KINDS:
        return "probe"
    if msg.kind in _FWD_RESPONSE_KINDS and msg.requestor is None:
        # A device answers with a response kind only when a forward
        # reached it; requests it originates are REQ_* / GET_* kinds.
        return "fwd_rsp"
    return "direct"


class TraceEvent:
    """One typed trace record.

    ``dur`` is a duration in cycles for span-like events (a network
    hop's flight time, a home's occupancy for one request); 0 marks an
    instant.  ``hop`` is set for ``net.send`` events only; ``cls`` is
    the message traffic class when the event concerns a message.
    """

    __slots__ = ("ts", "kind", "src", "dst", "line", "req_id", "cls",
                 "dur", "hop", "info", "rseq")

    def __init__(self, ts: int, kind: str, src: str,
                 dst: Optional[str] = None, line: Optional[int] = None,
                 req_id: Optional[int] = None, cls: Optional[str] = None,
                 dur: int = 0, hop: Optional[str] = None,
                 info: Optional[str] = None,
                 rseq: Optional[int] = None):
        self.ts = ts
        self.kind = kind
        self.src = src
        self.dst = dst
        self.line = line
        self.req_id = req_id
        self.cls = cls
        self.dur = dur
        self.hop = hop
        self.info = info
        #: transport sequence number (msg.meta["rseq"]) when the event
        #: concerns a sequenced message on an unreliable fabric; lets
        #: sinks tell a first send from its retransmissions
        self.rseq = rseq

    def to_dict(self) -> dict:
        """JSON-safe rendering (omits unset fields)."""
        out = {"ts": self.ts, "kind": self.kind, "src": self.src}
        if self.dst is not None:
            out["dst"] = self.dst
        if self.line is not None:
            out["line"] = f"0x{self.line:x}"
        if self.req_id is not None:
            out["req_id"] = self.req_id
        if self.cls is not None:
            out["class"] = self.cls
        if self.dur:
            out["dur"] = self.dur
        if self.hop is not None:
            out["hop"] = self.hop
        if self.info is not None:
            out["info"] = self.info
        if self.rseq is not None:
            out["rseq"] = self.rseq
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        line = f" 0x{self.line:x}" if self.line is not None else ""
        return f"<TraceEvent t={self.ts} {self.kind} {self.src}{line}>"


class TraceFilter:
    """Predicate over trace events, parsed from CLI filter specs.

    A spec is ``key=value`` fields joined by ``/`` or ``,`` — e.g.
    ``addr=0x1040/dev=cpu0.l1/class=ReqV``.  Repeated keys (within one
    spec or across several) extend that dimension's allowed set.
    Dimensions AND together; values within a dimension OR.  Constrained
    dimensions drop events that lack the field (filtering by address
    keeps only events that carry a line address).
    """

    __slots__ = ("lines", "devices", "classes")

    def __init__(self, lines: Optional[FrozenSet[int]] = None,
                 devices: Optional[FrozenSet[str]] = None,
                 classes: Optional[FrozenSet[str]] = None):
        self.lines = lines
        self.devices = devices
        self.classes = classes

    @classmethod
    def parse(cls, specs: Iterable[str]) -> Optional["TraceFilter"]:
        """Build a filter from spec strings; None when nothing given."""
        lines: Set[int] = set()
        devices: Set[str] = set()
        classes: Set[str] = set()
        for spec in specs:
            for part in re.split(r"[/,]", spec):
                part = part.strip()
                if not part:
                    continue
                key, sep, value = part.partition("=")
                key, value = key.strip().lower(), value.strip()
                if not sep or not value:
                    raise ValueError(
                        f"bad trace filter field {part!r} "
                        "(expected key=value)")
                if key in ("addr", "line"):
                    lines.add(int(value, 0) & ~63)
                elif key in ("dev", "device"):
                    devices.add(value)
                elif key in ("class", "cls"):
                    classes.add(value)
                else:
                    raise ValueError(
                        f"unknown trace filter key {key!r} "
                        "(use addr= / dev= / class=)")
        if not (lines or devices or classes):
            return None
        return cls(frozenset(lines) or None, frozenset(devices) or None,
                   frozenset(classes) or None)

    def matches(self, event: TraceEvent) -> bool:
        if self.lines is not None:
            if event.line is None or (event.line & ~63) not in self.lines:
                return False
        if self.devices is not None:
            if event.src not in self.devices and \
                    event.dst not in self.devices:
                return False
        if self.classes is not None and event.cls not in self.classes:
            return False
        return True


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceEvent` plus fan-out sinks.

    ``homes`` is the set of home-node endpoint names (LLC / L3 / GPU
    L2), registered by the system builder after construction; it drives
    :func:`hop_class`.  ``sinks`` receive every event regardless of the
    ring filter, so span stitching never sees gaps.
    """

    def __init__(self, engine, capacity: int = 262_144,
                 filter: Optional[TraceFilter] = None):
        self.engine = engine
        self.capacity = max(1, int(capacity))
        self.filter = filter
        self.homes: Set[str] = set()
        self.sinks: List[Callable[[TraceEvent], None]] = []
        self._events: Deque[TraceEvent] = deque(maxlen=self.capacity)
        #: events observed (pre-filter) / kept in the ring
        self.seen = 0
        self.kept = 0

    # -- generic trace point ----------------------------------------------
    def record(self, kind: str, src: str, dst: Optional[str] = None,
               line: Optional[int] = None, req_id: Optional[int] = None,
               cls: Optional[str] = None, dur: int = 0,
               hop: Optional[str] = None,
               info: Optional[str] = None,
               rseq: Optional[int] = None) -> TraceEvent:
        event = TraceEvent(self.engine.now, kind, src, dst, line, req_id,
                           cls, dur, hop, info, rseq)
        self.seen += 1
        for sink in self.sinks:
            sink(event)
        if self.filter is None or self.filter.matches(event):
            self.kept += 1
            self._events.append(event)
        return event

    # -- message-specific trace points (called by the network) ------------
    def message_sent(self, msg: Message, now: int, delivery: int) -> None:
        """One hop enters the network; flight time is already known."""
        self.record("net.send", msg.src, dst=msg.dst, line=msg.line,
                    req_id=msg.req_id, cls=msg.traffic_class,
                    dur=delivery - now, hop=hop_class(msg, self.homes),
                    info=msg.kind.value, rseq=msg.meta.get("rseq"))

    def message_delivered(self, msg: Message) -> None:
        self.record("net.deliver", msg.src, dst=msg.dst, line=msg.line,
                    req_id=msg.req_id, cls=msg.traffic_class,
                    info=msg.kind.value)

    def message_dropped(self, msg: Message, now: int,
                        reason: str) -> None:
        """The wire ate a send (delivery fault); ``reason`` is the
        fault class: drop / link_down / partition."""
        self.record("net.drop", msg.src, dst=msg.dst, line=msg.line,
                    req_id=msg.req_id, cls=msg.traffic_class,
                    info=f"{msg.kind.value}:{reason}")

    def message_duplicated(self, msg: Message, now: int,
                           delivery: int) -> None:
        """The wire delivers a second copy (delivery fault)."""
        self.record("net.dup", msg.src, dst=msg.dst, line=msg.line,
                    req_id=msg.req_id, cls=msg.traffic_class,
                    dur=delivery - now, info=msg.kind.value,
                    rseq=msg.meta.get("rseq"))

    # -- transport trace points (repro.network.reliable) -------------------
    def transport_retransmit(self, msg: Message, attempt_rto: int) -> None:
        self.record("transport.retx", msg.src, dst=msg.dst,
                    line=msg.line, req_id=msg.req_id,
                    cls=msg.traffic_class, dur=attempt_rto,
                    info=msg.kind.value, rseq=msg.meta.get("rseq"))

    def transport_dedupe(self, msg: Message, why: str) -> None:
        """Receiver-side transport suppressed a wire delivery
        (``dup`` = already delivered upward, ``buffer`` = held for
        in-order delivery)."""
        self.record("transport.dedupe", msg.src, dst=msg.dst,
                    line=msg.line, req_id=msg.req_id,
                    cls=msg.traffic_class,
                    info=f"{msg.kind.value}:{why}")

    # -- inspection --------------------------------------------------------
    def events(self) -> List[TraceEvent]:
        """Snapshot of the ring contents, oldest first."""
        return list(self._events)

    def tail(self, n: int, lines: Optional[Set[int]] = None
             ) -> List[TraceEvent]:
        """Last ``n`` ring events, optionally only those touching
        ``lines`` (line-aligned addresses) — used by crash dumps."""
        if lines is None:
            out = list(self._events)[-n:] if n else []
            return out
        picked: List[TraceEvent] = []
        for event in reversed(self._events):
            if event.line is not None and (event.line & ~63) in lines:
                picked.append(event)
                if len(picked) >= n:
                    break
        picked.reverse()
        return picked

    def __len__(self) -> int:
        return len(self._events)
