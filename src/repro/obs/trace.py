"""Low-overhead protocol trace recorder.

Trace points across the simulator call :meth:`TraceRecorder.record`
(guarded by ``self.engine.tracer is not None``, so the disabled path is
one attribute load per site), passing its fields by position.  Each
event is an exact ``tuple`` in :class:`TraceEvent` field order holding
only ints, strs and ``None``, so CPython's cyclic collector untracks it
the first time a collection sees it (the first one after the run:
``System.simulate`` pauses collection) and later collections skip the
ring.  ``record`` is the one dispatch point: it runs the handler the
:class:`~repro.obs.spans.SpanCollector` installed for the event's kind
(most kinds have none), then the :class:`~repro.obs.monitor.
HealthMonitor`'s interval check, then keeps the event in a bounded
ring buffer.  A :class:`TraceFilter` restricts only the ring: the
handlers and the monitor see every event.

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
from typing import (Callable, Deque, Dict, FrozenSet, Iterable, List,
                    NamedTuple, Optional, Set)

from ..coherence.messages import (KIND_LABELS, TRAFFIC_CLASS, Message,
                                  MsgKind)

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


class TraceEvent(NamedTuple):
    """The fields of a recorded event tuple, by name (``TraceEvent(*e)``).

    ``dur`` is a duration in cycles for span-like events (a network
    hop's flight time, a home's occupancy for one request); 0 marks an
    instant.  ``hop`` is set for ``net.send`` events only; ``cls`` is
    the message traffic class when the event concerns a message;
    ``rseq`` is the transport sequence number (``msg.meta["rseq"]``) of
    a sequenced message on an unreliable fabric, which lets the span
    collector tell a first send from its retransmissions.
    """

    ts: int
    kind: str
    src: str
    dst: Optional[str] = None
    line: Optional[int] = None
    req_id: Optional[int] = None
    cls: Optional[str] = None
    dur: int = 0
    hop: Optional[str] = None
    info: Optional[str] = None
    rseq: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-safe rendering (omits unset fields: None, or a 0 dur)."""
        out = {"ts": self.ts, "kind": self.kind, "src": self.src}
        for key, value in zip(_DICT_KEYS, self[3:]):
            if value is not None and (value or key != "dur"):
                out[key] = f"0x{value:x}" if key == "line" else value
        return out


#: :meth:`TraceEvent.to_dict` keys of the fields after ``src``
_DICT_KEYS = ("dst", "line", "req_id", "class", "dur", "hop", "info",
              "rseq")


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

    def matches(self, event: tuple) -> bool:
        """Whether the ring keeps ``event`` (an event tuple)."""
        _, _, src, dst, line, _, cls, _, _, _, _ = event
        if self.lines is not None:
            if line is None or (line & ~63) not in self.lines:
                return False
        if self.devices is not None:
            if src not in self.devices and dst not in self.devices:
                return False
        if self.classes is not None and cls not in self.classes:
            return False
        return True


class TraceRecorder:
    """Bounded ring buffer of trace events; :meth:`record` also drives
    the span handlers and the health monitor.

    Events stay exact tuples from :meth:`record` through the handlers,
    the ring and :meth:`events`, so the collector can untrack them.

    ``homes`` is the set of home-node endpoint names (LLC / L3 / GPU
    L2), registered by the system builder after construction; it drives
    :func:`hop_class`.  ``handlers`` (event kind -> callable) and
    ``monitor`` see every event regardless of the ring filter, so span
    stitching never sees gaps.
    """

    def __init__(self, engine, capacity: int = 262_144,
                 filter: Optional[TraceFilter] = None):
        self.engine = engine
        self.capacity = max(1, int(capacity))
        self.filter = filter
        self.homes: Set[str] = set()
        self.handlers: Dict[str, Callable[[tuple], None]] = {}
        self.monitor = None
        self._events: Deque[tuple] = deque(maxlen=self.capacity)
        #: events observed (pre-filter) / kept in the ring
        self.seen = 0
        self.kept = 0

    # -- generic trace point ----------------------------------------------
    def record(self, kind: str, src: str, dst: Optional[str] = None,
               line: Optional[int] = None, req_id: Optional[int] = None,
               cls: Optional[str] = None, dur: int = 0,
               hop: Optional[str] = None,
               info: Optional[str] = None,
               rseq: Optional[int] = None) -> tuple:
        now = self.engine.now
        event = (now, kind, src, dst, line, req_id, cls, dur, hop, info,
                 rseq)
        self.seen += 1
        handler = self.handlers.get(kind)
        if handler is not None:
            handler(event)
        monitor = self.monitor
        if monitor is not None and now >= monitor.next_due:
            monitor.sample_at(now)
        if self.filter is None or self.filter.matches(event):
            self.kept += 1
            self._events.append(event)
        return event

    # -- message-specific trace points (called by the network) ------------
    def message_sent(self, msg: Message, now: int, delivery: int) -> None:
        """One hop enters the network; flight time is already known."""
        kind = msg.kind
        self.record("net.send", msg.src, msg.dst, msg.line, msg.req_id,
                    TRAFFIC_CLASS[kind], delivery - now,
                    hop_class(msg, self.homes), KIND_LABELS[kind],
                    msg.meta.get("rseq"))

    def message_dropped(self, msg: Message, now: int,
                        reason: str) -> None:
        """The wire ate a send (delivery fault); ``reason`` is the
        fault class: drop / link_down / partition."""
        self._message("net.drop", msg, info=f":{reason}")

    def message_duplicated(self, msg: Message, now: int,
                           delivery: int) -> None:
        """The wire delivers a second copy (delivery fault)."""
        self._message("net.dup", msg, delivery - now,
                      msg.meta.get("rseq"))

    # -- transport trace points (repro.network.reliable) -------------------
    def transport_retransmit(self, msg: Message, attempt_rto: int) -> None:
        self._message("transport.retx", msg, attempt_rto,
                      msg.meta.get("rseq"))

    def transport_dedupe(self, msg: Message, why: str) -> None:
        """Receiver-side transport suppressed a wire delivery
        (``dup`` = already delivered upward, ``buffer`` = held for
        in-order delivery)."""
        self._message("transport.dedupe", msg, info=f":{why}")

    def _message(self, kind: str, msg: Message, dur: int = 0,
                 rseq: Optional[int] = None, info: str = "") -> None:
        """A cold message trace point; ``info`` follows the kind label."""
        self.record(kind, msg.src, msg.dst, msg.line, msg.req_id,
                    TRAFFIC_CLASS[msg.kind], dur, None,
                    KIND_LABELS[msg.kind] + info, rseq)

    # -- inspection --------------------------------------------------------
    def events(self) -> List[tuple]:
        """Snapshot of the ring contents, oldest first, as the recorded
        tuples (``TraceEvent(*e)`` names the fields of one)."""
        return list(self._events)

    def tail(self, n: int, lines: Optional[Set[int]] = None
             ) -> List[TraceEvent]:
        """Last ``n`` ring events, optionally only those touching
        ``lines`` (line-aligned addresses) — used by crash dumps."""
        events = self._events
        if lines is not None:
            events = [event for event in events if event[4] is not None
                      and (event[4] & ~63) in lines]
        return [TraceEvent._make(event)
                for event in list(events)[-n:]] if n else []

    def __len__(self) -> int:
        return len(self._events)
