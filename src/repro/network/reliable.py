"""End-to-end reliable delivery over an unreliable fabric.

:class:`ReliableNetwork` interposes a transport sublayer between the
protocol controllers and the raw NoC.  The wire below it may drop,
duplicate, or reorder messages, go down for scheduled windows, or
partition whole sockets (see ``FaultConfig`` delivery faults); the
sublayer re-establishes the delivery contract every controller assumes
— **exactly-once, per-(src, dst) FIFO** — using the classic machinery:

* per-(src, dst) channel **sequence numbers** stamped into
  ``msg.meta["rseq"]`` at send time;
* receiver-side **dedupe + reorder buffer** (:class:`_RecvChannel`):
  stale/duplicate sequence numbers are dropped, out-of-order arrivals
  are held until the gap fills, and messages flow upward to
  ``Endpoint.receive`` strictly in sequence order;
* **cumulative acks** (``MsgKind.REL_ACK``, ``meta["rack"]``) returned
  for every data arrival — dup arrivals re-ack, so a lost ack heals;
* sender-side **timeout retransmit** with capped exponential backoff:
  a retransmission sends a *pristine clone* of the original message
  (receivers mutate delivered objects in place, so the unacked buffer
  keeps an untouched copy from send time);
* a **dead-link deadline**: when a channel's oldest unacked message has
  been outstanding past ``dead_cycles``, the retransmit timer raises
  :class:`TransportError` carrying the same structured diagnostic dump
  the liveness watchdog produces — partitions become diagnosable
  failures instead of silent hangs.

Passthrough: the builder only instantiates this class when
``FaultConfig.unreliable`` is true.  Fault-free and timing-fault-only
systems keep the plain :class:`Network` and never enter the transport
— the same structural guard as the tracer's ``is None`` fast path.

Acks themselves travel over the faulty wire (they can be dropped or
reordered like anything else) but are *not* sequenced: a cumulative ack
is idempotent and self-superseding, so transport control traffic never
needs its own transport.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..coherence.messages import Message, MsgKind, clone
from ..sim.engine import SimulationError
from ..sim.lifetime import WeakAttribute
from ..sim.stats import StatsRegistry
from .noc import LatencyModel, Network


class TransportError(SimulationError):
    """A link stayed dead past the deadline; ``diagnostic`` has the
    structured dump (same schema as DeadlockError's)."""

    def __init__(self, message: str,
                 diagnostic: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class _SendChannel:
    """Sender-side state for one ordered (src, dst) pair."""

    __slots__ = ("next_seq", "unacked", "timer", "rto")

    def __init__(self, rto: int):
        self.next_seq = 0
        #: seq -> (pristine clone, first-send time); insertion order is
        #: sequence order, so the first entry is always the oldest
        self.unacked: Dict[int, Tuple[Message, int]] = {}
        self.timer = None
        self.rto = rto


class _RecvChannel:
    """Receiver-side dedupe + reorder buffer for one (src, dst) pair.

    Shared logic: the verify explorer's unreliable network drives the
    same :meth:`admit` so explored schedules exercise exactly the
    transport semantics production runs get.
    """

    __slots__ = ("expect", "buffer")

    def __init__(self):
        self.expect = 0
        self.buffer: Dict[int, Message] = {}

    def admit(self, seq: int, msg: Message
              ) -> Tuple[List[Message], str]:
        """Classify one wire arrival.

        Returns ``(ready, verdict)``: the messages now deliverable
        upward *in order* (possibly draining previously buffered
        successors), and ``"deliver"`` / ``"dup"`` / ``"buffer"``.
        """
        if seq < self.expect or seq in self.buffer:
            return [], "dup"
        if seq != self.expect:
            self.buffer[seq] = msg
            return [], "buffer"
        ready = [msg]
        self.expect = seq + 1
        while self.expect in self.buffer:
            ready.append(self.buffer.pop(self.expect))
            self.expect += 1
        return ready, "deliver"


class ReliableNetwork(Network):
    """The raw NoC with the reliable-transport sublayer interposed."""

    #: set by the builder to the owning system (held weakly) so a
    #: TransportError dump includes device/home state, not just the
    #: fabric
    diagnostic_source = WeakAttribute()

    def __init__(self, engine, stats: StatsRegistry,
                 latency_model: Optional[LatencyModel] = None,
                 link_bytes_per_cycle: int = 32,
                 rto: int = 400, rto_cap: int = 6400,
                 dead_cycles: int = 200_000):
        super().__init__(engine, stats, latency_model,
                         link_bytes_per_cycle)
        self.rto = rto
        self.rto_cap = rto_cap
        self.dead_cycles = dead_cycles
        self._send_channels: Dict[Tuple[str, str], _SendChannel] = {}
        self._recv_channels: Dict[Tuple[str, str], _RecvChannel] = {}

    # -- sender side -------------------------------------------------------
    def send(self, msg: Message) -> None:
        # transport control traffic (acks, sent only by
        # _transport_receive) rides the raw wire unsequenced:
        # cumulative acks are idempotent, so loss just delays
        if msg.kind is not MsgKind.REL_ACK:
            key = (msg.src, msg.dst)
            channel = self._send_channels.get(key)
            if channel is None:
                channel = self._send_channels[key] = _SendChannel(self.rto)
            seq = channel.next_seq
            channel.next_seq = seq + 1
            msg.meta["rseq"] = seq
            # keep an untouched copy for retransmission *before* the
            # first delivery can mutate the original in a receiver
            channel.unacked[seq] = (clone(msg), self.engine.now)
            if channel.timer is None:
                # non-idle: unacked data is real outstanding work that
                # must keep Engine.run alive until the channel drains
                channel.timer = self.engine.schedule(
                    channel.rto, self._retransmit_tick, (key,))
        Network.send(self, msg)

    def _retransmit_tick(self, key: Tuple[str, str]) -> None:
        channel = self._send_channels[key]
        channel.timer = None
        if not channel.unacked:
            return
        now = self.engine.now
        _, first_sent = next(iter(channel.unacked.values()))
        if now - first_sent > self.dead_cycles:
            self._escalate_dead_link(key, channel, now - first_sent)
        tracer = self.engine.tracer
        for pristine, _ in channel.unacked.values():
            retx = clone(pristine)
            self._counters["transport.retransmits"] += 1
            if tracer is not None:
                tracer.transport_retransmit(retx, channel.rto)
            Network.send(self, retx)
        channel.rto = min(channel.rto * 2, self.rto_cap)
        channel.timer = self.engine.schedule(
            channel.rto, self._retransmit_tick, (key,))

    def _escalate_dead_link(self, key: Tuple[str, str],
                            channel: _SendChannel, age: int) -> None:
        from ..faults.diagnostics import (collect_diagnostic,
                                          format_diagnostic)
        src, dst = key
        reason = (f"transport: link {src}->{dst} dead for {age} cycles "
                  f"({len(channel.unacked)} unacked message(s), "
                  f"rto={channel.rto})")
        source = self.diagnostic_source
        if source is None:
            source = _BareSystem(self)
        diag = collect_diagnostic(source, reason)
        raise TransportError(f"{reason}\n{format_diagnostic(diag)}", diag)

    # -- receiver side -----------------------------------------------------
    def _upward(self, endpoint) -> Callable[[Message], None]:
        # the wire-level delivery (and its net.deliver event: dups and
        # stale copies show up there, then again as transport.dedupe
        # when suppressed) hands every arrival to the transport first
        return partial(self._transport_receive, endpoint.receive)

    def _transport_receive(self, receive: Callable[[Message], None],
                           msg: Message) -> None:
        if msg.kind is MsgKind.REL_ACK:
            self._handle_ack(msg)
            return
        seq = msg.meta.get("rseq")
        if seq is None:
            # locally generated / pre-transport message (tests poking
            # endpoints directly): pass through untouched
            receive(msg)
            return
        key = (msg.src, msg.dst)
        channel = self._recv_channels.get(key)
        if channel is None:
            channel = self._recv_channels[key] = _RecvChannel()
        ready, verdict = channel.admit(seq, msg)
        counters = self._counters
        if verdict != "deliver":
            # "dup": already delivered upward; "buffer": held for
            # in-order delivery
            counters["transport.dup_dropped" if verdict == "dup"
                     else "transport.reorder_buffered"] += 1
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.transport_dedupe(msg, verdict)
        # Cumulative ack on *every* data arrival — a dup usually means
        # our previous ack was lost, so re-acking is what heals it.
        counters["transport.acks"] += 1
        Network.send(self, Message(MsgKind.REL_ACK, 0, 0, msg.dst, msg.src,
                                   meta={"rack": channel.expect - 1}))
        for deliverable in ready:
            receive(deliverable)

    def _handle_ack(self, ack: Message) -> None:
        # the ack flows receiver -> sender, acknowledging the data
        # channel that runs the opposite way
        key = (ack.dst, ack.src)
        channel = self._send_channels.get(key)
        if channel is None:
            return
        rack = ack.meta["rack"]
        progressed = False
        unacked = channel.unacked
        while unacked:
            oldest = next(iter(unacked))
            if oldest > rack:
                break
            del unacked[oldest]
            progressed = True
        if progressed:
            # forward progress: the link is alive, reset the backoff
            channel.rto = self.rto
        if not unacked and channel.timer is not None:
            # nothing outstanding: the timer must not stretch the run
            self.engine.cancel(channel.timer)
            channel.timer = None

    # -- diagnostics -------------------------------------------------------
    def unacked_messages(self) -> List[Message]:
        """Every message awaiting acknowledgement (pristine clones).

        A message here was sent but its delivery is not yet confirmed —
        it may have been dropped and be waiting out a retransmit timer.
        The invariant checker consults this: a protocol transfer whose
        carrier sits in an unacked buffer is *recovering*, not stuck
        (the dead-link deadline and watchdog still bound real hangs).
        """
        return [pristine
                for channel in self._send_channels.values()
                for pristine, _ in channel.unacked.values()]

    def buffered_messages(self) -> List[Message]:
        """Out-of-order arrivals held in receiver reorder buffers."""
        return [msg
                for channel in self._recv_channels.values()
                for msg in channel.buffer.values()]

    def transport_snapshot(self) -> Dict[str, List[dict]]:
        """Per-channel transport state for diagnostic dumps."""
        now = self.engine.now
        send_rows = []
        for (src, dst), channel in sorted(self._send_channels.items()):
            oldest_age = 0
            if channel.unacked:
                _, first_sent = next(iter(channel.unacked.values()))
                oldest_age = now - first_sent
            send_rows.append({
                "src": src, "dst": dst,
                "next_seq": channel.next_seq,
                "unacked": len(channel.unacked),
                "oldest_age": oldest_age,
                "rto": channel.rto,
            })
        recv_rows = []
        for (src, dst), channel in sorted(self._recv_channels.items()):
            recv_rows.append({
                "src": src, "dst": dst,
                "expect": channel.expect,
                "buffered": len(channel.buffer),
            })
        return {"send": send_rows, "recv": recv_rows}


class _BareSystem:
    """Minimal diagnostic source when no system attached itself: the
    fabric alone, with no caches, homes, monitor or litmus context."""

    l1s: Dict[str, object] = {}
    homes: List[object] = []
    monitor = None
    verify_context = None

    def __init__(self, network: ReliableNetwork):
        self.engine = network.engine
        self.network = network
