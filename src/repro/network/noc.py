"""Interconnect model.

The paper's testbed uses Garnet; we substitute a link-level model that
preserves what the evaluation measures: (a) per-hop latency — so
hierarchical indirection costs an extra traversal per level, (b) finite
link bandwidth — so throughput-bound workloads (e.g. PageRank) feel
serialization, and (c) byte-accurate traffic accounting per message
class — the Figures 2/3 stacks.

Each ordered (src, dst) endpoint pair is a link with its own latency,
bandwidth and FIFO ordering.  Point-to-point FIFO ordering is a
correctness assumption of the protocol controllers.

``send`` is one of the two hottest call sites in the simulator (the
other is the engine loop), so its state is organized for the fast
path: each link keeps a single :class:`_Link` record (free time, last
delivery and cached latency together — one dict lookup per send
instead of three), and each endpoint gets one delivery callable, built
when it registers and reused for every message (no per-message
closure).  Untraced, that callable is the endpoint's own ``receive``,
so a delivery costs no wrapper frame; traced, it records the
``net.deliver`` event itself, then calls ``receive``.  A send looks
its link up first: only a pair's first send checks the endpoints and
builds the link.

The fabric keeps no table of undelivered messages.  Each send stamps
``Message.sent_at``, and the diagnostics that need the in-flight set
(:meth:`Network.in_flight`, :meth:`Network.links_snapshot`) rebuild it
by scanning the engine calendar for live delivery events — a cold path
paid per dump or monitor scrape, not per message.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from ..coherence.messages import (KIND_LABELS, TRAFFIC_CLASS, Message,
                                  clone, wire_bytes)
from ..sim.engine import Engine, SimulationError
from ..sim.stats import StatsRegistry


class Endpoint(Protocol):
    """Anything attachable to the network."""

    name: str

    def receive(self, msg: Message) -> None: ...


class LatencyModel:
    """Per-pair link latency with a default fallback.

    The system builder derives pair latencies from the paper's Table VI
    (e.g. a GPU-L1 -> LLC traversal is roughly the L2 hit latency minus
    the L2 access itself).
    """

    def __init__(self, default: int = 12):
        self.default = default
        self._pairs: Dict[Tuple[str, str], int] = {}
        #: bumped on every mutation; cached per-link latencies carry the
        #: version they were derived from and refresh on mismatch, so
        #: topology rewiring mid-run is never silently ignored
        self.version = 0

    def set_pair(self, src: str, dst: str, latency: int,
                 symmetric: bool = True) -> None:
        self._pairs[(src, dst)] = latency
        if symmetric:
            self._pairs[(dst, src)] = latency
        self.version += 1

    def set_default(self, latency: int) -> None:
        self.default = latency
        self.version += 1

    def latency(self, src: str, dst: str) -> int:
        return self._pairs.get((src, dst), self.default)


class _Link:
    """Hot-path record for one ordered (src, dst) pair.

    Bundles everything ``send`` needs per message — when the link is
    next free, the last delivery time (FIFO clamp) and the cached base
    latency — so the per-send cost is one dict lookup instead of one
    per field.
    """

    __slots__ = ("free", "last_delivery", "latency", "version")

    def __init__(self, latency: int, version: int):
        self.free = 0
        self.last_delivery = 0
        self.latency = latency
        self.version = version


class Network:
    """Message transport with latency, bandwidth and traffic accounting."""

    def __init__(self, engine: Engine, stats: StatsRegistry,
                 latency_model: Optional[LatencyModel] = None,
                 link_bytes_per_cycle: int = 32):
        self.engine = engine
        self.stats = stats
        self.latency_model = latency_model or LatencyModel()
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self._endpoints: Dict[str, Endpoint] = {}
        self._links: Dict[Tuple[str, str], _Link] = {}
        #: one delivery callable per endpoint, built by ``register``
        self._receivers: Dict[str, Callable[[Message], None]] = {}
        #: live counter-dicts from the registry — the four per-send
        #: accounting increments without method-call or group-lookup
        #: overhead (see StatsRegistry.raw_counters / raw_group)
        self._counters = stats.raw_counters()
        self._traffic_bytes = stats.raw_group("traffic.bytes")
        self._traffic_messages = stats.raw_group("traffic.messages")
        #: optional tap for tracing every message (tests, walkthroughs)
        self.trace_hook: Optional[Callable[[Message, int], None]] = None
        #: optional deterministic fault injector (repro.faults); extra
        #: delay folds into link latency *before* the FIFO clamp
        self.fault_injector = None
        #: (delivery time, message) of a send whose trace record is
        #: being written, before its delivery event is scheduled
        self._recording: Optional[Tuple[int, Message]] = None

    def register(self, endpoint: Endpoint) -> None:
        """Attach ``endpoint`` and build its one delivery callable.

        The callable hands the message to :meth:`_upward`'s target,
        which is the callable itself on an untraced engine; with a
        tracer it records a ``net.deliver`` event first.  Whether it
        traces is fixed here, so ``engine.tracer`` must be set before
        endpoints register (the system builder sets it before
        ``_build()``).
        """
        if endpoint.name in self._endpoints:
            raise SimulationError(f"duplicate endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        deliver = self._upward(endpoint)
        tracer = self.engine.tracer
        if tracer is not None:
            record = tracer.record
            receive = deliver

            def deliver(msg: Message) -> None:
                kind = msg.kind
                record("net.deliver", msg.src, msg.dst, msg.line,
                       msg.req_id, TRAFFIC_CLASS[kind], 0, None,
                       KIND_LABELS[kind])
                receive(msg)
        self._receivers[endpoint.name] = deliver

    def detach_endpoints(self) -> None:
        """Forget every endpoint and its delivery callable."""
        self._endpoints.clear()
        self._receivers.clear()

    def _upward(self, endpoint: Endpoint) -> Callable[[Message], None]:
        """What a delivery hands the message to."""
        return endpoint.receive

    def _new_link(self, msg: Message, model: LatencyModel) -> _Link:
        """First send on a pair: check its endpoints, build its link."""
        src, dst = msg.src, msg.dst
        for name, role in ((dst, "destination"), (src, "source")):
            if name not in self._endpoints:
                raise SimulationError(f"unknown {role} {name!r} for {msg}")
        link = self._links[(src, dst)] = _Link(model.latency(src, dst),
                                               model.version)
        return link

    # -- the hot path ------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Queue ``msg`` for delivery; accounts traffic immediately."""
        dst = msg.dst
        model = self.latency_model
        link = self._links.get((msg.src, dst))
        if link is None:
            link = self._new_link(msg, model)
        elif link.version != model.version:
            # the model changed after this link first carried traffic
            # (topology rewiring, test reconfiguration): re-derive
            link.latency = model.latency(msg.src, dst)
            link.version = model.version
        size = wire_bytes(msg.mask, len(msg.data))
        traffic_class = TRAFFIC_CLASS[msg.kind]
        counters = self._counters
        counters["network.messages"] += 1
        counters["network.bytes"] += size
        self._traffic_bytes[traffic_class] += size
        self._traffic_messages[traffic_class] += 1

        engine = self.engine
        now = engine.now
        tracer = engine.tracer
        # every message carries a header, so this is at least 1
        serialization = -(-size // self.link_bytes_per_cycle)
        start = now if now > link.free else link.free
        link.free = start + serialization
        delivery = start + serialization + link.latency
        skew = dup = 0
        injector = self.fault_injector
        if injector is not None:
            if injector.unreliable:
                # delivery faults armed: one call decides the wire fate
                # (the reliable sublayer above restores exactly-once
                # FIFO delivery)
                reason, extra, skew, dup = injector.wire_fate(msg, now)
                if reason is not None:
                    # the wire ate it: no delivery event — exactly the
                    # hole the reliable sublayer must recover from
                    # (traffic was already accounted: the bytes hit
                    # the link)
                    if tracer is not None:
                        tracer.message_dropped(msg, now, reason)
                    return
            else:
                extra = injector.extra_delay(msg, now)
            delivery += extra
        if skew:
            # deliberately break point-to-point FIFO: skip the clamp
            # and leave last_delivery alone so later messages on this
            # link can overtake the skewed one
            delivery += skew
        else:
            # Preserve point-to-point FIFO even if parameters ever vary
            # (including injected per-message delay jitter).
            if delivery < link.last_delivery:
                delivery = link.last_delivery
            link.last_delivery = delivery
        counters["network.latency_cycles"] += delivery - now

        if self.trace_hook is not None:
            self.trace_hook(msg, delivery)
        msg.sent_at = now
        if tracer is not None:
            # The hop's flight time is fully determined here, so the
            # send event is recorded as a span and delivery rides the
            # same scheduled callback — tracing adds no engine events.
            # The record may run a monitor scrape, which must already
            # count the message in flight.
            self._recording = (delivery, msg)
            tracer.message_sent(msg, now, delivery)
            self._recording = None
        receiver = self._receivers[dst]
        engine.schedule(delivery - now, receiver, (msg,))
        if dup:
            # the wire delivers a second, independent copy one cycle
            # later (a fresh object: receivers mutate what they get)
            twin = clone(msg)
            twin.sent_at = now
            if tracer is not None:
                self._recording = (delivery + 1, twin)
                tracer.message_duplicated(twin, now, delivery + 1)
                self._recording = None
            engine.schedule(delivery + 1 - now, receiver, (twin,))

    # -- diagnostics (cold: one calendar scan per call) --------------------
    def in_flight(self) -> List[Tuple[int, Message]]:
        """Undelivered (delivery time, message) pairs, for diagnostics,
        in delivery order.

        Read from the engine calendar's live delivery events, so exact:
        the run loop clears an event before running it, so a message
        delivered at the current cycle is never reported as still in
        flight, and an undelivered one never disappears early.
        """
        receivers = {id(receiver) for receiver in self._receivers.values()}
        undelivered = [(time, args[0])
                       for time, callback, args in self.engine.queued()
                       if id(callback) in receivers]
        if self._recording is not None:
            # a send whose trace record is running: its delivery is
            # scheduled next, behind everything already due then
            undelivered.append(self._recording)
            undelivered.sort(key=itemgetter(0))
        return undelivered

    def links_snapshot(self) -> List[dict]:
        """Per-link fabric state for diagnostics (cold path).

        One row per link that has carried traffic: cached latency, when
        the link is next free, its last delivery time, the in-flight
        depth, and the age of the oldest undelivered message.
        """
        now = self.engine.now
        depth: Dict[Tuple[str, str], int] = {}
        oldest: Dict[Tuple[str, str], int] = {}
        # the wire's own in-flight set, whatever a subclass reports
        for _, msg in Network.in_flight(self):
            key = (msg.src, msg.dst)
            depth[key] = depth.get(key, 0) + 1
            if key not in oldest or msg.sent_at < oldest[key]:
                oldest[key] = msg.sent_at
        rows = []
        for (src, dst), link in sorted(self._links.items()):
            key = (src, dst)
            rows.append({
                "src": src, "dst": dst, "latency": link.latency,
                "free": link.free, "last_delivery": link.last_delivery,
                "in_flight": depth.get(key, 0),
                "oldest_age": now - oldest[key] if key in oldest else 0,
            })
        return rows
