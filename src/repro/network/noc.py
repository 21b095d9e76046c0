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
instead of three), each endpoint gets one delivery callable, built
when it registers and reused for every message (no per-message
closure), and the in-flight diagnostic set is pruned event-driven —
the delivery callable removes its own entry — instead of lazily
rescanned on send.  A send looks its link up first: only a pair's
first send checks the endpoints and builds the link.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Tuple

from ..coherence.messages import TRAFFIC_CLASS, Message, clone, wire_bytes
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
        #: id(msg) -> (delivery time, message, send time) of undelivered
        #: sends, kept for watchdog/deadlock diagnostics; each delivery
        #: event removes its own entry, so the set is always exact
        self._in_flight: Dict[int, Tuple[int, Message, int]] = {}

    def register(self, endpoint: Endpoint) -> None:
        """Attach ``endpoint`` and build its one delivery callable.

        The callable pops the message's in-flight entry, records a
        ``net.deliver`` event when the engine has a tracer, and hands
        the message to :meth:`_upward`'s target.  Whether it traces is
        fixed here, so ``engine.tracer`` must be set before endpoints
        register (the system builder sets it before ``_build()``).
        """
        if endpoint.name in self._endpoints:
            raise SimulationError(f"duplicate endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        receive = self._upward(endpoint)
        pop = self._in_flight.pop
        tracer = self.engine.tracer
        if tracer is None:
            def deliver(msg: Message) -> None:
                pop(id(msg), None)
                receive(msg)
        else:
            delivered = tracer.message_delivered

            def deliver(msg: Message) -> None:
                pop(id(msg), None)
                delivered(msg)
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
        # every message carries a header, so this is at least 1
        serialization = -(-size // self.link_bytes_per_cycle)
        start = now if now > link.free else link.free
        link.free = start + serialization
        injector = self.fault_injector
        if injector is not None and injector.unreliable:
            # delivery faults armed: take the cold path (drop / dup /
            # reorder / link-down / partition); the reliable sublayer
            # above re-establishes exactly-once FIFO delivery
            self._send_unreliable(msg, link, start + serialization, now)
            return
        latency = link.latency
        if injector is not None:
            latency += injector.extra_delay(msg, now)
        delivery = start + serialization + latency
        # Preserve point-to-point FIFO even if parameters ever vary
        # (including injected per-message delay jitter).
        if delivery < link.last_delivery:
            delivery = link.last_delivery
        link.last_delivery = delivery
        counters["network.latency_cycles"] += delivery - now

        if self.trace_hook is not None:
            self.trace_hook(msg, delivery)
        self._in_flight[id(msg)] = (delivery, msg, now)
        tracer = engine.tracer
        if tracer is not None:
            # The hop's flight time is fully determined here, so the
            # send event is recorded as a span and delivery rides the
            # same scheduled callback — tracing adds no engine events.
            tracer.message_sent(msg, now, delivery)
        engine.schedule(delivery - now, self._receivers[dst], (msg,))

    # -- the delivery-fault path (cold: only with unreliable classes) ------
    def _send_unreliable(self, msg: Message, link: _Link, ready: int,
                         now: int) -> None:
        """Apply drop/dup/reorder faults to one send.

        Split out of :meth:`send` so the reliable-run overhead never
        touches the fault-free or timing-fault-only hot paths.
        """
        engine = self.engine
        injector = self.fault_injector
        tracer = engine.tracer
        reason = injector.drop_reason(msg, now)
        if reason is not None:
            # the wire ate it: no delivery event, no in-flight entry —
            # exactly the hole the reliable sublayer must recover from
            # (traffic was already accounted: the bytes hit the link)
            if tracer is not None:
                tracer.message_dropped(msg, now, reason)
            return
        delivery = ready + link.latency + injector.extra_delay(msg, now)
        skew = injector.reorder_skew(msg)
        if skew:
            # deliberately break point-to-point FIFO: skip the clamp
            # and leave last_delivery alone so later messages on this
            # link can overtake the skewed one
            delivery += skew
        else:
            if delivery < link.last_delivery:
                delivery = link.last_delivery
            link.last_delivery = delivery
        self._counters["network.latency_cycles"] += delivery - now
        if self.trace_hook is not None:
            self.trace_hook(msg, delivery)
        self._in_flight[id(msg)] = (delivery, msg, now)
        if tracer is not None:
            tracer.message_sent(msg, now, delivery)
        receiver = self._receivers[msg.dst]
        engine.schedule(delivery - now, receiver, (msg,))
        if injector.should_duplicate(msg):
            # the wire delivers a second, independent copy one cycle
            # later (a fresh object: receivers mutate what they get)
            twin = clone(msg)
            twin_delivery = delivery + 1
            self._in_flight[id(twin)] = (twin_delivery, twin, now)
            if tracer is not None:
                tracer.message_duplicated(twin, now, twin_delivery)
            engine.schedule(twin_delivery - now, receiver, (twin,))

    def in_flight(self) -> List[Tuple[int, Message]]:
        """Undelivered (delivery time, message) pairs, for diagnostics.

        Exact by construction: each delivery event removes its own
        entry, so a message delivered at the current cycle is never
        reported as still in flight (and an undelivered one never
        disappears early).
        """
        return [(delivery, msg)
                for delivery, msg, _ in self._in_flight.values()]

    def links_snapshot(self) -> List[dict]:
        """Per-link fabric state for diagnostics (cold path).

        One row per link that has carried traffic: cached latency, when
        the link is next free, its last delivery time, the in-flight
        depth, and the age of the oldest undelivered message.
        """
        now = self.engine.now
        depth: Dict[Tuple[str, str], int] = {}
        oldest: Dict[Tuple[str, str], int] = {}
        for _, msg, sent in self._in_flight.values():
            key = (msg.src, msg.dst)
            depth[key] = depth.get(key, 0) + 1
            if key not in oldest or sent < oldest[key]:
                oldest[key] = sent
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
