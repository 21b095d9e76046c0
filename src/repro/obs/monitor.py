"""Gauge registry + live contention health monitor.

Two pieces:

:class:`MetricsRegistry`
    :class:`Gauge` instruments keyed by a dotted name (the registry
    grammar shared with ``repro.sim.stats``) plus a fixed label set,
    so one metric family (``home.queue_depth``) carries per-component
    label dimensions (``{home="llc0"}``) instead of exploding into
    per-component names.  Re-registering an identical (name, labels)
    returns the existing gauge; a grammar violation raises
    :class:`~repro.sim.stats.MetricNameError` at registration
    (builder) time.  Counts live in the
    :class:`~repro.sim.stats.StatsRegistry`, not here.

:class:`HealthMonitor`
    scrapes the live simulation on an engine-cycle interval with
    **zero perturbation**: it never schedules engine events — the
    :class:`~repro.obs.trace.TraceRecorder` it is attached to calls
    :meth:`HealthMonitor.sample_at` the first time a trace event's
    timestamp crosses each interval boundary, and every read is a
    passive attribute/dict read (engine counters, home deferral queues
    and bank backlogs, MSHR occupancy, per-link in-flight depth,
    transport retransmit backlog and RTO state, and a snapshot of the
    :class:`~repro.sim.stats.StatsRegistry` counters — the time series
    behind the Chrome counter tracks).  Link and transport rows come
    from the network's own ``links_snapshot()`` and
    ``transport_snapshot()``, the readers diagnostic dumps use.
    Simulations are bit-identical with monitoring on or off, pinned by
    ``tests/property/test_monitor_determinism.py``.
"""

from __future__ import annotations

import re
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..sim.lifetime import WeakAttribute
from ..sim.stats import MetricNameError, validate_metric_name

#: Prometheus-compatible label-name grammar (stricter than values,
#: which may hold any escaped string).
LABEL_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def _label_key(labels: Optional[Dict[str, str]]) -> Tuple:
    if not labels:
        return ()
    for name in labels:
        if not LABEL_NAME_RE.match(name):
            raise MetricNameError(
                f"label name {name!r} violates [a-z_][a-z0-9_]*")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Gauge:
    """Point-in-time level of one (name, labels) series; tracks its
    own whole-run high-water mark."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "unit", "value", "high_water")

    def __init__(self, name: str, labels: Tuple, help: str, unit: str):
        self.name = name
        self.labels = labels
        self.help = help
        self.unit = unit
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def sample(self) -> Dict[str, object]:
        return {"name": self.name, "kind": self.kind,
                "help": self.help, "unit": self.unit,
                "labels": dict(self.labels), "value": float(self.value),
                "high_water": float(self.high_water)}


class MetricsRegistry:
    """Gauges keyed by (name, labels)."""

    def __init__(self):
        self._gauges: Dict[Tuple[str, Tuple], Gauge] = {}

    def gauge(self, name: str, help: str = "", unit: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        validate_metric_name(name)
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name, key[1], help, unit)
        return gauge

    def instruments(self) -> List[Gauge]:
        return [self._gauges[key] for key in sorted(self._gauges)]

    def collect(self) -> List[Dict[str, object]]:
        """One JSON-safe sample per gauge, sorted by identity."""
        return [gauge.sample() for gauge in self.instruments()]

    def snapshot(self) -> Dict[str, object]:
        """JSON round-trip exact: every container is a plain dict/list
        with string keys, so ``json.loads(json.dumps(s)) == s``."""
        return {"metrics": self.collect()}


# ---------------------------------------------------------------------------
# the live health monitor
# ---------------------------------------------------------------------------
#: bound on retained per-scrape rows (the gauges keep whole-run
#: high-water marks, so dropping old rows loses no peak information)
MAX_SAMPLES = 4096


class HealthMonitor:
    """Scrape the live system every ``interval`` engine cycles.

    Event-driven sampling that never schedules; every scrape reads
    only passive state.  Keeps structured per-scrape rows (bounded
    ring; each carries a ``counters`` snapshot of the stats registry),
    updates registry gauges (whose high-water marks cover the whole
    run), and invokes ``on_sample`` callbacks — the CLI's periodic
    ``repro top``-style console view hangs off those.
    """

    #: the scraped system (it owns the monitor, so held weakly)
    system = WeakAttribute()

    def __init__(self, system, registry: MetricsRegistry,
                 interval: int, top_k: int = 8):
        self.system = system
        self.registry = registry
        self.interval = max(1, int(interval))
        self.top_k = max(1, int(top_k))
        self.samples = deque(maxlen=MAX_SAMPLES)
        self.scrapes = 0
        self.on_sample: List[Callable[[dict], None]] = []
        #: first cycle at which the next scrape is due; the trace
        #: recorder calls :meth:`sample_at` once an event's timestamp
        #: reaches it
        self.next_due = self.interval
        self._last_events = 0
        self._last_ts = 0
        self._g_events = registry.gauge(
            "engine.events_per_cycle",
            help="executed events per cycle over the last scrape "
                 "interval", unit="events/cycle")
        self._g_pending = registry.gauge(
            "engine.pending", help="events in the scheduler queue",
            unit="events")
        self._g_nonidle = registry.gauge(
            "engine.pending_nonidle",
            help="non-idle (real work) events pending", unit="events")
        self._home_gauges = {}
        for home in system.homes:
            self._home_gauges[home.name] = (
                registry.gauge("home.queue_depth",
                               help="deferred + in-transaction requests "
                                    "held at the home",
                               unit="requests",
                               labels={"home": home.name}),
                registry.gauge("home.bank_backlog",
                               help="cycles until the busiest bank "
                                    "frees", unit="cycles",
                               labels={"home": home.name}))
        self._mshr_gauges = {}
        for l1 in system.l1s.values():
            self._mshr_gauges[l1.name] = (
                registry.gauge("mshr.occupancy",
                               help="allocated MSHR entries",
                               unit="entries",
                               labels={"cache": l1.name}),
                registry.gauge("mshr.high_water",
                               help="peak simultaneous MSHR entries",
                               unit="entries",
                               labels={"cache": l1.name}))
        #: per-link gauge pairs, created as links first appear
        self._link_gauges: Dict[Tuple[str, str], Tuple[Gauge, Gauge]] = {}
        self._transport_gauges = None
        if hasattr(system.network, "transport_snapshot"):
            self._transport_gauges = (
                registry.gauge("transport.unacked",
                               help="messages awaiting transport ack",
                               unit="messages"),
                registry.gauge("transport.rto_max",
                               help="largest live retransmit timeout",
                               unit="cycles"),
                registry.gauge("transport.oldest_unacked_age",
                               help="age of the oldest unacked message",
                               unit="cycles"),
                registry.gauge("transport.reorder_buffered",
                               help="arrivals held for in-order "
                                    "delivery", unit="messages"))

    def _new_link_gauges(self, src: str, dst: str
                         ) -> Tuple[Gauge, Gauge]:
        labels = {"src": src, "dst": dst}
        pair = self._link_gauges[(src, dst)] = (
            self.registry.gauge("link.in_flight",
                                help="undelivered messages on the link",
                                unit="messages", labels=labels),
            self.registry.gauge("link.backlog",
                                help="cycles until the link is free",
                                unit="cycles", labels=labels))
        return pair

    def sample_at(self, ts: int) -> None:
        system = self.system
        engine = system.engine
        events = engine.events_executed
        window = ts - self._last_ts
        rate = ((events - self._last_events) / window) if window > 0 \
            else 0.0
        self._last_events, self._last_ts = events, ts
        self._g_events.set(rate)
        pending = engine.pending()
        nonidle = engine.pending_non_idle()
        self._g_pending.set(pending)
        self._g_nonidle.set(nonidle)

        homes: Dict[str, Dict[str, float]] = {}
        for home in system.homes:
            deferred = sum(len(q) for q in home._deferred.values())
            txns = len(home._txns)
            backlog = max(home._bank_free) - ts if home._bank_free else 0
            if backlog < 0:
                backlog = 0
            queue_gauge, bank_gauge = self._home_gauges[home.name]
            queue_gauge.set(deferred + txns)
            bank_gauge.set(backlog)
            homes[home.name] = {"deferred": deferred, "txns": txns,
                                "bank_backlog": backlog}

        mshr: Dict[str, Dict[str, float]] = {}
        for l1 in system.l1s.values():
            occupancy = len(l1.mshrs)
            occ_gauge, hw_gauge = self._mshr_gauges[l1.name]
            occ_gauge.set(occupancy)
            hw_gauge.set(l1.mshrs.high_water)
            mshr[l1.name] = {"occupancy": occupancy,
                             "capacity": l1.mshrs.capacity,
                             "high_water": l1.mshrs.high_water}

        # the fabric's snapshots age their rows against engine.now,
        # which is the ts every scrape is taken at
        network = system.network
        links: List[Dict[str, object]] = []
        for link in network.links_snapshot():
            src, dst = link["src"], link["dst"]
            in_flight = link["in_flight"]
            backlog = link["free"] - ts
            if backlog < 0:
                backlog = 0
            gauges = self._link_gauges.get((src, dst))
            if gauges is None:
                gauges = self._new_link_gauges(src, dst)
            flight_gauge, backlog_gauge = gauges
            flight_gauge.set(in_flight)
            backlog_gauge.set(backlog)
            if in_flight or backlog:
                links.append({
                    "src": src, "dst": dst, "in_flight": in_flight,
                    "backlog": backlog, "oldest_age": link["oldest_age"]})

        transport = None
        if self._transport_gauges is not None:
            snapshot = network.transport_snapshot()
            live = [row for row in snapshot["send"] if row["unacked"]]
            unacked = sum(row["unacked"] for row in live)
            rto_max = max((row["rto"] for row in live), default=0)
            oldest_age = max((row["oldest_age"] for row in live),
                             default=0)
            buffered = sum(row["buffered"] for row in snapshot["recv"])
            g_unacked, g_rto, g_oldest, g_buffered = \
                self._transport_gauges
            g_unacked.set(unacked)
            g_rto.set(rto_max)
            g_oldest.set(oldest_age)
            g_buffered.set(buffered)
            transport = {"unacked": unacked, "rto_max": rto_max,
                         "oldest_unacked_age": oldest_age,
                         "reorder_buffered": buffered}

        row = {
            "ts": ts,
            "engine": {"events": events,
                       "events_per_cycle": round(rate, 4),
                       "pending": pending, "pending_nonidle": nonidle},
            "homes": homes,
            "mshr": mshr,
            "links": links,
            "counters": system.stats.counters(),
        }
        if transport is not None:
            row["transport"] = transport
        self.samples.append(row)
        self.scrapes += 1
        self.next_due = (ts // self.interval + 1) * self.interval
        for callback in self.on_sample:
            callback(row)

    def finalize(self, now: int) -> None:
        """Record the end-of-run state (idempotent per timestamp)."""
        if not self.samples or self.samples[-1]["ts"] < now:
            self.sample_at(now)

    # -- summaries ---------------------------------------------------------
    def last_sample(self) -> Optional[dict]:
        return self.samples[-1] if self.samples else None

    def health_summary(self) -> Dict[str, object]:
        """Last scrape + whole-run peaks, for diagnostic dumps and the
        JSON health artifact."""
        peaks = {}
        for gauge in self.registry.instruments():
            if gauge.high_water > 0:
                label = "".join(f"{{{k}={v}}}" for k, v in gauge.labels)
                peaks[f"{gauge.name}{label}"] = gauge.high_water
        summary: Dict[str, object] = {
            "interval": self.interval,
            "scrapes": self.scrapes,
            "peaks": peaks,
        }
        last = self.last_sample()
        if last is not None:
            # the counter snapshot would bloat every diagnostic dump
            summary["last"] = {key: value for key, value in last.items()
                               if key != "counters"}
        spans = self.system.spans
        if spans is not None and spans.completed:
            summary["critical_path"] = {
                "stage_totals": dict(spans.stage_totals),
                # lists, not tuples, so the summary JSON-round-trips
                "top_lines": [list(kv) for kv in
                              spans.top_lines(self.top_k)],
                "top_shards": [list(kv) for kv in
                               spans.top_shards(self.top_k)],
                "top_links": [list(kv) for kv in
                              spans.top_links(self.top_k)],
            }
        return summary

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe copy: registry + retained scrape rows."""
        return {
            "interval": self.interval,
            "scrapes": self.scrapes,
            "registry": self.registry.snapshot(),
            "samples": [dict(row) for row in self.samples],
        }


def format_health(monitor: HealthMonitor, top_k: int = 0) -> str:
    """``repro top``-style console health view from the last scrape."""
    row = monitor.last_sample()
    if row is None:
        return "== health ==\n  (no scrape yet)"
    k = top_k or monitor.top_k
    engine = row["engine"]
    lines = [f"== health @ cycle {row['ts']:,} "
             f"(scrape #{monitor.scrapes}, every "
             f"{monitor.interval:,} cycles) ==",
             f"  engine: {engine['events_per_cycle']:.2f} events/cycle, "
             f"{engine['pending']:,} pending "
             f"({engine['pending_nonidle']:,} non-idle)"]
    hot_homes = sorted(row["homes"].items(),
                       key=lambda kv: -(kv[1]["deferred"] + kv[1]["txns"]
                                        + kv[1]["bank_backlog"]))[:k]
    for name, home in hot_homes:
        lines.append(f"  home {name:<8} queue={home['deferred']}+"
                     f"{home['txns']} bank_backlog="
                     f"{home['bank_backlog']}")
    hot_mshrs = sorted(row["mshr"].items(),
                       key=lambda kv: -kv[1]["occupancy"])[:k]
    for name, entry in hot_mshrs:
        if entry["occupancy"] or entry["high_water"]:
            lines.append(
                f"  mshr {name:<10} {entry['occupancy']}/"
                f"{entry['capacity']} (peak {entry['high_water']})")
    hot_links = sorted(row["links"],
                       key=lambda l: -(l["in_flight"]
                                       + l["backlog"]))[:k]
    for link in hot_links:
        lines.append(f"  link {link['src']}->{link['dst']}: "
                     f"in_flight={link['in_flight']} "
                     f"backlog={link['backlog']} "
                     f"oldest_age={link['oldest_age']}")
    transport = row.get("transport")
    if transport is not None:
        lines.append(
            f"  transport: unacked={transport['unacked']} "
            f"rto_max={transport['rto_max']} "
            f"oldest_age={transport['oldest_unacked_age']} "
            f"buffered={transport['reorder_buffered']}")
    spans = monitor.system.spans
    if spans is not None and spans.completed:
        top = spans.top_shards(k)
        if top:
            detail = "  ".join(f"{name}={cycles:,.0f}"
                               for name, cycles in top)
            lines.append(f"  hot shards (critical-path queue cycles): "
                         f"{detail}")
        top = spans.top_links(k)
        if top:
            detail = "  ".join(f"{name}={cycles:,.0f}"
                               for name, cycles in top)
            lines.append(f"  hot links (critical-path flight cycles): "
                         f"{detail}")
    return "\n".join(lines)
