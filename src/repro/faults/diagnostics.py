"""Structured deadlock / invariant diagnostic dumps.

One formatter serves both failure paths: the liveness watchdog's
:class:`~repro.faults.watchdog.DeadlockError` and the invariant
checker's ``on_violation`` hook produce the same dump, so a protocol
bug reads identically no matter which detector fired first.

:func:`collect_diagnostic` returns a JSON-safe dict (tests and tooling
consume it); :func:`format_diagnostic` renders it for humans.  Both
walk a :class:`~repro.system.builder.System`'s ``l1s`` and ``homes``
(the miniature protocol-test systems are ``System`` subclasses too).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

#: cap on how many implicated cache lines get a full state cross-section
MAX_LINES_DUMPED = 16

#: trace events quoted in a dump when the run was traced
TRACE_TAIL_EVENTS = 50


def _state_name(state) -> str:
    if isinstance(state, enum.Enum):
        return str(state.value)
    return str(state)


def _line_view(resident) -> Dict[str, object]:
    """One cache line as (line state, per-word states, owners, data)."""
    return {
        "state": _state_name(resident.state),
        "words": "".join(_state_name(s)[0] for s in resident.word_states),
        "owners": [owner for owner in resident.owner],
        "data": list(resident.data),
        "pinned": resident.pinned,
        "blocked_mask": int(resident.meta.get("blocked_mask", 0)),
    }


def _device_view(l1, now: int) -> Dict[str, object]:
    inflight = []
    for req_id, entry in sorted(l1._inflight.items()):
        inflight.append({
            "req_id": req_id,
            "line": f"0x{entry.line:x}",
            "purpose": entry.purpose,
            "remaining_mask": entry.remaining,
            "age": now - entry.issued_at,
        })
    mshr_lines = []
    for line in l1.mshrs.lines():
        entry = l1.mshrs.lookup(line)
        mshr_lines.append({
            "line": f"0x{line:x}",
            "requests": len(entry.all_requests()),
            "age": now - entry.allocated_at,
        })
    view = {
        "inflight": inflight,
        "mshr": mshr_lines,
        "store_buffer": len(l1.store_buffer),
        "pending_writes": l1._pending_writes,
    }
    if l1.tu is not None:
        view["tu"] = _tu_view(l1.tu)
    return view


def _tu_view(tu) -> Dict[str, object]:
    """TU transient state: retained write-back data and retry budget."""
    view: Dict[str, object] = {"type": type(tu).__name__}
    retained = getattr(tu, "_tu_wb", None)
    if retained:
        view["retained_wb_lines"] = [f"0x{line:x}" for line in retained]
    own = getattr(tu, "_own_req_lines", None)
    if own:
        view["own_writebacks"] = {req: f"0x{line:x}"
                                  for req, line in own.items()}
    retries = getattr(tu, "_retries", None)
    if retries:
        view["nack_retries"] = dict(retries)
    return view


def _home_view(home) -> Dict[str, object]:
    txns = []
    for txn in home._txns.values():
        # SpandexHome txns carry kind/mask/data_mask; the MESI
        # directory's DirTxn only acks_needed/want_data
        txns.append({
            "txn_id": txn.txn_id,
            "line": f"0x{txn.line:x}",
            "kind": getattr(txn, "kind", type(txn).__name__),
            "mask": getattr(txn, "mask", 0),
            "acks_needed": txn.acks_needed,
            "data_mask": getattr(txn, "data_mask", 0),
        })
    deferred = {f"0x{line:x}": len(queue) for line, queue
                in home._deferred.items()}
    fetching = [f"0x{line:x}" for line in home._fetching]
    return {"txns": txns, "deferred": deferred, "fetching": fetching}


def _implicated_lines(system, stalled) -> List[int]:
    lines = []
    for record in stalled or []:
        line = record.get("line")
        if isinstance(line, str):
            line = int(line, 16)
        if line is not None and line not in lines:
            lines.append(line)
    for l1 in system.l1s.values():
        for line in l1.mshrs.lines():
            if line not in lines:
                lines.append(line)
    for home in system.homes:
        for txn in home._txns.values():
            if txn.line not in lines:
                lines.append(txn.line)
    return lines[:MAX_LINES_DUMPED]


def collect_diagnostic(system, reason: str,
                       stalled: Optional[List[Dict]] = None
                       ) -> Dict[str, object]:
    """Snapshot every layer's state into a JSON-safe dict."""
    engine = system.engine
    now = engine.now
    diag: Dict[str, object] = {
        "reason": reason,
        "cycle": now,
        "stalled": list(stalled or []),
        "devices": {l1.name: _device_view(l1, now)
                    for l1 in system.l1s.values()},
        "homes": {home.name: _home_view(home) for home in system.homes},
    }
    context = system.verify_context
    if context:
        # set by repro.verify: litmus scenario name, configuration and
        # schedule seed/choices, so a dump is attributable and replayable
        diag["verify"] = dict(context)
    network = system.network
    diag["network"] = [{"delivery": time, "msg": repr(msg)}
                       for time, msg in network.in_flight()]
    # per-link fabric state: deadlock diagnosis usually implicates the
    # fabric, which older dumps said nothing about
    diag["fabric"] = network.links_snapshot()
    if hasattr(network, "transport_snapshot"):
        diag["transport"] = network.transport_snapshot()
    monitor = system.monitor
    if monitor is not None:
        # last health scrape + whole-run peaks + critical-path rollups
        # — where the contention was when the run died
        diag["health"] = monitor.health_summary()
    implicated = _implicated_lines(system, stalled)
    lines: Dict[str, Dict[str, object]] = {}
    for line in implicated:
        cross: Dict[str, object] = {}
        for holder in [*system.l1s.values(), *system.homes]:
            resident = holder.array.lookup(line, touch=False)
            if resident is not None:
                cross[holder.name] = _line_view(resident)
        lines[f"0x{line:x}"] = cross
    diag["lines"] = lines
    tracer = engine.tracer
    if tracer is not None:
        # The last trace events touching the implicated lines (or the
        # plain ring tail when nothing is implicated): how we got here.
        tail = tracer.tail(TRACE_TAIL_EVENTS,
                           lines=set(implicated) or None)
        diag["trace_tail"] = [event.to_dict() for event in tail]
    return diag


def format_diagnostic(diag: Dict[str, object]) -> str:
    """Render :func:`collect_diagnostic` output for a terminal."""
    lines = [f"== diagnostic @ cycle {diag.get('cycle', '?')}: "
             f"{diag.get('reason', '')} =="]
    verify = diag.get("verify")
    if verify:
        detail = " ".join(f"{key}={verify[key]}" for key in
                          sorted(verify))
        lines.append(f"  verify: {detail}")
    for record in diag.get("stalled", []):
        lines.append(f"  STALLED {record}")
    for name, view in diag.get("devices", {}).items():
        busy = view.get("inflight") or view.get("mshr") or \
            view.get("store_buffer") or view.get("pending_writes")
        if not busy:
            continue
        lines.append(f"  device {name}: "
                     f"store_buffer={view.get('store_buffer', 0)} "
                     f"pending_writes={view.get('pending_writes', 0)}")
        for entry in view.get("inflight", []):
            lines.append(f"    inflight req={entry['req_id']} "
                         f"line={entry['line']} {entry['purpose']} "
                         f"remaining=0x{entry['remaining_mask']:04x} "
                         f"age={entry['age']}")
        for entry in view.get("mshr", []):
            lines.append(f"    mshr line={entry['line']} "
                         f"requests={entry['requests']} "
                         f"age={entry['age']}")
        tu = view.get("tu")
        if tu:
            lines.append(f"    tu {tu}")
    for name, view in diag.get("homes", {}).items():
        if not (view["txns"] or view["deferred"] or view["fetching"]):
            continue
        lines.append(f"  home {name}:")
        for txn in view["txns"]:
            lines.append(f"    txn {txn['txn_id']} line={txn['line']} "
                         f"{txn['kind']} acks={txn['acks_needed']} "
                         f"data_mask=0x{txn['data_mask']:04x}")
        for line, count in view["deferred"].items():
            lines.append(f"    deferred {line}: {count} message(s)")
        if view["fetching"]:
            lines.append(f"    fetching: {', '.join(view['fetching'])}")
    network = diag.get("network", [])
    if network:
        lines.append(f"  in-flight messages ({len(network)}):")
        for entry in network[:32]:
            lines.append(f"    t={entry['delivery']} {entry['msg']}")
    fabric = diag.get("fabric", [])
    busy_links = [row for row in fabric
                  if row["in_flight"] or row["oldest_age"]]
    if busy_links:
        busy_links.sort(key=lambda row: (-row["oldest_age"],
                                         -row["in_flight"]))
        lines.append(f"  fabric links with traffic in flight "
                     f"({len(busy_links)} of {len(fabric)}):")
        for row in busy_links[:16]:
            lines.append(
                f"    {row['src']}->{row['dst']}: "
                f"in_flight={row['in_flight']} "
                f"oldest_age={row['oldest_age']} free={row['free']} "
                f"last_delivery={row['last_delivery']} "
                f"latency={row['latency']}")
    transport = diag.get("transport")
    if transport:
        pending = [row for row in transport.get("send", [])
                   if row["unacked"]]
        for row in pending:
            lines.append(
                f"  transport {row['src']}->{row['dst']}: "
                f"unacked={row['unacked']} "
                f"oldest_age={row['oldest_age']} rto={row['rto']} "
                f"next_seq={row['next_seq']}")
        buffered = [row for row in transport.get("recv", [])
                    if row["buffered"]]
        for row in buffered:
            lines.append(
                f"  transport {row['src']}->{row['dst']} (recv): "
                f"expect={row['expect']} buffered={row['buffered']}")
    health = diag.get("health")
    if health:
        lines.append(f"  health (scrape interval "
                     f"{health.get('interval', '?')}, "
                     f"{health.get('scrapes', 0)} scrapes):")
        peaks = sorted(health.get("peaks", {}).items(),
                       key=lambda kv: (-kv[1], kv[0]))
        for name, value in peaks[:12]:
            lines.append(f"    peak {name} = {value:g}")
        path = health.get("critical_path")
        if path:
            stages = path.get("stage_totals", {})
            detail = " ".join(f"{stage}={stages[stage]:,.0f}"
                              for stage in sorted(stages)
                              if stages[stage])
            lines.append(f"    critical path: {detail}")
            for label, key in (("shards", "top_shards"),
                               ("links", "top_links")):
                top = path.get(key) or []
                if top:
                    detail = " ".join(f"{name}={cycles:,.0f}"
                                      for name, cycles in top[:4])
                    lines.append(f"    hot {label}: {detail}")
    for line, cross in diag.get("lines", {}).items():
        lines.append(f"  line {line}:")
        for holder, view in cross.items():
            lines.append(f"    {holder}: state={view['state']} "
                         f"words={view['words']} "
                         f"owners={view['owners']} "
                         f"blocked=0x{view['blocked_mask']:04x}")
    tail = diag.get("trace_tail", [])
    if tail:
        lines.append(f"  last {len(tail)} trace events on implicated "
                     "lines:")
        for event in tail:
            detail = " ".join(
                f"{key}={event[key]}" for key in
                ("line", "dst", "req_id", "class", "hop", "dur", "info")
                if key in event)
            lines.append(f"    t={event['ts']} {event['src']} "
                         f"{event['kind']} {detail}")
    return "\n".join(lines)
