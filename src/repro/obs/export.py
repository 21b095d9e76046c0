"""Trace exporters: Chrome/Perfetto JSON and per-address timelines.

The Chrome trace-event format (loadable by ``chrome://tracing`` and
https://ui.perfetto.dev) maps naturally onto the recorder's stream:
each simulated component becomes a thread track, span-like events
(``dur > 0``) become complete ("X") events, instants become "i"
events, and the health monitor's per-scrape counter snapshots become
counter ("C") tracks.  Cycle timestamps are written directly as
microseconds — Perfetto's absolute units are irrelevant for a
simulator; relative spans are what matter.

``write_chrome_trace`` formats each record straight from the
recorder's event tuples to JSON text, byte for byte what ``json.dump``
writes for the equivalent dict (key order, separators, ASCII escaping)
but without building it: ``json.dump`` runs CPython's pure-Python
encoder, as slow as the traced simulation.

``validate_chrome_trace`` is the checker used by tests and the CI
trace-smoke job: the payload must parse, carry a ``traceEvents`` list,
and have monotonically non-decreasing timestamps per track.

``chrome_section``, ``write_prometheus`` and ``write_health_json`` are
the three telemetry exports of one monitored ``System``; ``repro run``
and each traced sweep cell write exactly these.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _str
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .prometheus import prometheus_text, registry_samples, stats_samples


def _json(value: object) -> str:
    """``value`` as ``json.dump`` writes it; strs and ints skip the
    generic encoder."""
    kind = type(value)
    if kind is str:
        return _str(value)
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value)


def _args_tail(*fields) -> str:
    """The ``dst``/``class``/``hop``/``info`` args of one record, each
    preceded by ``", "``."""
    return "".join(f', "{key}": {_json(value)}'
                   for key, value in zip(("dst", "class", "hop", "info"),
                                         fields) if value is not None)


def _section_records(pid: int, section: dict) -> Iterator[str]:
    """The JSON text of one section's records: process metadata, then
    each event (preceded by its track's thread metadata the first time
    the track appears), then one point per counter of each scrape row
    (:class:`~repro.obs.monitor.HealthMonitor` samples) at its ``ts``.

    Events are tuples in ``TraceEvent`` field order.  The name/cat head
    and the args tail are formatted once per ``(kind, info)`` and
    ``(dst, cls, hop, info)``; ints skip :func:`_json`."""
    name = str(section.get("name", f"sim{pid}"))
    yield (f'{{"ph": "M", "pid": {pid}, "name": "process_name", '
           f'"args": {{"name": {_str(name)}}}}}')
    tids: Dict[str, int] = {}
    heads: Dict[tuple, str] = {}
    tails: Dict[tuple, str] = {}
    for ts, kind, src, dst, line, req_id, cls, dur, hop, info, _ \
            in section["events"]:
        track = src or "?"
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids)
            yield (f'{{"ph": "M", "pid": {pid}, "tid": {tid}, '
                   f'"name": "thread_name", '
                   f'"args": {{"name": {_json(track)}}}}}')
        head = heads.get((kind, info))
        if head is None:
            label = kind if info is None else f"{kind} {info}"
            head = heads[kind, info] = (
                f'{{"name": {_str(label)}, '
                f'"cat": {_str(kind.split(".", 1)[0])}, "pid": {pid}, '
                f'"tid": ')
        args = tails.get((dst, cls, hop, info))
        if args is None:
            args = tails[dst, cls, hop, info] = \
                _args_tail(dst, cls, hop, info)
        if req_id is not None:
            args = (f', "req_id": '
                    f'{req_id if type(req_id) is int else _json(req_id)}'
                    f'{args}')
        if line is not None:
            args = f', "line": "0x{line:x}"{args}'
        record = (f'{head}{tid}, '
                  f'"ts": {ts if type(ts) is int else _json(ts)}, '
                  f'"args": {{{args[2:]}}}')
        if dur > 0:
            yield (f'{record}, "ph": "X", '
                   f'"dur": {dur if type(dur) is int else _json(dur)}}}')
        else:
            yield f'{record}, "ph": "i", "s": "t"}}'
    for row in section.get("samples") or ():
        ts, counters = _json(row["ts"]), row["counters"]
        for counter in sorted(counters):
            yield (f'{{"ph": "C", "pid": {pid}, "name": {_json(counter)}, '
                   f'"ts": {ts}, '
                   f'"args": {{"value": {_json(counters[counter])}}}}}')


def write_chrome_trace(path: str, sections: Sequence[dict]) -> int:
    """Write one Chrome trace file combining several sections.

    Each section is ``{"name": ..., "events": [event tuple, ...],
    "samples": optional monitor scrape rows}`` and becomes one
    process (pid) in the trace — ``repro run --config all`` emits one
    file with a process per configuration.  Returns the number of
    trace-event records written.

    One pass over the events: records are formatted as text and
    written in batches, so no dict per event is ever built.
    """
    records = chain.from_iterable(
        _section_records(pid, section)
        for pid, section in enumerate(sections))
    count = 0
    with open(path, "w") as handle:
        handle.write('{"traceEvents": [')
        while batch := list(islice(records, 4096)):
            handle.write((", " if count else "") + ", ".join(batch))
            count += len(batch)
        handle.write('], "displayTimeUnit": "ms"}')
    return count


def chrome_section(system, name: str) -> dict:
    """A traced ``System``'s :func:`write_chrome_trace` section: its
    recorded events plus, when monitored, the scrape rows that become
    counter tracks."""
    monitor = system.monitor
    return {"name": name, "events": system.tracer.events(),
            "samples": monitor.samples if monitor is not None else ()}


def write_prometheus(path: str, system) -> None:
    """A monitored ``System``'s registry gauges and raw counters as
    Prometheus text exposition."""
    with open(path, "w") as handle:
        handle.write(prometheus_text(registry_samples(system.registry)
                                     + stats_samples(system.stats)))


def write_health_json(path: str, system, workload: str) -> None:
    """A monitored ``System``'s health summary, scrape rows and
    critical-path rollups as one JSON document."""
    payload = {"workload": workload, "config": system.config.name,
               "health": system.monitor.health_summary(),
               "monitor": system.monitor.snapshot(),
               "spans": system.spans.snapshot()}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_chrome_trace(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def validate_chrome_trace(payload: dict) -> List[str]:
    """Structural checks; returns a list of problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    last_ts: Dict[tuple, float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{index} is not an object")
            continue
        ph = event.get("ph")
        if ph is None:
            problems.append(f"event #{index} has no ph")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event #{index} ({ph}) has no numeric ts")
            continue
        if ph == "C":
            track = (event.get("pid"), "C", event.get("name"))
        else:
            track = (event.get("pid"), "T", event.get("tid"))
        previous = last_ts.get(track)
        if previous is not None and ts < previous:
            problems.append(
                f"event #{index}: ts {ts} < {previous} on track {track}")
        last_ts[track] = ts
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"event #{index}: X event without dur")
    return problems


def format_timeline(events: Iterable[tuple],
                    line: Optional[int] = None,
                    device: Optional[str] = None,
                    limit: Optional[int] = None) -> str:
    """Human-readable timeline of event tuples, optionally restricted
    to one line address and/or one device (matched against src or dst)."""
    want_line: Optional[int] = None if line is None else line & ~63
    rows: List[str] = []
    for ts, kind, src, dst, at, req_id, cls, dur, hop, info, _ in events:
        if want_line is not None and (
                at is None or (at & ~63) != want_line):
            continue
        if device is not None and src != device and dst != device:
            continue
        detail = []
        if info is not None:
            detail.append(str(info))
        if at is not None:
            detail.append(f"0x{at:x}")
        if dst is not None:
            detail.append(f"-> {dst}")
        if req_id is not None:
            detail.append(f"id={req_id}")
        if cls is not None:
            detail.append(f"class={cls}")
        if hop is not None:
            detail.append(f"hop={hop}")
        if dur:
            detail.append(f"dur={dur}")
        rows.append(f"{ts:>10}  {src:<12} {kind:<12} {' '.join(detail)}")
    if limit is not None and len(rows) > limit:
        omitted = len(rows) - limit
        rows = rows[-limit:]
        rows.insert(0, f"... ({omitted} earlier events omitted)")
    header = f"{'cycle':>10}  {'where':<12} {'event':<12} detail"
    return "\n".join([header] + rows) if rows else \
        header + "\n(no matching events)"
