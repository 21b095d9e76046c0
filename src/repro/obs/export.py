"""Trace exporters: Chrome/Perfetto JSON and per-address timelines.

The Chrome trace-event format (loadable by ``chrome://tracing`` and
https://ui.perfetto.dev) maps naturally onto the recorder's stream:
each simulated component becomes a thread track, span-like events
(``dur > 0``) become complete ("X") events, instants become "i"
events, and the health monitor's per-scrape counter snapshots become
counter ("C") tracks.  Cycle timestamps are written directly as
microseconds — Perfetto's absolute units are irrelevant for a
simulator; relative spans are what matter.

``validate_chrome_trace`` is the checker used by tests and the CI
trace-smoke job: the payload must parse, carry a ``traceEvents`` list,
and have monotonically non-decreasing timestamps per track.
"""

from __future__ import annotations

import gc
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .trace import TraceEvent


def chrome_trace_events(events: Iterable[TraceEvent], pid: int = 0,
                        process_name: str = "sim") -> List[dict]:
    """Render recorder events as Chrome trace-event dicts for ``pid``."""
    out: List[dict] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": process_name},
    }]
    tids: Dict[str, int] = {}
    for event in events:
        track = event.src or "?"
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids)
            out.append({"ph": "M", "pid": pid, "tid": tid,
                        "name": "thread_name", "args": {"name": track}})
        args: Dict[str, object] = {}
        if event.line is not None:
            args["line"] = f"0x{event.line:x}"
        if event.req_id is not None:
            args["req_id"] = event.req_id
        if event.dst is not None:
            args["dst"] = event.dst
        if event.cls is not None:
            args["class"] = event.cls
        if event.hop is not None:
            args["hop"] = event.hop
        if event.info is not None:
            args["info"] = event.info
        name = event.kind if event.info is None \
            else f"{event.kind} {event.info}"
        record = {"name": name, "cat": event.kind.split(".", 1)[0],
                  "pid": pid, "tid": tid, "ts": event.ts, "args": args}
        if event.dur > 0:
            record["ph"] = "X"
            record["dur"] = event.dur
        else:
            record["ph"] = "i"
            record["s"] = "t"
        out.append(record)
    return out


def counter_events(rows: Sequence[dict], pid: int = 0) -> List[dict]:
    """Render scrape rows as Chrome counter tracks.

    ``rows`` are :class:`~repro.obs.monitor.HealthMonitor` samples;
    each row's ``counters`` snapshot becomes one point per counter at
    the row's ``ts``.
    """
    out: List[dict] = []
    for row in rows:
        ts, counters = row["ts"], row["counters"]
        for name in sorted(counters):
            out.append({"ph": "C", "pid": pid, "name": name, "ts": ts,
                        "args": {"value": counters[name]}})
    return out


def write_chrome_trace(path: str, sections: Sequence[dict]) -> dict:
    """Write one Chrome trace file combining several sections.

    Each section is ``{"name": ..., "events": [TraceEvent, ...],
    "samples": optional monitor scrape rows}`` and becomes one
    process (pid) in the trace — ``repro run --config all`` emits one
    file with a process per configuration.  Returns the payload.

    The payload is a large acyclic tree of fresh dicts, so cyclic
    garbage collection is paused while it is built and written: a
    collection pass over it could free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        trace_events: List[dict] = []
        for pid, section in enumerate(sections):
            trace_events.extend(chrome_trace_events(
                section["events"], pid=pid,
                process_name=str(section.get("name", f"sim{pid}"))))
            rows = section.get("samples")
            if rows:
                trace_events.extend(counter_events(rows, pid=pid))
        payload = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
        with open(path, "w") as handle:
            json.dump(payload, handle)
        return payload
    finally:
        if enabled:
            gc.enable()


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


def format_timeline(events: Iterable[TraceEvent],
                    line: Optional[int] = None,
                    device: Optional[str] = None,
                    limit: Optional[int] = None) -> str:
    """Human-readable timeline, optionally restricted to one line
    address and/or one device (matched against src or dst)."""
    want_line: Optional[int] = None if line is None else line & ~63
    rows: List[str] = []
    for event in events:
        if want_line is not None and (
                event.line is None or (event.line & ~63) != want_line):
            continue
        if device is not None and \
                event.src != device and event.dst != device:
            continue
        detail = []
        if event.info is not None:
            detail.append(str(event.info))
        if event.line is not None:
            detail.append(f"0x{event.line:x}")
        if event.dst is not None:
            detail.append(f"-> {event.dst}")
        if event.req_id is not None:
            detail.append(f"id={event.req_id}")
        if event.cls is not None:
            detail.append(f"class={event.cls}")
        if event.hop is not None:
            detail.append(f"hop={event.hop}")
        if event.dur:
            detail.append(f"dur={event.dur}")
        rows.append(f"{event.ts:>10}  {event.src:<12} "
                    f"{event.kind:<12} {' '.join(detail)}")
    if limit is not None and len(rows) > limit:
        omitted = len(rows) - limit
        rows = rows[-limit:]
        rows.insert(0, f"... ({omitted} earlier events omitted)")
    header = f"{'cycle':>10}  {'where':<12} {'event':<12} detail"
    return "\n".join([header] + rows) if rows else \
        header + "\n(no matching events)"
