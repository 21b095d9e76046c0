"""Byte identity of the one-pass Chrome trace writer.

``write_chrome_trace`` formats each record straight to JSON text.  The
oracle below is the dict-building writer it replaced, kept verbatim:
``chrome_trace_events`` + ``counter_events`` build one dict per record
and ``json.dump`` encodes the payload.  For every input the two files
must be equal byte for byte.
"""

import json
from typing import Dict, Iterable, List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TraceEvent, validate_chrome_trace, write_chrome_trace
from repro.obs.export import load_chrome_trace
from repro.system import TraceConfig, build_system, scaled_config
from repro.workloads import MICROBENCHMARKS


# ---------------------------------------------------------------------------
# oracle: the dict-building writer, as it was
# ---------------------------------------------------------------------------
def chrome_trace_events(events: Iterable[TraceEvent], pid: int = 0,
                        process_name: str = "sim") -> List[dict]:
    out: List[dict] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": process_name},
    }]
    tids: Dict[str, int] = {}
    for event in map(TraceEvent._make, events):
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
    out: List[dict] = []
    for row in rows:
        ts, counters = row["ts"], row["counters"]
        for name in sorted(counters):
            out.append({"ph": "C", "pid": pid, "name": name, "ts": ts,
                        "args": {"value": counters[name]}})
    return out


def oracle_write(path: str, sections: Sequence[dict]) -> dict:
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


def assert_identical(tmp_path, sections):
    """Both writers on ``sections``; returns the parsed payload."""
    ours, theirs = tmp_path / "new.json", tmp_path / "oracle.json"
    count = write_chrome_trace(str(ours), sections)
    payload = oracle_write(str(theirs), sections)
    assert ours.read_bytes() == theirs.read_bytes()
    assert count == len(payload["traceEvents"])
    return payload


# ---------------------------------------------------------------------------
# (a) real traced runs: two processes, both with counter tracks
# ---------------------------------------------------------------------------
def _traced_section(config_name):
    workload = MICROBENCHMARKS["Indirection"](
        num_cpus=2, num_gpus=2, warps_per_cu=1)
    system = build_system(scaled_config(
        config_name, 2, 2, trace=TraceConfig(monitor_interval=1000)))
    system.load_workload(workload)
    system.run(max_events=5_000_000)
    return {"name": config_name, "events": list(system.tracer.events()),
            "samples": list(system.monitor.samples)}


def test_real_runs_match_the_oracle_byte_for_byte(tmp_path):
    sections = [_traced_section("HMG"), _traced_section("SDD")]
    assert all(section["samples"] for section in sections)
    payload = assert_identical(tmp_path, sections)
    events = payload["traceEvents"]
    assert {event["pid"] for event in events} == {0, 1}
    assert {event["ph"] for event in events} == {"M", "X", "i", "C"}
    assert validate_chrome_trace(
        load_chrome_trace(str(tmp_path / "new.json"))) == []


# ---------------------------------------------------------------------------
# (b) hand-built events: every optional field, escaping, odd values
# ---------------------------------------------------------------------------
AWKWARD = ['say "hi"', "back\\slash", "café → \U0001f600",
           "tab\tnew\nline", "ctl\x01\x7f", "lone \ud800 surrogate"]


def _hand_built_events():
    events = [
        TraceEvent(0, "l1.state", "cpu0.l1"),                  # all unset
        TraceEvent(3, "net.send", "cpu0.l1", dst="llc", line=0x40,
                   req_id=7, cls="ReqV", dur=12, hop="direct",
                   info="ReqV"),                               # all set
        TraceEvent(4, "net.deliver", None, dst="llc"),          # "?" track
        TraceEvent(5, "home.busy", "", line=0, req_id=0,
                   dur=0),                                     # "?" again
        TraceEvent(6, "mshr", "gpu0.l1", line=(1 << 70) + 0xabc,
                   req_id=1 << 64, dur=1 << 40),               # big ints
        TraceEvent(7, "dram", "dram", dur=-3, info="neg dur"),  # instant
        TraceEvent(8.5, "plain", "cpu1.l1", dur=2.25),          # float ts
        TraceEvent(9, "flag", "cpu1.l1", req_id=False, dur=True),
    ]
    for offset, text in enumerate(AWKWARD):
        events.append(TraceEvent(
            10 + offset, f"k{offset}.{text}", text, dst=text, cls=text,
            hop=text, info=text, dur=offset))
    return events


COUNTER_ROWS = [
    {"ts": 10, "counters": {"b.float": 3.0, "a.int": 2,
                            "c.big": 10 ** 30, "d.é\"\\": 0.1,
                            "e.flag": True}},
    {"ts": 20, "counters": {}},
    {"ts": 30, "counters": {"b.float": float("inf"),
                            "a.int": -(1 << 63), "nan": float("nan"),
                            "neg": float("-inf"), "tiny": 5e-324}},
]


def test_hand_built_events_match_the_oracle_byte_for_byte(tmp_path):
    events = _hand_built_events()
    sections = [
        {"name": "with \"quotes\" and é", "events": events,
         "samples": COUNTER_ROWS},
        {"events": events},                       # no name -> "sim1"
        {"name": 42, "events": [], "samples": []},  # str() of the name
        {"name": "counters only", "events": [], "samples": COUNTER_ROWS},
    ]
    payload = assert_identical(tmp_path, sections)
    names = [event["args"]["name"] for event in payload["traceEvents"]
             if event["name"] == "process_name"]
    assert names[1:3] == ["sim1", "42"]
    tracks = {event["args"]["name"] for event in payload["traceEvents"]
              if event["name"] == "thread_name"}
    assert "?" in tracks and "" not in tracks


def test_no_sections_writes_an_empty_trace(tmp_path):
    assert_identical(tmp_path, [])
    assert (tmp_path / "new.json").read_text() == \
        '{"traceEvents": [], "displayTimeUnit": "ms"}'


_texts = st.text(max_size=8)
_maybe = st.none() | _texts
_events = st.builds(
    TraceEvent, ts=st.integers(0, 1 << 40), kind=_texts,
    src=_maybe, dst=_maybe, line=st.none() | st.integers(0, 1 << 48),
    req_id=st.none() | st.integers(-1, 1 << 64), cls=_maybe,
    dur=st.integers(-1, 1 << 20), hop=_maybe, info=_maybe)
_values = st.booleans() | st.integers() | st.floats()
_rows = st.lists(st.builds(
    dict, ts=st.integers(0, 1 << 40),
    counters=st.dictionaries(_texts, _values, max_size=4)), max_size=3)
_sections = st.lists(st.fixed_dictionaries(
    {"events": st.lists(_events, max_size=12)},
    optional={"name": _texts, "samples": _rows}), max_size=3)


@settings(max_examples=60, deadline=None)
@given(sections=_sections)
def test_random_sections_match_the_oracle_byte_for_byte(tmp_path_factory,
                                                        sections):
    assert_identical(tmp_path_factory.mktemp("chrome"), sections)
