"""Per-event work on the traced path, counted by the profiler.

One traced, monitored cell (ReuseS on SDD at 2/2x1 with a health
monitor) runs under cProfile, and the call counts pin the shape of the
trace path:

* every trace event is one :meth:`TraceRecorder.record` call, which
  does the span dispatch and the monitor's due check itself: no
  collector ``__call__`` frame runs per event;
* each span handler runs once per event of its kind, called by
  ``record`` itself, and no other event reaches a handler;
* the traced delivery callable calls ``record`` itself, with no frame
  in between.
"""

import cProfile
import os
import pstats
from collections import Counter

import pytest

import repro
from repro.system import TraceConfig, build_system, scaled_config
from repro.workloads import MICROBENCHMARKS

PACKAGE = os.path.dirname(repro.__file__) + os.sep
TRACE = os.path.join(PACKAGE, "obs", "trace.py")
SPANS = os.path.join(PACKAGE, "obs", "spans.py")
NOC = os.path.join(PACKAGE, "network", "noc.py")


@pytest.fixture(scope="module")
def profiled():
    workload = MICROBENCHMARKS["ReuseS"](num_cpus=2, num_gpus=2,
                                         warps_per_cu=1)
    system = build_system(scaled_config(
        "SDD", 2, 2, trace=TraceConfig(monitor_interval=2000)))
    system.load_workload(workload)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run()
    profiler.disable()
    calls = Counter()
    callers = {}
    for (filename, _, name), (_, count, _, _, by) in \
            pstats.Stats(profiler).stats.items():
        calls[filename, name] += count
        row = callers.setdefault((filename, name), Counter())
        for (caller_file, _, caller_name), stat in by.items():
            row[caller_file, caller_name] += stat[0]
    return system, calls, callers


@pytest.mark.tier1
def test_one_record_call_per_event(profiled):
    system, calls, _ = profiled
    tracer = system.tracer
    assert tracer.seen > 0 and system.monitor.scrapes > 0
    assert calls[TRACE, "record"] == tracer.seen
    assert (SPANS, "__call__") not in calls


@pytest.mark.tier1
def test_each_span_handler_runs_once_per_event_of_its_kind(profiled):
    system, calls, callers = profiled
    tracer = system.tracer
    # no ring filter and no wrap: the ring holds every event
    assert tracer.filter is None and len(tracer) == tracer.seen
    kinds = Counter(event[1] for event in tracer.events())
    handlers = system.spans.handlers()
    assert tracer.handlers == handlers
    for kind, handler in handlers.items():
        code = handler.__func__.__code__
        key = code.co_filename, code.co_name
        assert calls[key] == kinds[kind], kind
        if kinds[kind]:     # called by record itself, not a wrapper
            assert set(callers[key]) == {(TRACE, "record")}, kind
    assert kinds["net.send"] and kinds["l1.complete"]


@pytest.mark.tier1
def test_traced_delivery_records_without_a_middle_frame(profiled):
    system, calls, callers = profiled
    delivered = sum(1 for event in system.tracer.events()
                    if event[1] == "net.deliver")
    assert delivered == system.stats.get("network.messages") > 0
    assert calls[NOC, "deliver"] == delivered
    assert callers[TRACE, "record"][NOC, "deliver"] == delivered
