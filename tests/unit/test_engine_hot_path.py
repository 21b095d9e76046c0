"""Hot-path engine semantics: counters, cancellation, same-cycle order.

These tests pin the observable semantics of the calendar event queue
(`repro.sim.engine`): the O(1) live/non-idle counters across schedule,
cancel and execution; lazily cancelled entries never running, never
reordering the survivors and never outliving their cycle in storage;
same-cycle FIFO order for zero-delay events; ``args``-carrying events;
the scheduler bug fixes that shipped with the first kernel overhaul —

* ``Engine.run(max_events=N)`` no longer raises when the N-th event
  legitimately drained the queue (off-by-one);
* ``Network.in_flight()`` is exact at every cycle (read from the
  engine calendar's live delivery events);

and that simulated time is a plain attribute: a profiled cell runs no
``now``, ``events_executed`` or MSHR clock frame.
"""

import cProfile
import inspect
import os
import pstats

import pytest

import repro
from repro.coherence.messages import Message, MsgKind
from repro.network.noc import LatencyModel, Network
from repro.protocols.base import L1Controller
from repro.sim.engine import Engine, SimulationError
from repro.sim.stats import StatsRegistry
from repro.system import build_system, scaled_config
from repro.workloads import MICROBENCHMARKS


# ----------------------------------------------------------------------
# live / non-idle counters
# ----------------------------------------------------------------------
def test_counters_track_schedule_and_cancel():
    engine = Engine()
    work = [engine.schedule(5, lambda: None) for _ in range(4)]
    idle = [engine.schedule(9, lambda: None, idle=True)
            for _ in range(3)]
    assert engine.pending() == 7
    assert engine.pending_non_idle() == 4
    engine.cancel(work[0])
    engine.cancel(idle[0])
    assert engine.pending() == 5
    assert engine.pending_non_idle() == 3
    # double-cancel must not decrement twice
    engine.cancel(work[0])
    assert engine.pending() == 5
    assert engine.pending_non_idle() == 3


def test_counters_track_pops_and_idle_drop():
    engine = Engine()
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None, idle=True)
    engine.run()
    # the idle event was dropped (no non-idle work remained), time
    # stopped at the last real event, and nothing is left queued
    assert engine.now == 1
    assert engine.events_executed == 1
    assert engine.pending() == 0
    assert engine.pending_non_idle() == 0


def test_counters_survive_nested_scheduling():
    engine = Engine()
    seen = []

    def outer():
        seen.append(engine.pending_non_idle())
        engine.schedule(0, lambda: seen.append("inner"))
        engine.schedule(3, lambda: seen.append("later"))

    engine.schedule(2, outer)
    engine.run()
    assert seen == [0, "inner", "later"]
    assert engine.pending() == 0


def _stored(engine):
    """Entries physically held by the queue, cancelled ones included."""
    return sum(len(bucket) for bucket in engine._buckets.values())


# ----------------------------------------------------------------------
# lazy cancellation: order, exact counters, bounded storage
# ----------------------------------------------------------------------
def test_compaction_triggers_and_preserves_order():
    # Cancelling three in four far-future events leaves the survivors'
    # order intact, the counters exact, and no dead entry behind once
    # its cycle has passed.
    engine = Engine()
    total = 256
    seen = []
    events = [engine.schedule(10 + i, seen.append, (i,))
              for i in range(total)]
    survivors = [i for i in range(total) if i % 4 == 0]
    for i in range(total):
        if i % 4:
            engine.cancel(events[i])
    assert engine.pending() == len(survivors)
    assert engine.pending_non_idle() == len(survivors)
    engine.run(until=10 + total // 2)
    half = len(survivors) // 2 + 1
    assert seen == survivors[:half]
    # everything before the first survivor still due is gone, including
    # the cancelled entries just past ``until``
    assert _stored(engine) == total - survivors[half]
    engine.run()
    assert seen == survivors
    assert engine.pending() == 0
    assert _stored(engine) == 0


def test_no_compaction_below_threshold():
    # A handful of cancellations behind live work: the victims never
    # run, and the counters match the live set exactly at every step.
    engine = Engine()
    order = []
    keep = [engine.schedule(5, order.append, ("keep",))
            for _ in range(8)]
    victims = [engine.schedule(6, order.append, ("victim",))
               for _ in range(3)]
    for event in victims:
        engine.cancel(event)
    assert engine.pending() == len(keep)
    assert engine.pending_non_idle() == len(keep)
    assert engine.run() == 5
    assert order == ["keep"] * len(keep)
    assert engine.events_executed == len(keep)
    assert engine.pending() == 0
    assert _stored(engine) == 0


# ----------------------------------------------------------------------
# same-cycle FIFO order
# ----------------------------------------------------------------------
def test_same_cycle_fifo_respects_heap_seq_order():
    engine = Engine()
    order = []
    # three events at t=5 (seqs 0..2); the first two each push a
    # zero-delay event (seqs 3..4) — (time, seq) order runs them
    # strictly after every event already due this cycle
    engine.schedule(5, lambda: (order.append("a"),
                                engine.schedule(0, order.append,
                                                ("d",))))
    engine.schedule(5, lambda: (order.append("b"),
                                engine.schedule(0, order.append,
                                                ("e",))))
    engine.schedule(5, order.append, ("c",))
    engine.run()
    assert order == ["a", "b", "c", "d", "e"]


def test_fifo_chain_executes_in_order():
    engine = Engine()
    order = []

    def chain(i):
        order.append(i)
        if i < 5:
            engine.schedule(0, chain, (i + 1,))

    engine.schedule(2, chain, (0,))
    engine.run()
    assert order == [0, 1, 2, 3, 4, 5]
    assert engine.now == 2


def test_fifo_event_can_be_cancelled():
    engine = Engine()
    order = []

    def first():
        victim = engine.schedule(0, order.append, ("victim",))
        engine.schedule(0, order.append, ("kept",))
        engine.cancel(victim)

    engine.schedule(1, first)
    engine.run()
    assert order == ["kept"]
    assert engine.pending() == 0
    assert engine.pending_non_idle() == 0


def test_zero_delay_outside_run_goes_through_heap():
    # Zero-delay events scheduled between runs run at the current cycle
    # in scheduling order, ahead of anything they schedule themselves.
    engine = Engine()
    order = []
    engine.schedule(0, lambda: (order.append("a"),
                                engine.schedule(0, order.append, ("c",))))
    engine.schedule(0, order.append, ("b",))
    assert engine.pending() == 2
    assert engine.run() == 0
    assert order == ["a", "b", "c"]
    assert engine.events_executed == 3
    engine.run(until=4)
    engine.schedule(0, order.append, ("d",))
    assert engine.run() == 4
    assert order == ["a", "b", "c", "d"]
    assert _stored(engine) == 0


# ----------------------------------------------------------------------
# bug fix: max_events off-by-one
# ----------------------------------------------------------------------
def test_max_events_exact_budget_completes():
    # Regression: a run whose final event drained the queue used to
    # raise "budget exhausted" even though it completed legitimately.
    engine = Engine()
    for i in range(5):
        engine.schedule(1 + i, lambda: None)
    assert engine.run(max_events=5) == 5
    assert engine.events_executed == 5


def test_max_events_raises_with_work_remaining():
    engine = Engine()
    for i in range(6):
        engine.schedule(1 + i, lambda: None)
    with pytest.raises(SimulationError):
        engine.run(max_events=5)


def test_max_events_ignores_leftover_idle_housekeeping():
    engine = Engine()
    for i in range(3):
        engine.schedule(1 + i, lambda: None)
    engine.schedule(50, lambda: None, idle=True)
    # budget reached with only housekeeping left: completes normally
    assert engine.run(max_events=3) == 3


# ----------------------------------------------------------------------
# bug fix: Network.in_flight() exact at every cycle
# ----------------------------------------------------------------------
class _Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def receive(self, msg):
        self.received.append(msg)


def _network():
    engine = Engine()
    network = Network(engine, StatsRegistry(), LatencyModel(default=10))
    src, dst = _Sink("src"), _Sink("dst")
    network.register(src)
    network.register(dst)
    return engine, network, dst


def test_in_flight_exact_through_delivery_cycle():
    engine, network, dst = _network()
    msg = Message(MsgKind.REQ_V, 0x40, 0x1, src="src", dst="dst")
    network.send(msg)
    (delivery, tracked), = network.in_flight()
    assert tracked is msg
    # up to the cycle before delivery the message is reported in
    # flight; from the delivery cycle on it is gone — exactly
    engine.run(until=delivery - 1)
    assert len(network.in_flight()) == 1
    assert dst.received == []
    engine.run(until=delivery)
    assert network.in_flight() == []
    assert dst.received == [msg]


def test_in_flight_tracks_multiple_messages():
    engine, network, dst = _network()
    first = Message(MsgKind.REQ_V, 0x40, 0x1, src="src", dst="dst")
    second = Message(MsgKind.REQ_S, 0x80, 0x3, src="src", dst="dst")
    network.send(first)
    network.send(second)
    assert len(network.in_flight()) == 2
    engine.run()
    assert network.in_flight() == []
    assert dst.received == [first, second]


# ----------------------------------------------------------------------
# simulated time is a plain attribute: no accessor frames on a real run
# ----------------------------------------------------------------------
def test_profiled_cell_runs_no_clock_frames():
    workload = MICROBENCHMARKS["ReuseS"](num_cpus=2, num_gpus=2,
                                         warps_per_cu=1)
    profiler = cProfile.Profile()
    profiler.enable()
    system = build_system(scaled_config("SDD", 2, 2))
    system.load_workload(workload)
    system.run()
    profiler.disable()
    assert system.engine.events_executed > 0

    package = os.path.dirname(repro.__file__) + os.sep
    mshr_py = os.path.join(package, "mem", "mshr.py")
    base_py = os.path.join(package, "protocols", "base.py")
    init_lines, init_first = inspect.getsourcelines(L1Controller.__init__)
    init_span = range(init_first, init_first + len(init_lines))
    clock_frames = []
    for filename, line, name in pstats.Stats(profiler).stats:
        if not filename.startswith(package):
            continue
        if name in ("now", "events_executed") or name == "<lambda>" and (
                filename == mshr_py
                or filename == base_py and line in init_span):
            clock_frames.append((filename, line, name))
    assert clock_frames == []
