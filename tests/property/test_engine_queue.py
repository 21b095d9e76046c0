"""Differential test of the calendar event queue against the reference.

Hypothesis draws random schedules — zero and positive delays, ``idle``
flags, cancels (including cancel-twice and cancel-after-fire), events
that schedule and cancel from inside their callbacks, callbacks that
raise, and ``until`` / ``max_events`` / ``max_cycles`` stops followed
by resumes — and plays each one on :class:`repro.sim.engine.Engine` and
on :class:`tests.reference_engine.ReferenceEngine`.  The two must agree on
the execution order, on what every callback observes (``now``,
``pending()``, ``pending_non_idle()``, ``events_executed``), on every
stall check, and after every step on ``now``, the counters and the
error raised.

A deterministic churn case then pins the calendar's storage: cancelled
far-future entries are reclaimed once their cycle passes, so the
entries held stay bounded by the live window however long the run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine

from tests.reference_engine import ReferenceEngine

_delays = st.one_of(st.just(0), st.integers(min_value=0, max_value=6),
                    st.integers(min_value=0, max_value=40))
_schedule = st.tuples(st.just("sched"), _delays, st.booleans())
_cancel = st.tuples(st.just("cancel"), st.integers(min_value=0,
                                                   max_value=63))
_raise = st.tuples(st.just("raise"))

#: what the k-th scheduled event does when it runs
_plans = st.lists(
    st.lists(st.one_of(_schedule, _schedule, _cancel, _raise), max_size=3),
    max_size=40)
_offset = st.one_of(st.none(), st.integers(min_value=0, max_value=30))
_budget = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
_run = st.tuples(st.just("run"), _offset, _budget, _offset)
#: what the test does between runs
_steps = st.lists(st.one_of(_schedule, _cancel, _run), min_size=1,
                  max_size=25)


class Boom(RuntimeError):
    """Raised by a planned callback."""


def _play(engine_cls, plan, steps):
    """Run one schedule; return every observation, in order."""
    engine = engine_cls()
    log = []
    handles = []
    engine.stall_check = lambda: log.append(("stall", engine.now))

    def observe(tag):
        log.append((tag, engine.now, engine.pending(),
                    engine.pending_non_idle(), engine.events_executed))

    def apply(op):
        if op[0] == "sched":
            _, delay, idle = op
            handles.append(engine.schedule(delay, fire, (len(handles),),
                                           idle=idle))
        elif op[0] == "cancel":
            if handles:
                engine.cancel(handles[op[1] % len(handles)])
        else:
            raise Boom(f"planned failure after {len(log)} records")

    def fire(event_id):
        observe(("fire", event_id))
        for op in plan[event_id] if event_id < len(plan) else ():
            apply(op)

    for step in steps + [("run", None, None, None)]:
        error = None
        try:
            if step[0] == "run":
                _, until, budget, cycles = step
                engine.run(
                    until=None if until is None else engine.now + until,
                    max_events=None if budget is None
                    else engine.events_executed + budget,
                    max_cycles=None if cycles is None
                    else engine.now + cycles)
            else:
                apply(step)
        except Exception as exc:  # compared, not swallowed
            error = (type(exc).__name__, str(exc))
        observe(("step", step, error))
    return log


@settings(max_examples=300, deadline=None)
@given(_plans, _steps)
def test_engine_matches_reference_on_random_schedules(plan, steps):
    assert _play(Engine, plan, steps) == \
        _play(ReferenceEngine, plan, steps)


def _stored(engine):
    return sum(len(bucket) for bucket in engine._buckets.values())


def test_churned_far_future_entries_stay_bounded():
    # Every tick cancels and re-arms ``timers`` far-future entries (the
    # retransmit-timer pattern); dead entries may only linger until
    # their own cycle, so storage is bounded by the horizon, not by how
    # many ticks ran.
    engine = Engine()
    timers, horizon, ticks = 4, 50, 5000
    armed = [engine.schedule(horizon, lambda: None)
             for _ in range(timers)]
    peak = 0

    def tick(i):
        nonlocal peak
        for slot, entry in enumerate(armed):
            engine.cancel(entry)
            armed[slot] = engine.schedule(horizon, lambda: None)
        peak = max(peak, _stored(engine))
        if i + 1 < ticks:
            engine.schedule(1, tick, (i + 1,))

    engine.schedule(1, tick, (0,))
    engine.run(until=ticks)
    assert engine.pending() == timers
    assert peak <= timers * (horizon + 1) + 1
    engine.run()
    assert engine.pending() == 0
    assert _stored(engine) == 0
