"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Component, Engine, SimulationError


def test_events_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(10, lambda: order.append("b"))
    engine.schedule(5, lambda: order.append("a"))
    engine.schedule(20, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in "abcde":
        engine.schedule(7, lambda t=tag: order.append(t))
    engine.run()
    assert order == list("abcde")


def test_now_advances_with_events():
    engine = Engine()
    seen = []
    engine.schedule(3, lambda: seen.append(engine.now))
    engine.schedule(9, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [3, 9]
    assert engine.now == 9


def test_nested_scheduling():
    engine = Engine()
    seen = []

    def outer():
        seen.append(engine.now)
        engine.schedule(4, lambda: seen.append(engine.now))

    engine.schedule(2, outer)
    engine.run()
    assert seen == [2, 6]


def test_zero_delay_runs_same_cycle():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda: engine.schedule(
        0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [5]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_negative_delay_names_the_callback():
    def retry_tick():
        pass

    engine = Engine()
    with pytest.raises(SimulationError,
                       match=r"negative delay -3 for .*retry_tick"):
        engine.schedule(-3, retry_tick)


def test_cancelled_event_skipped():
    engine = Engine()
    seen = []
    event = engine.schedule(5, lambda: seen.append("cancelled"))
    engine.schedule(6, lambda: seen.append("kept"))
    engine.cancel(event)
    engine.run()
    assert seen == ["kept"]


def test_run_until_pauses_and_resumes():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda: seen.append(5))
    engine.schedule(15, lambda: seen.append(15))
    engine.run(until=10)
    assert seen == [5]
    assert engine.now == 10
    engine.run()
    assert seen == [5, 15]


def test_run_until_advances_now_when_queue_drains_early():
    # Regression: Engine.run(until=...) used to leave `now` at the last
    # event time when the heap drained before `until`, so a resumed run
    # would schedule "future" work in the quiescent gap's past.
    engine = Engine()
    seen = []
    engine.schedule(3, lambda: seen.append(engine.now))
    assert engine.run(until=100) == 100
    assert seen == [3]
    assert engine.now == 100


def test_run_until_resume_after_quiescence():
    engine = Engine()
    seen = []
    engine.schedule(3, lambda: seen.append(engine.now))
    engine.run(until=100)
    # new work scheduled after quiescence is relative to `until`
    engine.schedule(5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [3, 105]
    assert engine.now == 105


def test_run_until_on_empty_queue_advances():
    engine = Engine()
    assert engine.run(until=42) == 42
    assert engine.now == 42


def test_run_without_until_stays_at_last_event():
    engine = Engine()
    engine.schedule(7, lambda: None)
    engine.run()
    assert engine.now == 7


def test_max_events_watchdog():
    engine = Engine()

    def rearm():
        engine.schedule(1, rearm)

    engine.schedule(1, rearm)
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_pending_counts_live_events():
    engine = Engine()
    kept = engine.schedule(5, lambda: None)
    cancelled = engine.schedule(6, lambda: None)
    engine.cancel(cancelled)
    assert engine.pending() == 1
    engine.run()
    assert engine.pending() == 0


def test_component_schedule_uses_engine():
    engine = Engine()
    component = Component(engine, "widget")
    seen = []
    component.schedule(4, lambda: seen.append(component.engine.now))
    engine.run()
    assert seen == [4]


def test_events_executed_counter():
    engine = Engine()
    for _ in range(7):
        engine.schedule(1, lambda: None)
    engine.run()
    assert engine.events_executed == 7


def test_run_not_reentrant():
    engine = Engine()
    failures = []

    def reenter():
        try:
            engine.run()
        except SimulationError:
            failures.append(True)

    engine.schedule(1, reenter)
    engine.run()
    assert failures == [True]
