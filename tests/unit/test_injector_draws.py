"""Draw discipline of the fault injector's wire decision.

``FaultInjector.wire_fate`` decides one unreliable send.  Each fault
kind draws from its own ``random.Random`` stream, and a kind that is
not armed must draw nothing: otherwise arming one kind would shift
every other kind's sequence, and a scheduled outage would move the
drop pattern of the whole run.  These tests read each stream's
``getstate()`` around a batch of sends.
"""

import random

import pytest

from repro.coherence.messages import Message, MsgKind
from repro.faults import FaultInjector
from repro.sim.stats import StatsRegistry
from repro.system import FaultConfig, LinkWindow

STREAMS = ("_delay_rng", "_nack_rng", "_drop_rng", "_dup_rng",
           "_reorder_rng")

#: the outage window: sends at cycles [WINDOW_START, WINDOW_END) drop
WINDOW_START, WINDOW_END = 100, 160
#: one send every other cycle across, before and after the window
SEND_CYCLES = range(0, 300, 2)


def _states(injector):
    return {name: getattr(injector, name).getstate() for name in STREAMS}


def _sends(injector):
    message = Message(MsgKind.REQ_V, 0x100, 1, "c0", "llc0", req_id=1)
    return [injector.wire_fate(message, now) for now in SEND_CYCLES]


def _window():
    return LinkWindow(start=WINDOW_START,
                      length=WINDOW_END - WINDOW_START)


def _advanced(state, draws):
    """A stream's state after ``draws`` more ``random()`` calls."""
    stream = random.Random()
    stream.setstate(state)
    for _ in range(draws):
        stream.random()
    return stream.getstate()


@pytest.mark.tier1
def test_link_down_window_alone_draws_from_no_stream():
    stats = StatsRegistry()
    injector = FaultInjector(FaultConfig(seed=5, link_down=(_window(),)),
                             stats)
    before = _states(injector)
    fates = _sends(injector)
    assert _states(injector) == before
    inside = sum(WINDOW_START <= now < WINDOW_END for now in SEND_CYCLES)
    assert [fate[0] for fate in fates].count("link_down") == inside
    assert all(fate == (None, 0, 0, False) for fate in fates
               if fate[0] is None)
    assert stats.get("faults.link_down_dropped") == inside
    assert stats.get("faults.dropped") == inside


@pytest.mark.tier1
def test_drop_alone_advances_only_the_drop_stream_once_per_send():
    stats = StatsRegistry()
    injector = FaultInjector(FaultConfig(seed=5, drop_prob=0.3), stats)
    before = _states(injector)
    fates = _sends(injector)
    after = _states(injector)
    assert after["_drop_rng"] == _advanced(before["_drop_rng"],
                                           len(SEND_CYCLES))
    assert {name: state for name, state in after.items()
            if name != "_drop_rng"} == \
        {name: state for name, state in before.items()
         if name != "_drop_rng"}
    dropped = [fate[0] for fate in fates].count("drop")
    assert 0 < dropped < len(SEND_CYCLES)
    assert stats.get("faults.dropped") == dropped


@pytest.mark.tier1
def test_drop_draws_once_per_send_outside_the_window():
    # sends the outage eats are decided before the drop draw, so they
    # leave the drop stream where it was
    injector = FaultInjector(FaultConfig(seed=5, drop_prob=0.3,
                                         link_down=(_window(),)))
    before = _states(injector)
    fates = _sends(injector)
    outside = sum(not WINDOW_START <= now < WINDOW_END
                  for now in SEND_CYCLES)
    after = _states(injector)
    assert after["_drop_rng"] == _advanced(before["_drop_rng"], outside)
    assert all(after[name] == before[name] for name in STREAMS
               if name != "_drop_rng")
    assert [fate[0] for fate in fates].count("link_down") == \
        len(SEND_CYCLES) - outside
