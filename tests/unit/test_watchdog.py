"""Liveness-watchdog tests: a synthetic deadlock (a test-only TU that
drops a response on the floor) must be detected by both detectors —
the quiescence check when the event queue drains, and the periodic
stall check while other traffic keeps the queue busy — each raising
``DeadlockError`` with a structured diagnostic dump.
"""

import pytest

from repro.coherence.messages import MsgKind
from repro.faults import (DeadlockError, LivenessWatchdog,
                          format_diagnostic, system_busy)
from repro.sim.engine import Engine, SimulationError
from repro.system import build_system, scaled_config
from repro.workloads import MICROBENCHMARKS
from tests.systems import MiniSpandex


def drop_first_response(mini, device):
    """Make the device's TU silently swallow its first data response."""
    tu = mini.tus[device]
    original = tu._handle
    dropped = []

    def evil_handle(msg):
        if msg.kind != MsgKind.NACK and not dropped:
            dropped.append(msg)
            return                       # the deadlock: response lost
        original(msg)

    tu._handle = evil_handle
    return dropped


# -- quiescence detector ------------------------------------------------------
def test_dropped_response_deadlock_detected_at_quiescence():
    mini = MiniSpandex({"dev0": "DeNovo"})
    mini.seed(0x1000, {0: 42})
    dropped = drop_first_response(mini, "dev0")
    watchdog = LivenessWatchdog(mini, stall_cycles=10_000)
    mini.engine.stall_check = watchdog.quiescence_check

    completion = mini.load("dev0", 0x1000, 0x1)
    with pytest.raises(DeadlockError) as excinfo:
        mini.run()
    assert dropped, "the evil TU never saw the response"
    assert not completion.done
    assert "not quiescent" in str(excinfo.value)
    diag = excinfo.value.diagnostic
    assert diag["devices"]
    dump = format_diagnostic(diag)
    assert "dev0" in dump


def test_clean_run_passes_quiescence_check():
    mini = MiniSpandex({"dev0": "DeNovo"})
    mini.seed(0x1000, {0: 42})
    watchdog = LivenessWatchdog(mini, stall_cycles=10_000)
    mini.engine.stall_check = watchdog.quiescence_check
    completion = mini.load("dev0", 0x1000, 0x1)
    mini.run()
    assert completion.done and completion.values[0] == 42
    assert not system_busy(mini)


def test_quiescence_check_sees_every_home_shard():
    """Work left on a shard other than the first still counts."""
    system = build_system(scaled_config("SDD", 2, 2, llc_shards=2))
    system.load_workload(MICROBENCHMARKS["ReuseS"](
        num_cpus=2, num_gpus=2, warps_per_cu=1))
    system.run()
    system.watchdog.quiescence_check()      # drained: nothing to report
    shard = system.llcs[1]
    assert shard is not system.llc
    txn = shard._new_txn(0x1000, 1, "stuck", lambda t: None)
    shard._txns[txn.txn_id] = txn
    with pytest.raises(DeadlockError) as excinfo:
        system.watchdog.quiescence_check()
    assert excinfo.value.diagnostic["homes"][shard.name]["txns"]


# -- periodic stall detector --------------------------------------------------
def test_stalled_request_detected_while_queue_stays_busy():
    mini = MiniSpandex({"dev0": "DeNovo", "dev1": "DeNovo"})
    mini.seed(0x1000, {0: 7})
    drop_first_response(mini, "dev0")
    watchdog = LivenessWatchdog(mini, stall_cycles=200, period=50)
    watchdog.arm()

    # unrelated traffic keeps the event queue alive past the bound
    def chatter(remaining=80):
        if remaining:
            mini.load("dev1", 0x2000 + (remaining % 4) * 64, 0x1)
            mini.engine.schedule(20, chatter, (remaining - 1,))

    chatter()
    mini.load("dev0", 0x1000, 0x1)
    with pytest.raises(DeadlockError) as excinfo:
        mini.run()
    assert "liveness watchdog" in str(excinfo.value)
    stalled = excinfo.value.diagnostic["stalled"]
    assert any(entry["device"] == "dev0" and entry["kind"] == "request"
               for entry in stalled)
    assert watchdog.checks > 1


def test_watchdog_tick_does_not_stretch_quiescent_run():
    mini = MiniSpandex({"dev0": "DeNovo"})
    mini.seed(0x1000, {0: 1})
    watchdog = LivenessWatchdog(mini, stall_cycles=100_000)
    watchdog.arm()
    mini.load("dev0", 0x1000, 0x1)
    end = mini.run()
    # the pending 25k-cycle watchdog tick is idle housekeeping: it must
    # be dropped, not executed at its scheduled time
    assert end < 1_000


# -- engine safety limits -----------------------------------------------------
def make_self_feeding_engine(step=1):
    engine = Engine()

    def tick():
        engine.schedule(step, tick)

    engine.schedule(step, tick)
    return engine


def test_max_events_budget_raises():
    engine = make_self_feeding_engine()
    with pytest.raises(SimulationError, match="event budget"):
        engine.run(max_events=100)
    assert engine.events_executed == 100


def test_max_cycles_budget_raises():
    engine = make_self_feeding_engine(step=10)
    with pytest.raises(SimulationError, match="cycle budget"):
        engine.run(max_cycles=500)
    assert engine.now <= 500


def test_idle_events_dropped_when_only_housekeeping_remains():
    engine = Engine()
    ran = []
    engine.schedule(10, ran.append, ("real",))
    engine.schedule(100, ran.append, ("idle",), idle=True)
    assert engine.run() == 10
    assert ran == ["real"]


def test_idle_events_run_while_real_work_remains():
    engine = Engine()
    ran = []
    engine.schedule(5, ran.append, ("idle",), idle=True)
    engine.schedule(10, ran.append, ("real",))
    engine.run()
    assert ran == ["idle", "real"]
