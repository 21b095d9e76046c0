"""Per-message work on the unreliable fabric, counted by the profiler.

One lossy cell (ReuseS on SDD at 2/2x1 with the lossy benchmark
workload's system overrides and ``FaultConfig.unreliable_stress``) runs
under cProfile, and the call counts pin the shape of the send path:

* the injector is asked once per wire send (``wire_fate``), and the
  timing faults the profile leaves unarmed are never consulted;
* an untraced delivery runs no network wrapper frame: the calendar
  entry's callback is the transport's receive ``partial``;
* ``Network.send`` is the only frame between ``ReliableNetwork``'s
  senders and the delivery's ``Engine.schedule``;
* the sharded home map computes each line's shard once.
"""

import cProfile
import os
import pstats

import pytest

import repro
from repro.core.shard import HomeMap
from repro.system import build_system, scaled_config
from repro.system.config import FaultConfig
from repro.workloads import MICROBENCHMARKS
from tests.integration.test_lossy_golden import FAULT_SEED, LOSSY

PACKAGE = os.path.dirname(repro.__file__) + os.sep


def _source(*parts):
    return os.path.join(PACKAGE, *parts)


@pytest.fixture(scope="module")
def profiled():
    workload = MICROBENCHMARKS["ReuseS"](num_cpus=2, num_gpus=2,
                                         warps_per_cu=1)
    system = build_system(scaled_config(
        "SDD", 2, 2, faults=FaultConfig.unreliable_stress(FAULT_SEED),
        **LOSSY))
    system.load_workload(workload)
    profiler = cProfile.Profile()
    profiler.enable()
    system.run()
    profiler.disable()
    calls = {}
    callers = {}
    for (filename, _, name), (_, count, _, _, by) in \
            pstats.Stats(profiler).stats.items():
        calls[filename, name] = calls.get((filename, name), 0) + count
        callers.setdefault((filename, name), set()).update(
            (caller_file, caller_name)
            for caller_file, _, caller_name in by)
    return system, calls, callers


@pytest.mark.tier1
def test_injector_decides_each_send_once(profiled):
    system, calls, _ = profiled
    injector = _source("faults", "injector.py")
    sends = system.stats.get("network.messages")
    assert sends > 0
    assert calls[injector, "wire_fate"] == sends
    assert (injector, "extra_delay") not in calls
    assert (injector, "in_burst") not in calls


@pytest.mark.tier1
def test_untraced_delivery_runs_no_network_wrapper(profiled):
    _, calls, callers = profiled
    noc = _source("network", "noc.py")
    reliable = _source("network", "reliable.py")
    # besides send, only a link's first send runs network code
    assert {name for filename, name in calls if filename == noc} == {
        "send", "_new_link", "latency", "__init__"}
    # every wire arrival enters the transport straight from the engine
    assert callers[reliable, "_transport_receive"] == {
        (_source("sim", "engine.py"), "run")}


@pytest.mark.tier1
def test_one_frame_between_transport_and_schedule(profiled):
    _, _, callers = profiled
    noc = _source("network", "noc.py")
    reliable = _source("network", "reliable.py")
    engine = _source("sim", "engine.py")
    assert callers[noc, "send"] == {
        (reliable, "send"), (reliable, "_transport_receive"),
        (reliable, "_retransmit_tick")}
    assert {caller for caller in callers[engine, "schedule"]
            if caller[0] in (noc, reliable)} == {
        (noc, "send"), (reliable, "send"), (reliable, "_retransmit_tick")}


@pytest.mark.tier1
def test_home_map_computes_each_line_once(profiled):
    system, calls, _ = profiled
    shard = _source("core", "shard.py")
    home_map = system.home_map
    assert isinstance(home_map, HomeMap) and len(home_map) == 2
    assert calls[shard, "home_for"] > calls[shard, "_mix"]
    assert calls[shard, "_mix"] == len(home_map._homes)
