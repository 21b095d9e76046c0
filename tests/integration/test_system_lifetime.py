"""A dropped System is freed by reference counting.

No part of a ``System`` holds it strongly, and its finalizer cuts the
few cycles its parts form among themselves (DESIGN.md "Object
lifetime"), so the cyclic garbage collector never has to find a
finished run.  That is also what makes it safe for ``System.simulate``
to pause the collector: a run makes no cyclic garbage.  Each case runs
one configuration end to end at 2 CPUs / 2 CUs x 1 warp: the six
Table V configurations, SDD on the benchmark's lossy fabric (2 hashed
shards, 2 sockets, adaptive policy, owner prediction, unreliable
links), and a traced, monitored SMG, all with the watchdog on.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.obs import (chrome_section, write_chrome_trace, write_health_json,
                       write_prometheus)
from repro.sim.engine import SimulationError
from repro.system import (CONFIG_ORDER, FaultConfig, TraceConfig,
                          build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS

pytestmark = pytest.mark.tier1

LOSSY = dict(llc_shards=2, shard_interleave="hash",
             topology="multi_socket", num_sockets=2,
             request_policy="adaptive", owner_pred=True)

CASES = [pytest.param(name, {}, id=name) for name in CONFIG_ORDER] + [
    pytest.param("SDD", dict(LOSSY,
                             faults=FaultConfig.unreliable_stress(7)),
                 id="SDD-lossy"),
    pytest.param("SMG", dict(trace=TraceConfig(monitor_interval=1000)),
                 id="SMG-traced"),
]


def _loaded(config_name, overrides):
    workload = MICROBENCHMARKS["Indirection"](num_cpus=2, num_gpus=2,
                                              warps_per_cu=1)
    system = build_system(scaled_config(config_name, 2, 2, **overrides))
    assert system.watchdog is not None
    system.load_workload(workload)
    return system, workload


def _garbage_types(garbage):
    return Counter(type(obj).__name__ for obj in garbage).most_common(8)


@pytest.mark.parametrize("config_name, overrides", CASES)
def test_dropped_system_leaves_no_cyclic_garbage(config_name, overrides,
                                                 tmp_path):
    system, workload = _loaded(config_name, overrides)
    result = system.run()
    assert system.count_mismatches(workload.reference().memory) == 0
    if system.tracer is not None:
        write_prometheus(str(tmp_path / "cell.prom"), system)
        write_health_json(str(tmp_path / "cell.json"), system,
                          workload.name)
        write_chrome_trace(str(tmp_path / "cell.trace.json"),
                           [chrome_section(system, config_name)])
    # the exports' own garbage (json's encoder closures) is not the
    # System's: collect it while the System is still alive
    gc.collect()
    alive = weakref.ref(system)
    del system, result
    assert alive() is None          # freed by reference counting
    assert gc.collect() == 0


@pytest.mark.parametrize("config_name, overrides", CASES)
def test_run_makes_no_cyclic_garbage(config_name, overrides):
    system, _ = _loaded(config_name, overrides)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        system.run()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
    assert not garbage, _garbage_types(garbage)


def test_collection_resumes_after_a_failed_run():
    system, _ = _loaded("SDD", {})
    assert gc.isenabled()
    with pytest.raises(SimulationError, match="event budget"):
        system.run(max_events=50)
    assert gc.isenabled()
