"""Request-policy safety properties.

Two invariants pin the policy layer (DESIGN.md):

* **Correctness is policy-independent** — a request policy only picks
  *which* Spandex request type an access uses; for every policy and
  every Table V configuration the final memory image must equal the
  sequential reference, byte for byte.
* **The fixed baseline is bit-identical** — naming ``fixed``
  explicitly attaches no policy object (``make_policy`` returns
  None), so the TU hot path, the schedule, the stats and the full
  event trace must be indistinguishable from a build that never heard
  of the policy layer.
"""

import pytest

from repro.core.policy import make_policy
from repro.obs import TraceEvent
from repro.system import (CONFIG_ORDER, TraceConfig, WatchdogConfig,
                          build_system, scaled_config)
from repro.workloads import MICROBENCHMARKS

SMALL = dict(num_cpus=2, num_gpus=2, warps_per_cu=1)
POLICIES = ("fixed", "criticality", "adaptive")


def _workload():
    return MICROBENCHMARKS["ProducerConsumer"](iterations=3, **SMALL)


def run_once(config_name, trace=False, **overrides):
    workload = _workload()
    reference = workload.reference()
    config = scaled_config(
        config_name, SMALL["num_cpus"], SMALL["num_gpus"],
        watchdog=WatchdogConfig(stall_cycles=200_000),
        trace=TraceConfig() if trace else None, **overrides)
    system = build_system(config)
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    image = {addr: system.read_coherent(addr)
             for addr in sorted(reference.memory)}
    return image, reference.memory, system


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
@pytest.mark.parametrize("policy", POLICIES)
def test_every_policy_preserves_reference_memory(config_name, policy):
    image, reference, _ = run_once(config_name, request_policy=policy,
                                   owner_pred=(policy != "fixed"))
    assert image == reference


def _normalized_trace(system):
    """Ring contents with req_ids renumbered by first appearance (ids
    come from a process-global counter)."""
    renumber = {}
    out = []
    for event in system.tracer.events():
        record = TraceEvent(*event).to_dict()
        req_id = record.get("req_id")
        if req_id is not None:
            record["req_id"] = renumber.setdefault(req_id, len(renumber))
        out.append(record)
    return out


@pytest.mark.parametrize("config_name", ("SDD", "SMG"))
def test_fixed_policy_is_bit_identical_to_baseline(config_name):
    """Explicit ``fixed`` == defaults: same events, cycles, memory,
    counters, and (normalized) trace stream."""
    image_base, _, sys_base = run_once(config_name, trace=True)
    image_fixed, _, sys_fixed = run_once(config_name, trace=True,
                                         request_policy="fixed",
                                         owner_pred=False)
    assert sys_fixed.engine.events_executed == \
        sys_base.engine.events_executed
    assert sys_fixed.engine.now == sys_base.engine.now
    assert image_fixed == image_base
    assert sys_fixed.stats.counters() == sys_base.stats.counters()
    assert _normalized_trace(sys_fixed) == _normalized_trace(sys_base)


def _tus(system):
    return [l1.tu for l1 in system.l1s.values()
            if l1.tu is not None]


def test_fixed_policy_attaches_nothing():
    assert make_policy("fixed") is None
    assert make_policy(None) is None
    _, _, system = run_once("SDD", request_policy="fixed",
                            owner_pred=True)
    for tu in _tus(system):
        assert tu.policy is None


def test_adaptive_policy_attaches_everywhere_spandex():
    _, _, system = run_once("SDD", request_policy="adaptive",
                            owner_pred=True)
    tus = _tus(system)
    assert tus, "Spandex build should have TUs"
    for tu in tus:
        assert tu.policy is not None
        assert tu.predictor is not None


def test_policy_counters_fire_on_spandex_configs():
    """The ablation axis is observable: the adaptive run converts
    stores (tu.fwd_direct) and the home pushes data (wtfwd_pushes) on
    the DeNovo-CPU configuration."""
    _, _, system = run_once("SDD", request_policy="adaptive",
                            owner_pred=True)
    counters = system.stats.counters()
    assert counters.get("tu.fwd_direct", 0) > 0
    assert counters.get("home.llc.wtfwd_pushes", 0) > 0
    assert counters.get("l1.wtfwd_fills", 0) > 0
