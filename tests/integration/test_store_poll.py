"""A stalled store polls its blocking store-buffer entry.

When the L1 refuses a store, the CPU core (``CPUCore._poll_store``)
and the GPU CU (``GPUCU._poll``) keep the ``Access`` and, each retry
period, ask the L1 whether the line's store-buffer entry is still
issued (``L1Controller.store_blocked``).  Only once it has cleared do
they re-present the access through ``try_access``.  This must be
invisible: every ``MICROBENCHMARKS`` / ``APPLICATIONS`` program on the
six Table V configurations at 2 CPUs / 2 CUs x 1 warp runs once as
shipped and once with the poll patched to always re-present, and the
two runs must agree on events, cycles, network bytes and the whole
``stats.snapshot()``.

The skip is exact as long as no store would hit its line while the
line's entry is issued: MESI and DeNovo look for an owned store hit
before the store buffer.  Every fast-path stall checks that predicate.
"""

from typing import Dict

import pytest

from repro.coherence.addr import iter_mask
from repro.devices.cpu import CPUCore
from repro.devices.gpu import GPUCU
from repro.protocols.base import L1Controller
from repro.protocols.denovo import DeNovoL1, DnState
from repro.protocols.mesi import MESIL1, MesiState
from repro.system import CONFIG_ORDER, build_system, scaled_config
from repro.workloads import APPLICATIONS, MICROBENCHMARKS

PROGRAMS = {**MICROBENCHMARKS, **APPLICATIONS}


def _run(program: str, config: str) -> Dict[str, object]:
    workload = PROGRAMS[program](num_cpus=2, num_gpus=2, warps_per_cu=1)
    system = build_system(scaled_config(config, 2, 2))
    system.load_workload(workload)
    result = system.run()
    return {"events": system.engine.events_executed,
            "cycles": result.cycles,
            "network_bytes": result.network_bytes,
            "stats": result.stats.snapshot()}


def _owned_store_hit(l1: L1Controller, access) -> bool:
    """Would ``l1``'s store path take ``access`` as an owned hit?"""
    line_obj = l1.array.lookup(access.line, touch=False)
    if line_obj is None:
        return False
    if isinstance(l1, MESIL1):
        return line_obj.state in (MesiState.M, MesiState.E)
    if isinstance(l1, DeNovoL1):
        states = line_obj.word_states
        owned = all(states[index] is DnState.O
                    for index in iter_mask(access.mask))
        return owned and not (l1.tu is not None
                              and l1.tu.demotes_stores(access.line))
    return False


@pytest.mark.tier1
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_store_poll_matches_always_re_presenting(program, monkeypatch):
    real = L1Controller.store_blocked

    def checked(l1, access):
        blocked = real(l1, access)
        assert not (blocked and _owned_store_hit(l1, access)), (
            f"{l1.name}: a store to 0x{access.line:x} would hit while "
            f"the line's store-buffer entry is issued")
        return blocked

    monkeypatch.setattr(L1Controller, "store_blocked", checked)
    shipped = {config: _run(program, config) for config in CONFIG_ORDER}

    monkeypatch.setattr(CPUCore, "_poll_store",
                        lambda core, access: core._store(access))
    monkeypatch.setattr(GPUCU, "_poll",
                        lambda cu, access: cu._issue_with_retry(access))
    for config in CONFIG_ORDER:
        assert _run(program, config) == shipped[config], config


@pytest.mark.tier1
def test_store_poll_takes_the_fast_path(monkeypatch):
    """The equivalence above is not vacuous: PageRank stalls on issued
    entries on both device kinds and all three L1 protocols."""
    real = L1Controller.store_blocked
    stalled = set()

    def spy(l1, access):
        blocked = real(l1, access)
        if blocked:
            stalled.add((l1.name[:3], type(l1).__name__))
        return blocked

    monkeypatch.setattr(L1Controller, "store_blocked", spy)
    for config in CONFIG_ORDER:
        _run("PR", config)
    assert {device for device, _ in stalled} == {"cpu", "gpu"}
    assert {protocol for _, protocol in stalled} == {
        "MESIL1", "DeNovoL1", "GPUCoherenceL1"}
