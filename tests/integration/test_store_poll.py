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

from repro.coherence.addr import FULL_LINE_MASK, iter_mask
from repro.devices.cpu import CPUCore
from repro.devices.gpu import GPUCU
from repro.protocols.base import Access, L1Controller
from repro.protocols.denovo import DeNovoL1, DnState
from repro.protocols.mesi import MESIL1, MesiState
from repro.system import CONFIG_ORDER, build_system, scaled_config
from repro.workloads import APPLICATIONS, MICROBENCHMARKS
from tests.systems import Completion, MiniSpandex

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


# -- the poll's LRU touch ----------------------------------------------------
#: nine lines of one set: a one-set, 8-way L1 (512 B) holds eight
SET_LINES = [0x4000 + 64 * index for index in range(9)]


def _poll_shipped(l1: L1Controller, access: Access) -> bool:
    """The device poll as shipped: re-present only once unblocked."""
    return not l1.store_blocked(access) and l1.try_access(access)


def _poll_re_presenting(l1: L1Controller, access: Access) -> bool:
    return l1.try_access(access)


def _stalled_store_picks_victim(protocol: str, poll) -> tuple:
    """cpu0 stalls a store to line ``a`` behind its issued entry while
    a fill needs a victim in ``a``'s full set.  The refused store's
    lookup made ``a`` most recent; load hits on the other seven lines
    make it least recent again, so only the poll's touch keeps ``a``
    resident.  cpu1 shares (MESI) or owns (DeNovo) ``a``, so cpu0's
    ownership request takes more hops than the fill's LLC hit.
    Returns the L1's LRU order after the fill, the hits a probe of
    ``a`` then scores, and the run's events and stats."""
    mini = MiniSpandex({"cpu0": protocol, "cpu1": protocol}, l1_size=512)
    cpu0 = mini.l1s["cpu0"]
    a, *others, new = SET_LINES
    mini.load("cpu1", new, FULL_LINE_MASK)
    if protocol == "MESI":
        mini.load("cpu1", a, FULL_LINE_MASK)
    mini.run()
    for line in [a] + others:
        mini.load("cpu0", line, FULL_LINE_MASK)
        mini.run()
    if protocol == "DeNovo":
        mini.store("cpu1", a, 0b1, {0: 7})
        mini.run()
    assert mini.store("cpu0", a, 0b1, {0: 1}).accepted
    while not cpu0.store_buffer.entries[a].issued:
        mini.run(until=mini.engine.now + 1)
    access = Access("store", a, 0b1, Completion(), values={0: 2})
    assert not cpu0.try_access(access)
    for line in others:
        assert mini.load("cpu0", line, 0b1).accepted
    assert not poll(cpu0, access)
    fill = mini.load("cpu0", new, 0b1)
    while not fill.done:
        mini.run(until=mini.engine.now + 1)
        assert not poll(cpu0, access)
    # the fill chose its victim while the store was still stalled
    assert cpu0.store_buffer.entries[a].issued
    lru = [line_obj.line for line_obj in cpu0.array.lines()]
    hits = mini.stats.counters()["l1.hits"]
    mini.load("cpu0", a, 0b10)
    probe_hits = mini.stats.counters()["l1.hits"] - hits
    while not poll(cpu0, access):
        mini.run(until=mini.engine.now + 1)
    mini.run()
    return (lru, probe_hits, mini.engine.events_executed,
            mini.stats.snapshot())


@pytest.mark.tier1
@pytest.mark.parametrize("protocol", ("MESI", "DeNovo"))
def test_store_poll_touch_picks_the_same_victim(protocol):
    """While a stalled store polls, a fill evicts the same line as when
    the store re-presents itself every cycle."""
    shipped = _stalled_store_picks_victim(protocol, _poll_shipped)
    assert shipped == _stalled_store_picks_victim(protocol,
                                                  _poll_re_presenting)
    lru, probe_hits = shipped[:2]
    assert SET_LINES[0] in lru and SET_LINES[1] not in lru
    assert probe_hits == 1
