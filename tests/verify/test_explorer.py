"""Schedule exploration: bounded DFS, random walks, shrink and replay.

Tier-1 runs a small bounded DFS on two configurations per scenario and
exercises the failing-schedule machinery against a seeded mutant; the
``slow`` suite sweeps the full DFS bound and the seed matrix across all
six configurations (the nightly job).
"""

from collections import Counter

import pytest

from repro.system.config import CONFIGS
from repro.verify import (CORPUS, DfsExplorer, RandomWalkExplorer,
                          replay_schedule, run_schedule, scenario_by_name,
                          shrink_failure)
from repro.verify.explorer import (ControlledNetwork, FAILURE_KINDS,
                                   PrefixChooser, RandomChooser)
from repro.verify.litmus import DATA, LitmusScenario
from repro.verify.mutants import mutant_by_name
from repro.workloads.trace import Op

CONFIG_NAMES = tuple(CONFIGS)
SMOKE_CONFIGS = ("SMG", "HMG")          # one Spandex, one hierarchical


# -- choosers ---------------------------------------------------------------
@pytest.mark.tier1
def test_prefix_chooser_records_branching():
    chooser = PrefixChooser([1, 0])
    assert chooser.choose(3) == 1
    assert chooser.choose(2) == 0
    assert chooser.choose(2) == 0          # beyond the prefix: default 0
    assert chooser.record == [1, 0, 0]
    assert chooser.branching == [3, 2, 2]


@pytest.mark.tier1
def test_random_chooser_is_seed_deterministic():
    a = [RandomChooser(7).choose(4) for _ in range(16)]
    b = [RandomChooser(7).choose(4) for _ in range(16)]
    assert a == b


# -- bounded DFS smoke (tier-1) ---------------------------------------------
@pytest.mark.tier1
@pytest.mark.parametrize("config_name", SMOKE_CONFIGS)
@pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)
def test_bounded_dfs_smoke(scenario, config_name):
    result = DfsExplorer(max_schedules=8).explore(scenario, config_name)
    assert result.ok, result.failures


@pytest.mark.tier1
def test_random_walk_smoke():
    scenario = scenario_by_name("mp-flag-handoff")
    for config_name in SMOKE_CONFIGS:
        result = RandomWalkExplorer(seeds=range(3)).explore(
            scenario, config_name)
        assert result.ok, result.failures


# -- failing-schedule machinery against a seeded bug ------------------------
@pytest.mark.tier1
def test_explorer_finds_seeded_bug_and_shrinks_it():
    mutant = mutant_by_name("home-stale-wb-applies")
    scenario = scenario_by_name("wb-races-reqwt")
    with mutant.applied():
        result = DfsExplorer(max_schedules=120).explore(scenario, "SMG")
        assert result.failures, "seeded bug not found by bounded DFS"
        failure = result.failures[0]
        assert failure.scenario == scenario.name
        assert failure.config == "SMG"
        shrunk = shrink_failure(scenario, "SMG", failure.choices)
        assert len(shrunk) <= len(failure.choices)
        # the shrunk schedule still reproduces deterministically
        with pytest.raises(FAILURE_KINDS):
            replay_schedule(scenario, "SMG", shrunk)
    # and with the mutant reverted the same schedule passes
    replay_schedule(scenario, "SMG", shrunk)


@pytest.mark.tier1
def test_failure_dump_names_scenario_and_schedule():
    mutant = mutant_by_name("home-stale-wb-applies")
    scenario = scenario_by_name("wb-races-reqwt")
    with mutant.applied():
        result = DfsExplorer(max_schedules=120).explore(scenario, "SMG")
    failure = result.failures[0]
    verify = failure.diagnostic.get("verify", {})
    assert verify.get("scenario") == scenario.name
    assert verify.get("config") == "SMG"
    assert "choices" in verify or "seed" in verify


@pytest.mark.tier1
def test_forced_nack_scenario_exercises_retry_path():
    # reqv-departed-owner forces the FIFO-unreachable Nack leg through
    # the home's deterministic fault hook; the retry path must converge
    scenario = scenario_by_name("reqv-departed-owner")
    for config_name in ("SDD", "SDG"):
        run_schedule(scenario, config_name, None)


# -- controlled network unit behaviour --------------------------------------
@pytest.mark.tier1
def test_litmus_compute_op_takes_its_cycles():
    """Litmus threads run the simulator's CPU core, so a compute op
    advances ``op.cycles``, not one cycle."""
    scenario = LitmusScenario(
        "compute-gap",
        lambda: {"threads": {"c0": [Op.store(DATA, 1), Op.compute(50),
                                    Op.store(DATA + 4, 2)]}},
        "two stores around a 50-cycle compute op")
    run = run_schedule(scenario, "SMG")
    (c0,) = [driver for driver in run.drivers if driver.name == "c0"]
    first, second = c0.log
    assert (first["kind"], second["kind"]) == ("store", "store")
    assert second["cycle"] - first["cycle"] >= 50


@pytest.mark.tier1
def test_deliverable_orders_heads_oldest_first():
    from repro.coherence.messages import Message, MsgKind
    from repro.sim.engine import Engine
    from repro.sim.stats import StatsRegistry

    class _Sink:
        def __init__(self, name):
            self.name = name

        def receive(self, msg):
            pass

    net = ControlledNetwork(Engine(), StatsRegistry())
    for name in ("a", "b", "z"):
        net.register(_Sink(name))
    first = Message(MsgKind.REQ_V, 0x100, 0b1, src="z", dst="b")
    second = Message(MsgKind.REQ_V, 0x140, 0b1, src="a", dst="b")
    net.send(first)
    net.send(second)
    heads = net.deliverable()
    assert heads[0] is first            # enqueue order, not link-name order


def _run_counting_handoffs(scenario, config_name, trace):
    """One seeded random-walk schedule, counting the messages the
    controlled network hands up to endpoints."""
    handed = []

    def count_releases(system):
        released = system.network._released

        def counted(msg):
            ready = released(msg)
            handed.extend(ready)
            return ready
        system.network._released = counted

    run = run_schedule(scenario, config_name, RandomChooser(3),
                       trace=trace, on_system=count_releases)
    return run, len(handed)


def _schedule_outcome(scenario, run):
    system = run.system
    addrs = sorted(set(scenario.reference().memory)
                   | set(scenario.spec().get("initial", {})))
    return {"choices": run.choices, "branching": run.branching,
            "deliveries": run.deliveries, "now": system.engine.now,
            "stats": system.stats.snapshot(),
            "memory": {addr: system.read_coherent(addr) for addr in addrs}}


@pytest.mark.tier1
@pytest.mark.parametrize("config_name", SMOKE_CONFIGS)
@pytest.mark.parametrize("scenario_name",
                         ["mp-flag-handoff", "unreliable-mp-handoff"])
def test_traced_schedule_matches_untraced(scenario_name, config_name):
    """Tracing is passive under the explorer too: the same schedule,
    timing, stats and memory, and the ring holds one ``net.send`` and
    one ``net.deliver`` per message handed up to an endpoint."""
    scenario = scenario_by_name(scenario_name)
    plain, plain_handed = _run_counting_handoffs(scenario, config_name,
                                                 trace=False)
    traced, traced_handed = _run_counting_handoffs(scenario, config_name,
                                                   trace=True)
    assert _schedule_outcome(scenario, traced) == \
        _schedule_outcome(scenario, plain)
    assert traced_handed == plain_handed > 0
    if scenario.spec().get("verify_drops"):
        network = traced.system.network
        assert network.transport_drops + network.transport_dups > 0

    tracer = traced.system.tracer
    events = tracer.events()
    assert len(events) == tracer.seen          # nothing filtered or evicted
    sends = Counter((e[4], e[5]) for e in events if e[1] == "net.send")
    delivers = Counter((e[4], e[5]) for e in events
                       if e[1] == "net.deliver")
    assert sum(sends.values()) == traced_handed
    assert sends == delivers


# -- full sweeps (nightly) ---------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)
def test_full_dfs_sweep(scenario, config_name):
    result = DfsExplorer(max_schedules=40).explore(scenario, config_name)
    assert result.ok, result.failures


@pytest.mark.slow
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
@pytest.mark.parametrize("scenario", CORPUS, ids=lambda s: s.name)
def test_seed_matrix_random_walk(scenario, config_name):
    result = RandomWalkExplorer(seeds=range(8)).explore(
        scenario, config_name)
    assert result.ok, result.failures
