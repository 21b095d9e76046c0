"""Cross-shard litmus scenarios: bounded DFS over 2-shard verify
systems, plus the shard plumbing through ``run_schedule`` /
``VerifySystem``.  These scenarios home the data and the publication
flag at *different* shards, so the release/acquire edges are no longer
serialized by a single home.
"""

import pytest

from repro.system.config import SPANDEX_CONFIGS
from repro.verify import CORPUS, DfsExplorer, run_schedule, scenario_by_name
from repro.verify.systems import VerifySystem

XSHARD = tuple(s for s in CORPUS if "xshard" in s.tags)
SMOKE_CONFIGS = ("SMG", "SDD")


@pytest.mark.tier1
def test_corpus_has_cross_shard_scenarios():
    assert len(XSHARD) >= 3
    for scenario in XSHARD:
        assert scenario.build().get("llc_shards", 1) >= 2, scenario.name


@pytest.mark.tier1
@pytest.mark.parametrize("config_name", SMOKE_CONFIGS)
@pytest.mark.parametrize("scenario", XSHARD, ids=lambda s: s.name)
def test_xshard_bounded_dfs(scenario, config_name):
    result = DfsExplorer(max_schedules=16).explore(scenario, config_name)
    assert result.ok, result.failures


@pytest.mark.tier1
def test_run_schedule_builds_two_shards():
    scenario = scenario_by_name("xshard-mp-handoff")
    for config_name in ("SMG", "SDD"):
        run_schedule(scenario, config_name, None)


@pytest.mark.tier1
def test_verify_system_shard_wiring():
    system = VerifySystem("SDD", llc_shards=2)
    assert [shard.name for shard in system.llcs] == ["llc0", "llc1"]
    # every L1 resolves homes through the shared map
    for _name, l1 in system.l1s.items():
        assert l1.home_map is system.home_map
        assert l1.home_for(0x1_0000) == "llc0"
        assert l1.home_for(0x1_0040) == "llc1"


@pytest.mark.tier1
def test_verify_system_single_shard_keeps_name():
    system = VerifySystem("SDD", llc_shards=1)
    assert [shard.name for shard in system.llcs] == ["llc"]


@pytest.mark.tier1
def test_hierarchical_ignores_shard_request():
    system = VerifySystem("HMG", llc_shards=2)
    assert [shard.name for shard in system.llcs] == ["l3"]


# -- full sweep (nightly) -----------------------------------------------------
@pytest.mark.slow
@pytest.mark.parametrize("config_name", SPANDEX_CONFIGS)
@pytest.mark.parametrize("scenario", XSHARD, ids=lambda s: s.name)
def test_xshard_full_dfs(scenario, config_name):
    result = DfsExplorer(max_schedules=48).explore(scenario, config_name)
    assert result.ok, result.failures
