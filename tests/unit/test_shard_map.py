"""Unit tests for address-interleaved home sharding: the shared
:class:`~repro.core.shard.HomeMap`, the home-side misroute guard, and
the per-home-instance transaction-id counter (previously a class-level
counter that leaked across same-process simulations).
"""

import pytest

from repro.coherence.messages import Message, MsgKind
from repro.core.home import SpandexHome
from repro.core.shard import HomeMap, shard_names, shard_size
from repro.network.noc import Network
from repro.sim.engine import Engine, SimulationError
from repro.sim.stats import StatsRegistry

KB = 1024


# -- shard naming -------------------------------------------------------------
@pytest.mark.tier1
def test_single_shard_keeps_historical_name():
    assert shard_names(1) == ("llc",)


@pytest.mark.tier1
def test_multi_shard_names_are_indexed():
    assert shard_names(3) == ("llc0", "llc1", "llc2")


@pytest.mark.tier1
def test_shard_count_must_be_positive():
    with pytest.raises(ValueError):
        shard_names(0)


@pytest.mark.tier1
def test_shard_size_rounds_to_whole_sets():
    # an inexact split (8 MB / 3) must still be a valid cache geometry
    assert shard_size(8 * 1024 * KB, 1, 16) == 8 * 1024 * KB
    three_way = shard_size(8 * 1024 * KB, 3, 16)
    assert three_way % (16 * 64) == 0
    assert 0 < three_way <= 8 * 1024 * KB // 3
    # never below one set, even for absurd splits
    assert shard_size(16 * 64, 4, 16) == 16 * 64


# -- HomeMap ------------------------------------------------------------------
@pytest.mark.tier1
def test_line_interleave_round_robins_consecutive_lines():
    home_map = HomeMap(shard_names(2), "line")
    assert home_map.home_for(0x1_0000) == "llc0"   # line index 0x400
    assert home_map.home_for(0x1_0040) == "llc1"   # line index 0x401
    assert home_map.home_for(0x1_0080) == "llc0"
    # sub-line offsets never change the home
    assert home_map.home_for(0x1_0004) == home_map.home_for(0x1_003C)


@pytest.mark.tier1
def test_hash_interleave_spreads_strided_lines():
    # a stride of N lines pins the 'line' interleave to one shard; the
    # hash interleave must still reach every shard
    home_map = HomeMap(shard_names(4), "hash")
    homes = {home_map.home_for(0x1_0000 + i * 4 * 64) for i in range(64)}
    assert homes == set(shard_names(4))


@pytest.mark.tier1
def test_hash_interleave_is_deterministic():
    a = HomeMap(shard_names(4), "hash")
    b = HomeMap(shard_names(4), "hash")
    lines = [i * 64 for i in range(256)]
    assert [a.home_for(line) for line in lines] == \
        [b.home_for(line) for line in lines]


@pytest.mark.tier1
def test_single_shard_map_is_constant():
    home_map = HomeMap(shard_names(1), "hash")
    assert home_map.home_for(0x1_0000) == "llc"
    assert home_map.home_for(0x9_FFC0) == "llc"
    assert len(home_map) == 1


@pytest.mark.tier1
def test_unknown_interleave_rejected():
    with pytest.raises(ValueError):
        HomeMap(shard_names(2), "striped")


# -- home-side wiring ---------------------------------------------------------
def _home(name, engine=None, network=None):
    engine = engine or Engine()
    network = network or Network(engine, StatsRegistry())
    home = SpandexHome(engine, name, network, StatsRegistry(),
                       size_bytes=64 * KB, banks=4)
    return home


@pytest.mark.tier1
def test_misrouted_request_raises():
    home = _home("llc0")
    home.home_map = HomeMap(shard_names(2), "line")
    good = Message(MsgKind.REQ_V, 0x1_0000, 1, "cpu0", "llc0")
    bad = Message(MsgKind.REQ_V, 0x1_0040, 1, "cpu0", "llc0")
    home.receive(good)                      # homed here: accepted
    with pytest.raises(SimulationError, match="misrouted"):
        home.receive(bad)                   # homed at llc1


@pytest.mark.tier1
def test_txn_ids_are_per_home_instance():
    # Two fresh homes must both start at txn 1: ids used to come from a
    # class-level counter, so traces depended on how many simulations
    # the process had already run.
    first = _home("llc")
    second = _home("llc")
    txn_a = first._new_txn(0x1_0000, 1, "O", lambda t: None)
    txn_b = second._new_txn(0x1_0000, 1, "O", lambda t: None)
    assert txn_a.txn_id == 1
    assert txn_b.txn_id == 1
    assert first._new_txn(0x1_0040, 1, "O", lambda t: None).txn_id == 2
