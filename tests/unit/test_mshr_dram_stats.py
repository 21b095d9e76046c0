"""Unit tests for MSHRs, DRAM, network, and statistics."""

import pytest

from repro.coherence.messages import Message, MsgKind
from repro.mem.dram import MainMemory
from repro.mem.mshr import MSHRFile
from repro.network.noc import LatencyModel, Network
from repro.sim.engine import Engine, SimulationError
from repro.sim.stats import LatencySampler, StatsRegistry


# -- MSHR -------------------------------------------------------------------
def test_mshr_allocate_and_coalesce():
    mshrs = MSHRFile(2)
    entry = mshrs.allocate(0x100, "primary")
    mshrs.attach(0x100, "secondary")
    assert entry.all_requests() == ["primary", "secondary"]
    assert 0x100 in mshrs


def test_mshr_capacity():
    mshrs = MSHRFile(1)
    mshrs.allocate(0x100, "a")
    assert mshrs.full
    with pytest.raises(RuntimeError):
        mshrs.allocate(0x200, "b")


def test_mshr_double_allocate_rejected():
    mshrs = MSHRFile(4)
    mshrs.allocate(0x100, "a")
    with pytest.raises(RuntimeError):
        mshrs.allocate(0x100, "b")


def test_mshr_release():
    mshrs = MSHRFile(4)
    mshrs.allocate(0x100, "a")
    entry = mshrs.release(0x100)
    assert entry.primary == "a"
    assert 0x100 not in mshrs
    with pytest.raises(RuntimeError):
        mshrs.release(0x100)


# -- DRAM -------------------------------------------------------------------
def test_dram_poke_peek():
    engine = Engine()
    dram = MainMemory(engine, StatsRegistry(), latency=10)
    dram.poke(0x100, {3: 42})
    assert dram.peek(0x100)[3] == 42
    assert dram.peek(0x100)[0] == 0


def test_dram_fetch_latency_and_data():
    engine = Engine()
    dram = MainMemory(engine, StatsRegistry(), latency=25)
    dram.poke(0x100, {0: 7})
    seen = {}

    def callback(data):
        seen["time"] = engine.now
        seen["data"] = data

    dram.fetch(0x100, callback)
    engine.run()
    assert seen["time"] >= 25
    assert seen["data"][0] == 7


def test_dram_writeback_masked():
    engine = Engine()
    dram = MainMemory(engine, StatsRegistry(), latency=10)
    dram.poke(0x100, {0: 1, 1: 2})
    dram.writeback(0x100, 0b10, {0: 99, 1: 88})
    assert dram.peek(0x100)[0] == 1       # not in mask
    assert dram.peek(0x100)[1] == 88


def test_dram_bank_serialization():
    engine = Engine()
    stats = StatsRegistry()
    dram = MainMemory(engine, stats, latency=20, banks=2,
                      bank_busy_cycles=10)
    times = []
    # both lines map to bank 0 (line>>6 even)
    dram.fetch(0x000, lambda d: times.append(engine.now))
    dram.fetch(0x080, lambda d: times.append(engine.now))
    engine.run()
    assert times[1] - times[0] >= 10


# -- network ----------------------------------------------------------------
class Sink:
    def __init__(self, name, engine):
        self.name = name
        self.engine = engine
        self.received = []

    def receive(self, msg):
        self.received.append((self.engine.now, msg))


def test_network_delivery_and_latency():
    engine = Engine()
    stats = StatsRegistry()
    model = LatencyModel(default=7)
    network = Network(engine, stats, model)
    sink = Sink("b", engine)
    network.register(sink)
    network.register(Sink("a", engine))
    network.send(Message(MsgKind.REQ_V, 0x100, 1, "a", "b"))
    engine.run()
    assert len(sink.received) == 1
    assert sink.received[0][0] >= 7


def test_network_fifo_per_pair():
    engine = Engine()
    network = Network(engine, StatsRegistry(), LatencyModel(default=5))
    sink = Sink("b", engine)
    network.register(sink)
    network.register(Sink("a", engine))
    for value in range(5):
        network.send(Message(MsgKind.REQ_WT, 0x100, 1, "a", "b",
                             data={0: value}))
    engine.run()
    values = [msg.data[0] for _, msg in sink.received]
    assert values == [0, 1, 2, 3, 4]


def test_network_traffic_accounting():
    engine = Engine()
    stats = StatsRegistry()
    network = Network(engine, stats, LatencyModel(default=5))
    sink = Sink("b", engine)
    network.register(sink)
    network.register(Sink("a", engine))
    msg = Message(MsgKind.RVK_O, 0x100, 1, "a", "b")
    network.send(msg)
    engine.run()
    assert stats.get("network.messages") == 1
    assert stats.group("traffic.bytes")["Probe"] == msg.size_bytes()


def test_network_unknown_destination():
    engine = Engine()
    network = Network(engine, StatsRegistry())
    with pytest.raises(SimulationError):
        network.send(Message(MsgKind.REQ_V, 0, 1, "a", "ghost"))


def test_network_duplicate_endpoint():
    engine = Engine()
    network = Network(engine, StatsRegistry())
    network.register(Sink("x", engine))
    with pytest.raises(SimulationError):
        network.register(Sink("x", engine))


def test_network_bandwidth_serialization():
    engine = Engine()
    network = Network(engine, StatsRegistry(), LatencyModel(default=0),
                      link_bytes_per_cycle=16)
    sink = Sink("b", engine)
    network.register(sink)
    network.register(Sink("a", engine))
    data = {i: 1 for i in range(16)}
    for _ in range(3):
        network.send(Message(MsgKind.RSP_V, 0, 0xFFFF, "a", "b",
                             data=data))
    engine.run()
    # 80-byte messages over a 16 B/cycle link: 5 cycles each
    arrival = [t for t, _ in sink.received]
    assert arrival[1] - arrival[0] >= 5


# -- stats ------------------------------------------------------------------
def test_stats_counters_and_groups():
    stats = StatsRegistry()
    stats.incr("x", 2)
    stats.incr("x")
    stats.incr_group("g", "a", 5)
    assert stats.get("x") == 3
    assert stats.group("g") == {"a": 5}
    assert stats.group_total("g") == 5


def test_stats_merge():
    a, b = StatsRegistry(), StatsRegistry()
    a.incr("x", 1)
    b.incr("x", 2)
    b.incr_group("g", "k", 4)
    a.merge(b)
    assert a.get("x") == 3
    assert a.group("g")["k"] == 4


def test_stats_snapshot_and_format():
    stats = StatsRegistry()
    stats.incr("x")
    stats.incr_group("g", "k")
    snap = stats.snapshot()
    assert snap["counters"]["x"] == 1
    assert "g" in stats.format_table()


def test_latency_sampler():
    sampler = LatencySampler()
    for value in (5, 10, 15):
        sampler.sample("load", value)
    assert sampler.mean("load") == 10
    assert sampler.count("load") == 3
    snap = sampler.snapshot()["load"]
    assert snap["min"] == 5 and snap["max"] == 15
    assert sampler.mean("missing") == 0
