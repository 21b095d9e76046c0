"""Unit tests for the reliable-delivery sublayer (repro.network.reliable):
receiver channel admit semantics, ack-driven unacked cleanup, timeout
retransmission with capped exponential backoff, reorder re-sequencing,
dup suppression, dead-link escalation into TransportError, and the
builder's structural passthrough (plain Network unless a delivery-fault
class is armed)."""

import pytest

from repro.coherence.messages import Message, MsgKind
from repro.faults.injector import FaultInjector
from repro.network import Network, ReliableNetwork, TransportError
from repro.network.noc import LatencyModel
from repro.network.reliable import _RecvChannel
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry
from repro.system import (FaultConfig, LinkWindow, build_system,
                          scaled_config)

RTO = 100


class Sink:
    def __init__(self, name, engine):
        self.name = name
        self.engine = engine
        self.received = []

    def receive(self, msg):
        self.received.append((self.engine.now, msg))


def _rig(faults=None, rto=RTO, rto_cap=4 * RTO, dead_cycles=200_000):
    engine = Engine()
    stats = StatsRegistry()
    network = ReliableNetwork(engine, stats, LatencyModel(default=10),
                              rto=rto, rto_cap=rto_cap,
                              dead_cycles=dead_cycles)
    if faults is not None:
        network.fault_injector = FaultInjector(faults, stats)
    sink = Sink("b", engine)
    network.register(Sink("a", engine))
    network.register(sink)
    return engine, network, sink


def _msg(line=0x100):
    return Message(MsgKind.REQ_V, line, 1, "a", "b")


# -- receiver channel semantics ----------------------------------------------
@pytest.mark.tier1
def test_recv_channel_in_order_delivery():
    channel = _RecvChannel()
    m0, m1 = _msg(), _msg()
    assert channel.admit(0, m0) == ([m0], "deliver")
    assert channel.admit(1, m1) == ([m1], "deliver")
    assert channel.expect == 2


@pytest.mark.tier1
def test_recv_channel_buffers_gap_and_drains_in_order():
    channel = _RecvChannel()
    m0, m1, m2 = _msg(0x100), _msg(0x140), _msg(0x180)
    assert channel.admit(2, m2) == ([], "buffer")
    assert channel.admit(1, m1) == ([], "buffer")
    ready, verdict = channel.admit(0, m0)
    assert verdict == "deliver"
    assert ready == [m0, m1, m2]            # gap filled: strict order
    assert channel.expect == 3
    assert not channel.buffer


@pytest.mark.tier1
def test_recv_channel_drops_stale_and_buffered_duplicates():
    channel = _RecvChannel()
    m0 = _msg()
    channel.admit(0, m0)
    assert channel.admit(0, _msg()) == ([], "dup")      # stale
    channel.admit(2, _msg())
    assert channel.admit(2, _msg()) == ([], "dup")      # already buffered


# -- end-to-end: exactly-once FIFO over a clean wire -------------------------
@pytest.mark.tier1
def test_clean_wire_delivers_exactly_once_and_drains():
    engine, network, sink = _rig()
    first, second = _msg(0x100), _msg(0x140)
    network.send(first)
    network.send(second)
    engine.run()
    assert [msg for _, msg in sink.received] == [first, second]
    assert first.meta["rseq"] == 0 and second.meta["rseq"] == 1
    assert network.stats.get("transport.acks") == 2
    assert network.stats.get("transport.retransmits") == 0
    # acks drained the unacked buffers and cancelled the timer, so the
    # run terminated (we got here) and nothing is outstanding
    assert network.unacked_messages() == []
    snapshot = network.transport_snapshot()
    assert all(row["unacked"] == 0 for row in snapshot["send"])


# -- loss recovery ------------------------------------------------------------
@pytest.mark.tier1
def test_dropped_message_is_retransmitted_after_rto():
    # outage covers the original send; the first retransmit (at t=RTO,
    # past the window) gets through
    faults = FaultConfig(seed=0,
                         link_down=(LinkWindow(start=0, length=50),))
    engine, network, sink = _rig(faults=faults)
    network.send(_msg())
    engine.run()
    assert len(sink.received) == 1
    assert sink.received[0][0] >= RTO       # arrived via the retransmit
    assert network.stats.get("faults.link_down_dropped") == 1
    assert network.stats.get("transport.retransmits") == 1
    assert network.unacked_messages() == []


@pytest.mark.tier1
def test_retransmit_backoff_doubles_and_caps():
    # outage long enough to eat the original + three retransmits: ticks
    # at 100 (rto->200), 300 (->400), 700 (capped at 400), 1100 (past
    # the window: delivered)
    faults = FaultConfig(seed=0,
                         link_down=(LinkWindow(start=0, length=1000),))
    engine, network, sink = _rig(faults=faults, rto=RTO, rto_cap=400)
    network.send(_msg())
    engine.run()
    assert len(sink.received) == 1
    assert network.stats.get("transport.retransmits") == 4
    assert network.stats.get("faults.link_down_dropped") == 4
    # ack progress reset the backoff for the channel's next loss
    channel = network._send_channels[("a", "b")]
    assert channel.rto == RTO
    assert channel.timer is None


@pytest.mark.tier1
def test_retransmits_send_pristine_clones():
    # receivers mutate what they are handed; a retransmitted message
    # must not carry those mutations
    faults = FaultConfig(seed=0,
                         link_down=(LinkWindow(start=0, length=50),))
    engine, network, sink = _rig(faults=faults)
    original = _msg()
    original.data[0] = 41
    network.send(original)
    engine.run()
    (_, delivered), = sink.received
    assert delivered is not original        # a clone crossed the wire
    assert delivered.data == {0: 41}


# -- duplicate suppression ----------------------------------------------------
@pytest.mark.tier1
def test_wire_duplicates_are_suppressed():
    faults = FaultConfig(seed=0, dup_prob=1.0)
    engine, network, sink = _rig(faults=faults)
    network.send(_msg())
    engine.run()
    assert len(sink.received) == 1
    # the data message was duplicated — and so were the acks, which
    # ride the same faulty wire (idempotent, so merely counted)
    assert network.stats.get("faults.duplicated") >= 1
    assert network.stats.get("transport.dup_dropped") == 1
    # the dup re-acked: two wire arrivals, two cumulative acks
    assert network.stats.get("transport.acks") == 2


# -- reorder re-sequencing ----------------------------------------------------
class _ScriptedInjector:
    """Deterministic injector stand-in: scripted per-message skew."""

    unreliable = True
    sockets = {}

    def __init__(self, skews):
        self._skews = list(skews)

    def wire_fate(self, msg, now):
        # (drop reason, extra delay, reorder skew, duplicate?)
        return None, 0, self._skews.pop(0) if self._skews else 0, False


@pytest.mark.tier1
def test_reordered_messages_are_resequenced_before_delivery():
    engine, network, sink = _rig()
    network.fault_injector = _ScriptedInjector(skews=[50, 0])
    first, second = _msg(0x100), _msg(0x140)
    network.send(first)                     # skewed 50 cycles late
    network.send(second)                    # overtakes it on the wire
    engine.run()
    # the transport held the early arrival until the gap filled
    assert [msg for _, msg in sink.received] == [first, second]
    assert network.stats.get("transport.reorder_buffered") == 1
    assert network.unacked_messages() == []


# -- dead-link escalation -----------------------------------------------------
@pytest.mark.tier1
def test_permanently_dead_link_raises_transport_error():
    faults = FaultConfig(
        seed=0, link_down=(LinkWindow(start=0, length=10 ** 9),))
    engine, network, sink = _rig(faults=faults, dead_cycles=2_000)
    network.send(_msg())
    with pytest.raises(TransportError) as excinfo:
        engine.run()
    assert "a->b" in str(excinfo.value)
    diag = excinfo.value.diagnostic
    assert diag["transport"]["send"][0]["unacked"] == 1
    assert any(row["src"] == "a" for row in diag["fabric"])


# -- structural passthrough ---------------------------------------------------
@pytest.mark.tier1
def test_builder_keeps_plain_network_for_timing_faults():
    system = build_system(scaled_config(
        "SDD", 2, 2, faults=FaultConfig.stress(1)))
    assert type(system.network) is Network


@pytest.mark.tier1
def test_builder_interposes_reliable_network_when_unreliable():
    system = build_system(scaled_config(
        "SDD", 2, 2, faults=FaultConfig.unreliable_stress(1)))
    assert isinstance(system.network, ReliableNetwork)
    assert system.network.diagnostic_source is system
    assert system.fault_injector.sockets == {}      # p2p: no sockets


@pytest.mark.tier1
def test_builder_installs_socket_map_on_multi_socket_fabric():
    system = build_system(scaled_config(
        "SMG", 2, 2, faults=FaultConfig.unreliable_stress(1),
        topology="multi_socket", num_sockets=2))
    sockets = system.fault_injector.sockets
    assert sockets                                  # endpoints mapped
    assert set(sockets.values()) == {0, 1}
