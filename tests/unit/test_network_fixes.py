"""Regression pins for the network-layer latent bugs fixed alongside
sharding: the per-link latency cache going stale after ``set_pair`` /
``set_default`` (the first send on a pair froze its latency forever),
and ``Network.send`` validating ``msg.dst`` but happily transmitting
from an unregistered ``msg.src``.  Plus fault-injector edges: burst
window boundary cycles, latency revalidation mid-run with an injector
attached (both timing-only and unreliable paths), and the per-link
fabric snapshot used by diagnostic dumps.  ``send`` looks its link up
first (the stale-cache pins above run through that path), so its
first-send endpoint checks and its byte accounting are pinned too.
"""

import pytest

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import TRAFFIC_CLASS, Message, MsgKind
from repro.faults.injector import FaultInjector
from repro.network.noc import LatencyModel, Network
from repro.sim.engine import Engine, SimulationError
from repro.sim.stats import StatsRegistry
from repro.system import FaultConfig, LinkWindow


class Sink:
    def __init__(self, name, engine):
        self.name = name
        self.engine = engine
        self.received = []

    def receive(self, msg):
        self.received.append((self.engine.now, msg))


def _rig(default=10):
    engine = Engine()
    model = LatencyModel(default=default)
    network = Network(engine, StatsRegistry(), model)
    sink = Sink("b", engine)
    network.register(Sink("a", engine))
    network.register(sink)
    return engine, model, network, sink


def _flight_time(engine, network, sink):
    """Send one fixed-size message a->b and return its flight time."""
    departed = engine.now
    network.send(Message(MsgKind.REQ_V, 0x100, 1, "a", "b"))
    engine.run()
    arrived = sink.received[-1][0]
    return arrived - departed


# -- stale link-latency cache -------------------------------------------------
@pytest.mark.tier1
def test_set_pair_applies_to_already_used_link():
    # The a->b link caches its latency at first send; a later set_pair
    # used to be silently ignored for that pair.  Identical messages, so
    # any flight-time change is exactly the latency change.
    engine, model, network, sink = _rig(default=10)
    before = _flight_time(engine, network, sink)
    model.set_pair("a", "b", 3)
    after = _flight_time(engine, network, sink)
    assert before - after == 10 - 3


@pytest.mark.tier1
def test_set_default_applies_to_already_used_link():
    engine, model, network, sink = _rig(default=10)
    before = _flight_time(engine, network, sink)
    model.set_default(25)
    after = _flight_time(engine, network, sink)
    assert after - before == 25 - 10


@pytest.mark.tier1
def test_latency_model_version_bumps_on_every_mutation():
    model = LatencyModel(default=5)
    v0 = model.version
    model.set_pair("a", "b", 3)
    model.set_default(7)
    model.set_pair("a", "b", 3, symmetric=False)
    assert model.version == v0 + 3


# -- source validation --------------------------------------------------------
@pytest.mark.tier1
def test_send_rejects_unregistered_source():
    engine = Engine()
    network = Network(engine, StatsRegistry())
    network.register(Sink("b", engine))
    with pytest.raises(SimulationError, match="unknown source"):
        network.send(Message(MsgKind.REQ_V, 0x100, 1, "ghost", "b"))


@pytest.mark.tier1
def test_controlled_network_rejects_unregistered_source():
    from repro.verify.explorer import ControlledNetwork

    engine = Engine()
    network = ControlledNetwork(engine, StatsRegistry())
    network.register(Sink("b", engine))
    with pytest.raises(SimulationError, match="unknown source"):
        network.send(Message(MsgKind.REQ_V, 0x100, 1, "ghost", "b"))


# -- burst window boundary cycles ---------------------------------------------
@pytest.mark.tier1
def test_in_burst_boundary_cycles():
    injector = FaultInjector(FaultConfig(
        seed=0, burst_period=1000, burst_length=250, burst_extra=5))
    # the window is [k*period, k*period + length): closed start, open end
    assert injector.in_burst(0)
    assert injector.in_burst(249)
    assert not injector.in_burst(250)
    assert not injector.in_burst(999)
    assert injector.in_burst(1000)
    assert injector.in_burst(1249)
    assert not injector.in_burst(1250)


@pytest.mark.tier1
def test_in_burst_disabled_without_period_or_length():
    assert not FaultInjector(FaultConfig()).in_burst(0)
    assert not FaultInjector(FaultConfig(
        seed=0, burst_period=1000)).in_burst(0)      # zero-length window


# -- latency revalidation with an injector attached ---------------------------
@pytest.mark.tier1
def test_set_pair_applies_mid_run_with_injector_attached():
    # the injector branch of Network.send adds latency *after* the link
    # record lookup; a version bump must still re-derive the cached
    # latency on that path (inert config: no RNG perturbations)
    engine, model, network, sink = _rig(default=10)
    network.fault_injector = FaultInjector(FaultConfig(seed=0),
                                           network.stats)
    before = _flight_time(engine, network, sink)
    model.set_pair("a", "b", 3)
    after = _flight_time(engine, network, sink)
    assert before - after == 10 - 3


@pytest.mark.tier1
def test_set_pair_applies_mid_run_on_unreliable_path():
    # same property on the wire_fate path (delivery-fault classes
    # armed but scheduled far in the future, so no message is touched)
    engine, model, network, sink = _rig(default=10)
    network.fault_injector = FaultInjector(
        FaultConfig(seed=0,
                    link_down=(LinkWindow(start=10 ** 9, length=1),)),
        network.stats)
    assert network.fault_injector.unreliable
    before = _flight_time(engine, network, sink)
    model.set_pair("a", "b", 3)
    after = _flight_time(engine, network, sink)
    assert before - after == 10 - 3


# -- per-link fabric snapshot -------------------------------------------------
@pytest.mark.tier1
def test_links_snapshot_tracks_in_flight_depth_and_age():
    engine, model, network, sink = _rig(default=10)
    network.send(Message(MsgKind.REQ_V, 0x100, 1, "a", "b"))
    network.send(Message(MsgKind.REQ_V, 0x140, 1, "a", "b"))
    (row,) = [r for r in network.links_snapshot()
              if r["src"] == "a" and r["dst"] == "b"]
    assert row["in_flight"] == 2
    assert row["oldest_age"] == 0           # both sent at cycle 0
    assert row["latency"] == 10
    engine.run()
    (row,) = [r for r in network.links_snapshot()
              if r["src"] == "a" and r["dst"] == "b"]
    assert row["in_flight"] == 0
    assert row["oldest_age"] == 0
    assert row["last_delivery"] == sink.received[-1][0]


# -- send's link-first fast path ----------------------------------------------
@pytest.mark.tier1
@pytest.mark.parametrize("src, dst, unknown", [
    ("ghost", "b", "unknown source"),
    ("a", "ghost", "unknown destination"),
])
def test_first_send_checks_both_endpoints(src, dst, unknown):
    # endpoints are checked when the send creates the pair's link
    engine, model, network, sink = _rig()
    with pytest.raises(SimulationError, match=unknown):
        network.send(Message(MsgKind.REQ_V, 0x100, 1, src, dst))
    assert (src, dst) not in network._links


@pytest.mark.tier1
@pytest.mark.parametrize("kind", list(MsgKind), ids=lambda k: k.name)
def test_send_accounts_size_bytes_for_every_kind(kind):
    engine, model, network, sink = _rig()
    stats = network.stats

    def accounted():
        return (stats.get("network.bytes"),
                stats.group("traffic.bytes").get(TRAFFIC_CLASS[kind], 0))

    for mask in (0, 0b0110, FULL_LINE_MASK):
        for words in (0, 1, 16):
            msg = Message(kind, 0x100, mask, "a", "b",
                          data={index: index for index in range(words)})
            before = accounted()
            network.send(msg)
            size = msg.size_bytes()
            assert size == 16 + (2 if mask == 0b0110 else 0) + 4 * words
            after = accounted()
            assert (after[0] - before[0], after[1] - before[1]) == \
                (size, size)
    engine.run()
