"""The litmus systems come out of the simulator's own builder.

``VerifySystem`` subclasses ``System`` and only overrides its network,
L1-name and L1-geometry hooks, so every ``SystemConfig`` field reaches
the explorer through the one wiring path.
"""

import pytest

from repro.system.builder import System
from repro.system.config import CONFIG_ORDER, SPANDEX_CONFIGS
from repro.verify.systems import THREAD_NAMES, VerifySystem

pytestmark = pytest.mark.tier1


@pytest.mark.parametrize("config_name", CONFIG_ORDER)
def test_litmus_system_is_a_builder_system(config_name):
    system = VerifySystem(config_name)
    assert isinstance(system, System)
    assert list(system.l1s) == list(THREAD_NAMES) == ["c0", "c1", "g0", "g1"]
    assert all(l1.coalesce_delay == 1 for l1 in system.l1s.values())
    # the explorer drives the engine itself: no stall check installed
    assert system.watchdog is None
    assert system.engine.stall_check is None


@pytest.mark.parametrize("config_name", SPANDEX_CONFIGS)
def test_policy_and_predictor_reach_every_tu(config_name):
    system = VerifySystem(config_name, request_policy="adaptive",
                          owner_pred=True)
    for l1 in system.l1s.values():
        assert l1.tu.policy is not None
        assert l1.tu.predictor is not None


def test_every_builder_field_reaches_the_litmus_system():
    system = VerifySystem("SDD", store_buffer_words=16)
    assert all(l1.store_buffer.capacity_words == 16
               for l1 in system.l1s.values())
    system = VerifySystem("SMG", topology="multi_socket", llc_shards=2)
    assert system.topology.sockets
    assert set(THREAD_NAMES) <= set(system.topology.sockets)
