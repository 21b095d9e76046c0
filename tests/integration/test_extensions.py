"""Tests for the paper's optional/extension features:

* DeNovo regions — selective self-invalidation (paper §II-C);
* scoped synchronization — CU-local acquire/release (paper §III-E).
"""

import pytest

from repro.coherence.messages import atomic_add
from repro.system import CONFIG_ORDER, build_system, scaled_config
from repro.workloads import Workload
from repro.workloads.synthetic import make_local_sync, make_reuse_s
from repro.workloads.trace import AddressSpace, Op

from tests.systems import MiniSpandex

LINE = 0x9000


# -- regions at the protocol level -------------------------------------------
def test_region_invalidation_is_selective_denovo():
    mini = MiniSpandex({"dn": "DeNovo"})
    other = LINE + 0x400
    mini.seed(LINE, {0: 1})
    mini.seed(other, {0: 2})
    mini.load("dn", LINE, 0b1)
    mini.load("dn", other, 0b1)
    mini.run()
    l1 = mini.l1s["dn"]
    l1.self_invalidate(regions=[(LINE, 64)])
    assert l1.array.lookup(LINE, touch=False) is None or \
        l1.array.lookup(LINE, touch=False).word_states[0].value == "I"
    kept = l1.array.lookup(other, touch=False)
    assert kept is not None and kept.word_states[0].value == "V"


def test_region_invalidation_is_selective_gpu():
    mini = MiniSpandex({"gpu": "GPU"})
    other = LINE + 0x400
    mini.seed(LINE, {0: 1})
    mini.seed(other, {0: 2})
    mini.load("gpu", LINE, 0b1)
    mini.load("gpu", other, 0b1)
    mini.run()
    l1 = mini.l1s["gpu"]
    l1.self_invalidate(regions=[(LINE, 64)])
    assert l1.array.lookup(LINE, touch=False) is None
    assert l1.array.lookup(other, touch=False) is not None


def test_region_covers_partial_line_overlap():
    mini = MiniSpandex({"gpu": "GPU"})
    mini.seed(LINE, {0: 1})
    mini.load("gpu", LINE, 0b1)
    mini.run()
    l1 = mini.l1s["gpu"]
    # region starting mid-line still invalidates the containing line
    l1.self_invalidate(regions=[(LINE + 32, 8)])
    assert l1.array.lookup(LINE, touch=False) is None


def test_cu_scope_acquire_keeps_cache():
    mini = MiniSpandex({"gpu": "GPU"})
    mini.seed(LINE, {0: 5})
    mini.load("gpu", LINE, 0b1)
    mini.run()
    l1 = mini.l1s["gpu"]
    done = []
    l1.fence_acquire(lambda: done.append(True), scope="cu")
    mini.run()
    assert done
    assert l1.array.lookup(LINE, touch=False) is not None


def test_cu_scope_release_is_immediate():
    mini = MiniSpandex({"gpu": "GPU"}, coalesce_delay=50)
    mini.store("gpu", LINE, 0b1, {0: 9})
    l1 = mini.l1s["gpu"]
    done = []
    l1.fence_release(lambda: done.append(mini.engine.now), scope="cu")
    mini.run(until=10)
    assert done and done[0] <= 5      # no wait for the write-through


# -- regions / scope end to end -----------------------------------------------
@pytest.mark.parametrize("config_name", ("SDG", "SDD", "SMG"))
def test_reuse_s_with_regions_is_correct(config_name):
    workload = make_reuse_s(num_cpus=2, num_gpus=2, warps_per_cu=2,
                            use_regions=True)
    reference = workload.reference()
    system = build_system(scaled_config(config_name, 2, 2))
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    for addr, value in reference.memory.items():
        assert system.read_coherent(addr) == value


def test_regions_preserve_reuse_on_self_invalidating_configs():
    results = {}
    for use_regions in (False, True):
        workload = make_reuse_s(num_cpus=2, num_gpus=2, warps_per_cu=2,
                                use_regions=use_regions)
        system = build_system(scaled_config("SDD", 2, 2))
        system.load_workload(workload)
        result = system.run(max_events=30_000_000)
        results[use_regions] = result
    assert results[True].cycles < results[False].cycles
    assert results[True].network_bytes < results[False].network_bytes


def test_regions_are_noop_for_mesi():
    # MESI never self-invalidates: acquires (with or without regions)
    # leave the cache untouched
    mini = MiniSpandex({"cpu": "MESI"})
    mini.seed(LINE, {0: 3})
    mini.load("cpu", LINE, 0b1)
    mini.run()
    l1 = mini.l1s["cpu"]
    l1.self_invalidate()
    l1.self_invalidate(regions=[(LINE, 64)])
    assert l1.array.lookup(LINE, touch=False) is not None


@pytest.mark.parametrize("scope", ("device", "cu"))
def test_local_sync_is_correct(scope):
    workload = make_local_sync(num_cpus=2, num_gpus=2, warps_per_cu=2,
                               sync_scope=scope)
    reference = workload.reference()
    system = build_system(scaled_config("SDG", 2, 2))
    system.load_workload(workload)
    system.run(max_events=30_000_000)
    for addr, value in reference.memory.items():
        assert system.read_coherent(addr) == value


def test_cu_scope_beats_device_scope_on_local_sync():
    cycles = {}
    for scope in ("device", "cu"):
        workload = make_local_sync(num_cpus=2, num_gpus=2,
                                   warps_per_cu=2, sync_scope=scope)
        system = build_system(scaled_config("SDG", 2, 2))
        system.load_workload(workload)
        cycles[scope] = system.run(max_events=30_000_000).cycles
    assert cycles["cu"] < cycles["device"]


def test_device_scope_still_required_for_cross_cu_sync():
    """A cross-CU producer/consumer with *device* scope works; the
    value flows through the LLC despite GPU self-invalidation."""
    space = AddressSpace()
    data = space.alloc_words(1)
    flag = space.alloc_words(1)
    producer = [Op.store(data, 77),
                Op.rmw(flag, atomic_add(1), release=True)]
    consumer = [Op.spin_ge(flag, 1), Op.load(data)]
    workload = Workload("xcu", [[], []], [[producer], [consumer]])
    for config_name in CONFIG_ORDER:
        system = build_system(scaled_config(config_name, 2, 2))
        system.load_workload(workload)
        system.run(max_events=5_000_000)
        assert system.read_coherent(data) == 77
