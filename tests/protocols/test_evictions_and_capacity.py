"""Capacity and eviction-path tests across all cache levels.

Evictions exercise protocol paths that the steady-state tests don't:
inclusive-LLC sharer invalidation before victimization, GPU L2 PutM
releases, directory recalls, and owned-line pinning under pressure.
"""

import pytest

from repro.coherence.messages import MsgKind, atomic_add
from repro.core.home import HomeState

from tests.systems import MiniHier, MiniSpandex


def spread_lines(count, set_stride):
    """Lines that all map to the same set for a cache with
    ``set_stride`` bytes between same-set lines."""
    return [0x40000 + i * set_stride for i in range(count)]


def test_llc_eviction_invalidates_sharers_first():
    # a tiny LLC forces S-line evictions; the sharers must be
    # invalidated before the line may leave (MESI correctness)
    mini = MiniSpandex({"a": "MESI", "b": "MESI"}, llc_size=2 * 1024,
                       coalesce_delay=1)
    target = 0x40000
    # create an S line: a owns it, b reads it
    mini.store("a", target, 0b1, {0: 7})
    mini.release("a")
    mini.run()
    mini.load("b", target, 0b1)
    mini.run()
    assert mini.llc_line(target).state == HomeState.S
    # hammer the same LLC set until the S line is evicted
    stride = 2 * 1024      # sets * 64 for this size/assoc
    before_inv = mini.stats.get("home.llc.invalidations_sent")
    for i in range(1, 40):
        line = target + i * stride
        mini.store("a", line, 0b1, {0: i})
        mini.release("a")
        mini.run()
        # immediately drop ownership so these lines are evictable
        l1 = mini.l1s["a"]
        resident = l1.array.lookup(line, touch=False)
        if resident is not None:
            l1._evict(resident)
        mini.run()
    assert mini.llc_line(target) is None      # evicted
    assert mini.stats.get("home.llc.invalidations_sent") > before_inv
    # and the sharer's copy went with it
    b_line = mini.l1s["b"].array.lookup(target, touch=False)
    assert b_line is None
    # value survived to DRAM
    assert mini.dram.peek(target)[0] == 7


def test_owned_lines_pin_against_llc_eviction():
    mini = MiniSpandex({"dn": "DeNovo"}, llc_size=2 * 1024,
                       coalesce_delay=1)
    target = 0x40000
    mini.store("dn", target, 0b1, {0: 42})
    mini.release("dn")
    mini.run()
    # stride chosen to alias in the tiny LLC (2 sets) but spread across
    # the larger L1's sets, so the L1 keeps its owned word resident
    stride = 128
    for i in range(1, 40):
        mini.load("dn", target + i * stride, 0b1)
        mini.run()
    assert mini.stats.get("home.llc.evictions") > 0
    # the owned line never left the LLC (inclusivity)
    assert mini.llc_line(target) is not None
    assert mini.llc_owner(target, 0) == "dn"


def test_gpu_l2_capacity_eviction_putm():
    mini = MiniHier(cpus=1, gpus=1)
    # shrink the L2 array to force evictions
    from repro.mem.cache import CacheArray
    from repro.core.home import HomeState as HS
    mini.gpu_l2.array = CacheArray(2 * 1024, 16, HS.I)
    lines = [0x50000 + i * 2 * 1024 for i in range(40)]
    for i, line in enumerate(lines):
        mini.access("gpu0", "store", line, 0b1, values={0: i + 1})
        mini.release("gpu0")
        mini.run()
    assert mini.stats.get("home.gpu_l2.putm") > 0
    # every written value is recoverable through the directory
    for i, line in enumerate(lines):
        load = mini.access("cpu0", "load", line, 0b1)
        mini.run()
        assert load.values[0] == i + 1


def test_l1_capacity_evictions_write_back_denovo():
    mini = MiniSpandex({"dn": "DeNovo"}, l1_size=1024,
                       coalesce_delay=1)
    # 1KB 8-way: 2 sets; stride same-set lines
    lines = [0x60000 + i * 2 * 64 for i in range(20)]
    for i, line in enumerate(lines):
        mini.store("dn", line, 0b1, {0: 100 + i})
        mini.release("dn")
        mini.run()
    assert mini.stats.get("l1.owned_evictions") > 0
    # all values are coherently visible at the LLC or the L1
    for i, line in enumerate(lines):
        owner = mini.llc_owner(line, 0)
        if owner is None:
            assert mini.llc_word(line, 0) == 100 + i
        else:
            resident = mini.l1s["dn"].array.lookup(line, touch=False)
            assert resident.data[0] == 100 + i


def test_l1_capacity_evictions_mesi_full_line():
    mini = MiniSpandex({"cpu": "MESI"}, l1_size=1024, coalesce_delay=1)
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    lines = [0x70000 + i * 2 * 64 for i in range(20)]
    for i, line in enumerate(lines):
        mini.store("cpu", line, 0b1, {0: i})
        mini.release("cpu")
        mini.run()
    writebacks = [m for m in traffic if m.kind == MsgKind.REQ_WB]
    assert writebacks
    assert all(m.mask == 0xFFFF for m in writebacks)


def test_directory_eviction_with_sharers():
    mini = MiniHier(cpus=2, gpus=0)
    from repro.mem.cache import CacheArray
    from repro.protocols.mesi_llc import DirState
    mini.llc.array = CacheArray(2 * 1024, 16, DirState.I)
    target = 0x80000
    mini.dram.poke(target, {0: 5})
    mini.access("cpu0", "load", target, 0b1)
    mini.run()
    mini.access("cpu1", "load", target, 0b1)
    mini.run()
    # push the shared line out with other traffic
    for i in range(1, 40):
        mini.access("cpu0", "load", target + i * 2 * 1024, 0b1)
        mini.run()
    assert mini.llc.array.lookup(target, touch=False) is None
    # sharers were invalidated on the way out
    for name in ("cpu0", "cpu1"):
        resident = mini.l1s[name].array.lookup(target, touch=False)
        assert resident is None
    # and a re-read still works
    load = mini.access("cpu1", "load", target, 0b1)
    mini.run()
    assert load.values[0] == 5


def test_gpu_coherence_eviction_is_silent():
    # write-through caches never write back on eviction
    mini = MiniSpandex({"gpu": "GPU"}, l1_size=1024, coalesce_delay=1)
    traffic = []
    lines = [0x90000 + i * 2 * 64 for i in range(20)]
    for line in lines:
        mini.load("gpu", line, 0b1)
        mini.run()
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.load("gpu", lines[0], 0b1)     # may evict, but silently
    mini.run()
    assert not any(m.kind == MsgKind.REQ_WB for m in traffic)
