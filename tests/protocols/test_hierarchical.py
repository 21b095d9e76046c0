"""Hierarchical baseline tests: MESI directory L3 and GPU L2.

Exercises the blocking directory transients and the GPU L2's dual role
(Spandex-style home for its L1s, MESI client upward) — the organization
Spandex is evaluated against (paper §II-D, §IV-A).
"""


from repro.coherence.messages import atomic_add
from repro.core.home import HomeState
from repro.core.tu import make_tu
from repro.protocols.denovo import DeNovoL1, DnState
from repro.protocols.gpu_coherence import GPUCoherenceL1
from repro.protocols.mesi import MESIL1, MesiState
from repro.protocols.mesi_llc import DirState, MESIDirectoryLLC

from tests.systems import MiniHier

LINE = 0x2000


def test_cpu_gets_exclusive_then_shared():
    mini = MiniHier(cpus=2)
    mini.dram.poke(LINE, {0: 5})
    load = mini.access("cpu0", "load", LINE, 0b1)
    mini.run()
    assert load.values[0] == 5
    assert mini.l1s["cpu0"].array.lookup(LINE, touch=False).state == \
        MesiState.E
    # second reader: FwdGetS downgrades the first to S
    load2 = mini.access("cpu1", "load", LINE, 0b1)
    mini.run()
    assert load2.values[0] == 5
    assert mini.l1s["cpu0"].array.lookup(LINE, touch=False).state == \
        MesiState.S
    dir_line = mini.llc.array.lookup(LINE, touch=False)
    assert dir_line.state == DirState.S


def test_getm_invalidates_sharers():
    mini = MiniHier(cpus=2)
    mini.dram.poke(LINE, {0: 5})
    mini.access("cpu0", "load", LINE, 0b1)
    mini.run()
    mini.access("cpu1", "load", LINE, 0b1)
    mini.run()
    store = mini.access("cpu0", "store", LINE, 0b1, values={0: 9})
    release = mini.release("cpu0")
    mini.run()
    assert release.done
    assert mini.l1s["cpu1"].array.lookup(LINE, touch=False) is None
    assert mini.l1s["cpu0"].array.lookup(LINE, touch=False).state == \
        MesiState.M


def test_dirty_transfer_between_cpus():
    mini = MiniHier(cpus=2)
    mini.access("cpu0", "store", LINE, 0b1, values={0: 77})
    mini.release("cpu0")
    mini.run()
    load = mini.access("cpu1", "load", LINE, 0b1)
    mini.run()
    assert load.values[0] == 77


def test_gpu_write_through_goes_through_l2():
    mini = MiniHier(cpus=1, gpus=1)
    mini.access("gpu0", "store", LINE, 0b1, values={0: 11})
    release = mini.release("gpu0")
    mini.run()
    assert release.done
    l2_line = mini.gpu_l2.array.lookup(LINE, touch=False)
    assert l2_line is not None and l2_line.data[0] == 11
    # the L2 holds the line in M upstream; dir records it as owner
    dir_line = mini.llc.array.lookup(LINE, touch=False)
    assert dir_line.state == DirState.M
    assert dir_line.meta["owner"] == "gpu_l2"


def test_cpu_read_recalls_gpu_l2_dirty_line():
    mini = MiniHier(cpus=1, gpus=1)
    mini.access("gpu0", "store", LINE, 0b1, values={0: 13})
    mini.release("gpu0")
    mini.run()
    load = mini.access("cpu0", "load", LINE, 0b1)
    mini.run()
    assert load.values[0] == 13
    # the L2 was downgraded to S upstream
    l2_line = mini.gpu_l2.array.lookup(LINE, touch=False)
    assert l2_line.meta.get("up_state") == "S"


def test_l2_recalls_l1_owned_words_on_fwd_getm():
    # HMD: DeNovo GPU L1 owns a word inside the L2; a CPU write must
    # pull the word back through the recall machinery.
    mini = MiniHier(cpus=1, gpus=1, gpu_protocol="DeNovo")
    mini.access("gpu0", "store", LINE, 0b1, values={0: 21})
    mini.release("gpu0")
    mini.run()
    l2_line = mini.gpu_l2.array.lookup(LINE, touch=False)
    assert l2_line.owner[0] == "gpu0"
    store = mini.access("cpu0", "store", LINE, 0b10, values={1: 5})
    release = mini.release("cpu0")
    mini.run()
    assert release.done
    cpu_line = mini.l1s["cpu0"].array.lookup(LINE, touch=False)
    assert cpu_line.state == MesiState.M
    assert cpu_line.data[0] == 21       # recalled dirty word traveled
    # the gpu L1 lost ownership
    gpu_line = mini.l1s["gpu0"].array.lookup(LINE, touch=False)
    assert gpu_line is None or gpu_line.word_states[0] != DnState.O


def test_gpu_atomic_performed_at_l2():
    mini = MiniHier(cpus=0, gpus=2)
    rmw1 = mini.access("gpu0", "rmw", LINE, 0b1, atomic=atomic_add(1))
    mini.run()
    rmw2 = mini.access("gpu1", "rmw", LINE, 0b1, atomic=atomic_add(1))
    mini.run()
    assert rmw1.values[0] == 0
    assert rmw2.values[0] == 1
    assert mini.gpu_l2.array.lookup(LINE, touch=False).data[0] == 2


def test_l2_eviction_putm_releases_ownership():
    mini = MiniHier(cpus=1, gpus=1)
    mini.access("gpu0", "store", LINE, 0b1, values={0: 3})
    mini.release("gpu0")
    mini.run()
    l2_line = mini.gpu_l2.array.lookup(LINE, touch=False)
    mini.gpu_l2._evict(l2_line, lambda: None)
    mini.run()
    dir_line = mini.llc.array.lookup(LINE, touch=False)
    assert dir_line.state == DirState.V
    assert dir_line.data[0] == 3


def test_directory_blocking_serializes_writers():
    mini = MiniHier(cpus=2, gpus=1)
    # everyone hammers the same word through different paths
    mini.access("cpu0", "rmw", LINE, 0b1, atomic=atomic_add(1))
    mini.access("cpu1", "rmw", LINE, 0b1, atomic=atomic_add(1))
    mini.access("gpu0", "rmw", LINE, 0b1, atomic=atomic_add(1))
    mini.run()
    values = []
    dir_line = mini.llc.array.lookup(LINE, touch=False)
    # the final count must be exactly 3 wherever the line lives
    if dir_line.state == DirState.M:
        owner = dir_line.meta["owner"]
        if owner == "gpu_l2":
            values.append(mini.gpu_l2.array.lookup(
                LINE, touch=False).data[0])
        else:
            values.append(mini.l1s[owner].array.lookup(
                LINE, touch=False).data[0])
    else:
        values.append(dir_line.data[0])
    assert values == [3]


def test_gpu_l2_drops_an_invalidated_grant_unless_l1s_own_words():
    """After an Inv overtook a DATA_S grant (IS_D_I), the GPU L2 drops
    the stale copy: evicted when free, marked I and clean when pinned
    (an upstream request is pending), and kept when L1s own words."""
    l2 = MiniHier().gpu_l2
    line_obj = l2.array.install(LINE)
    line_obj.state = HomeState.V
    l2._drop_invalidated(LINE)
    assert l2.array.lookup(LINE, touch=False) is None

    line_obj = l2.array.install(LINE)
    line_obj.state = HomeState.V
    line_obj.meta["dirty_mask"] = 0b1
    line_obj.pin()
    l2._drop_invalidated(LINE)
    assert line_obj.state == HomeState.I
    assert line_obj.meta["dirty_mask"] == 0
    assert l2._up_state(line_obj) == "I"

    line_obj.state = HomeState.V
    l2._set_owners(line_obj, 0b1, "gpu0")
    l2._drop_invalidated(LINE)
    assert line_obj.state == HomeState.V
    assert l2.array.lookup(LINE, touch=False) is line_obj
