"""Device-side protocol tests: GPU coherence, DeNovo, MESI (paper §II).

These exercise the distinguishing behaviours of each L1 protocol:
what invalidates at synchronization, what is written through vs owned,
and what granularity requests use.
"""

import pytest

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import MsgKind, atomic_add
from repro.protocols.denovo import DnState
from repro.protocols.gpu_coherence import GpuState
from repro.protocols.mesi import MesiState

from tests.systems import MiniSpandex

LINE = 0x8000


# ===========================================================================
# GPU coherence
# ===========================================================================
def test_gpu_load_miss_is_line_granularity():
    mini = MiniSpandex({"gpu": "GPU"})
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.load("gpu", LINE, 0b1)
    mini.run()
    reqv = [m for m in traffic if m.kind == MsgKind.REQ_V]
    assert len(reqv) == 1
    assert reqv[0].mask == FULL_LINE_MASK
    assert reqv[0].is_line_granularity


def test_gpu_store_is_word_granularity_write_through():
    mini = MiniSpandex({"gpu": "GPU"})
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.store("gpu", LINE, 0b100, {2: 5})
    mini.release("gpu")
    mini.run()
    reqwt = [m for m in traffic if m.kind == MsgKind.REQ_WT]
    assert len(reqwt) == 1
    assert reqwt[0].mask == 0b100
    assert not any(m.kind in (MsgKind.REQ_O, MsgKind.REQ_O_DATA)
                   for m in traffic)


def test_gpu_store_buffer_coalesces_words():
    mini = MiniSpandex({"gpu": "GPU"}, coalesce_delay=10)
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.store("gpu", LINE, 0b001, {0: 1})
    mini.store("gpu", LINE, 0b010, {1: 2})
    mini.store("gpu", LINE, 0b100, {2: 3})
    mini.release("gpu")
    mini.run()
    reqwt = [m for m in traffic if m.kind == MsgKind.REQ_WT]
    assert len(reqwt) == 1
    assert reqwt[0].mask == 0b111


def test_gpu_acquire_flash_invalidates_everything():
    mini = MiniSpandex({"gpu": "GPU"})
    mini.seed(LINE, {0: 1})
    mini.load("gpu", LINE, 0b1)
    mini.run()
    l1 = mini.l1s["gpu"]
    assert l1.array.lookup(LINE, touch=False) is not None
    mini.acquire("gpu")
    mini.run()
    assert l1.array.lookup(LINE, touch=False) is None


def test_gpu_atomics_bypass_l1():
    mini = MiniSpandex({"gpu": "GPU"})
    mini.seed(LINE, {0: 7})
    rmw = mini.rmw("gpu", LINE, 0b1, atomic_add(1))
    mini.run()
    assert rmw.values[0] == 7
    l1 = mini.l1s["gpu"]
    resident = l1.array.lookup(LINE, touch=False)
    # the line is not cached by the atomic (response is stale data)
    assert resident is None


def test_gpu_load_forwards_from_store_buffer():
    mini = MiniSpandex({"gpu": "GPU"}, coalesce_delay=50)
    mini.store("gpu", LINE, 0b1, {0: 123})
    load = mini.load("gpu", LINE, 0b1)
    mini.run(until=20)
    assert load.done and load.values[0] == 123


# ===========================================================================
# DeNovo
# ===========================================================================
def test_denovo_store_obtains_word_ownership():
    mini = MiniSpandex({"dn": "DeNovo"})
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.store("dn", LINE, 0b1, {0: 9})
    mini.release("dn")
    mini.run()
    reqo = [m for m in traffic if m.kind == MsgKind.REQ_O]
    assert len(reqo) == 1 and reqo[0].mask == 0b1
    assert not reqo[0].data                 # ownership only, no data
    l1 = mini.l1s["dn"]
    assert l1.array.lookup(LINE, touch=False).word_states[0] == DnState.O


def test_denovo_acquire_keeps_owned_words():
    # The heart of DeNovo's advantage: Owned data survives sync.
    mini = MiniSpandex({"dn": "DeNovo"})
    mini.seed(LINE, {1: 11})
    mini.store("dn", LINE, 0b1, {0: 5})
    mini.release("dn")
    load = mini.load("dn", LINE, 0b10)
    mini.run()
    l1 = mini.l1s["dn"]
    resident = l1.array.lookup(LINE, touch=False)
    assert resident.word_states[0] == DnState.O
    assert resident.word_states[1] == DnState.V
    mini.acquire("dn")
    mini.run()
    resident = l1.array.lookup(LINE, touch=False)
    assert resident.word_states[0] == DnState.O     # kept
    assert resident.word_states[1] == DnState.I     # self-invalidated
    # and the owned word still hits locally after sync
    load2 = mini.load("dn", LINE, 0b1)
    mini.run()
    assert load2.values[0] == 5


def test_denovo_local_atomic_on_owned_word():
    mini = MiniSpandex({"dn": "DeNovo"})
    first = mini.rmw("dn", LINE, 0b1, atomic_add(1))
    mini.run()
    assert first.values[0] == 0
    hits_before = mini.stats.get("l1.atomic_hits")
    second = mini.rmw("dn", LINE, 0b1, atomic_add(1))
    mini.run()
    assert second.values[0] == 1
    assert mini.stats.get("l1.atomic_hits") == hits_before + 1


def test_denovo_llc_atomic_policy():
    mini = MiniSpandex({"dn": "DeNovo"}, atomic_policy="llc")
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    rmw = mini.rmw("dn", LINE, 0b1, atomic_add(3))
    mini.run()
    assert rmw.done
    assert any(m.kind == MsgKind.REQ_WT_DATA for m in traffic)
    assert mini.llc_word(LINE, 0) == 3


def test_denovo_owned_eviction_writes_back_words_only():
    mini = MiniSpandex({"dn": "DeNovo"})
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.store("dn", LINE, 0b11, {0: 1, 1: 2})
    mini.release("dn")
    mini.run()
    l1 = mini.l1s["dn"]
    l1._evict(l1.array.lookup(LINE, touch=False))
    mini.run()
    wb = [m for m in traffic if m.kind == MsgKind.REQ_WB]
    assert len(wb) == 1
    assert wb[0].mask == 0b11               # words, not the full line
    assert wb[0].data == {0: 1, 1: 2}


def test_denovo_forwarded_reqv_served_from_owner():
    mini = MiniSpandex({"dn": "DeNovo", "other": "DeNovo"})
    mini.store("dn", LINE, 0b1, {0: 77})
    mini.release("dn")
    mini.run()
    load = mini.load("other", LINE, 0b1)
    mini.run()
    assert load.values[0] == 77
    # ownership did not move (ReqV transitions nothing)
    assert mini.llc_owner(LINE, 0) == "dn"


def test_denovo_nack_escalation_through_tu():
    """A Nacked ReqV is replaced by an ordering-enforcing ReqO+data
    (paper §III-C.3).  We force the Nack by making the LLC reject one
    ReqV, emulating the owner-departed race of a non-FIFO network."""
    from repro.coherence.messages import Message, MsgKind
    mini = MiniSpandex({"dn": "DeNovo"})
    mini.seed(LINE, {0: 5})
    nacked = []
    original = type(mini.llc)._handle_reqv

    def nack_once(self, msg, line_obj):
        if not nacked:
            nacked.append(msg.req_id)
            self.network.send(Message(
                MsgKind.NACK, msg.line, msg.mask, src=self.name,
                dst=msg.src, req_id=msg.req_id))
            return
        original(self, msg, line_obj)

    mini.llc._handle_reqv = nack_once.__get__(mini.llc)
    load = mini.load("dn", LINE, 0b1)
    mini.run()
    # the TU escalated the Nacked ReqV to ReqO+data and completed
    assert load.done and load.values[0] == 5
    assert mini.stats.get("tu.escalations") == 1
    # the escalation granted ownership of the word
    assert mini.llc_owner(LINE, 0) == "dn"


# ===========================================================================
# MESI
# ===========================================================================
def test_mesi_store_miss_is_line_granularity_rfo():
    mini = MiniSpandex({"cpu": "MESI"})
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.store("cpu", LINE, 0b1, {0: 4})
    mini.release("cpu")
    mini.run()
    rfo = [m for m in traffic if m.kind == MsgKind.REQ_O_DATA]
    assert len(rfo) == 1
    assert rfo[0].mask == FULL_LINE_MASK
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False).state == MesiState.M


def test_mesi_silent_upgrade_e_to_m():
    mini = MiniSpandex({"cpu": "MESI"})
    mini.load("cpu", LINE, 0b1)
    mini.run()
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False).state == MesiState.E
    store = mini.store("cpu", LINE, 0b1, {0: 1})
    mini.run(until=mini.engine.now + 5)
    assert l1.array.lookup(LINE, touch=False).state == MesiState.M


def test_mesi_acquire_is_noop():
    mini = MiniSpandex({"cpu": "MESI"})
    mini.seed(LINE, {0: 3})
    mini.load("cpu", LINE, 0b1)
    mini.run()
    mini.acquire("cpu")
    mini.run()
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False) is not None
    hits_before = mini.stats.get("l1.hits")
    load = mini.load("cpu", LINE, 0b1)
    mini.run()
    assert mini.stats.get("l1.hits") == hits_before + 1


def test_mesi_eviction_writes_back_full_line():
    mini = MiniSpandex({"cpu": "MESI"})
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.store("cpu", LINE, 0b1, {0: 1})
    mini.release("cpu")
    mini.run()
    l1 = mini.l1s["cpu"]
    l1._evict(l1.array.lookup(LINE, touch=False))
    mini.run()
    wb = [m for m in traffic if m.kind == MsgKind.REQ_WB]
    assert len(wb) == 1
    assert wb[0].mask == FULL_LINE_MASK     # full line, by construction
    assert len(wb[0].data) == 16


def test_mesi_local_atomic_needs_m():
    mini = MiniSpandex({"cpu": "MESI"})
    mini.seed(LINE, {0: 10})
    rmw = mini.rmw("cpu", LINE, 0b1, atomic_add(1))
    mini.run()
    assert rmw.values[0] == 10
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False).state == MesiState.M
    # second atomic hits locally
    rmw2 = mini.rmw("cpu", LINE, 0b1, atomic_add(1))
    mini.run()
    assert rmw2.values[0] == 11


def test_mesi_shared_reuse_across_writer_rounds():
    """Writer invalidation preserves reuse of untouched shared lines."""
    mini = MiniSpandex({"cpu0": "MESI", "cpu1": "MESI"})
    other_line = LINE + 64
    mini.seed(LINE, {0: 1})
    mini.seed(other_line, {0: 2})
    # cpu0 owns LINE first so cpu1's read triggers option (1) S state
    mini.store("cpu0", LINE, 0b1, {0: 1})
    mini.release("cpu0")
    mini.run()
    for line in (LINE, other_line):
        mini.load("cpu1", line, 0b1)
        mini.run()
    # cpu0 writes only LINE; cpu1 keeps the other line in S
    mini.store("cpu0", LINE, 0b1, {0: 9})
    mini.release("cpu0")
    mini.run()
    l1 = mini.l1s["cpu1"]
    assert l1.array.lookup(LINE, touch=False) is None
    hits_before = mini.stats.get("l1.hits")
    mini.load("cpu1", other_line, 0b1)
    mini.run()
    assert mini.stats.get("l1.hits") == hits_before + 1
    # and the invalidated line re-reads the new value
    load = mini.load("cpu1", LINE, 0b1)
    mini.run()
    assert load.values[0] == 9
