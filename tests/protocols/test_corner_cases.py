"""Corner-case protocol tests: mixed-owner ReqS, TU epoch splits,
GPU L2 upstream invalidation races, and forwarded-request edge paths.
"""

from repro.coherence.messages import Message, MsgKind, atomic_add
from repro.core.home import HomeState
from repro.protocols.denovo import DnState
from repro.protocols.mesi import MesiState

from tests.systems import MiniHier, MiniSpandex, make_sdd

LINE = 0x11000


def test_reqs_option1_with_denovo_co_owner():
    """A MESI read of a line with words owned by a MESI core *and* a
    DeNovo core: option (1) is chosen (MESI owner present); the DeNovo
    owner must also answer the forwarded ReqS — keeping a Valid copy —
    and all words end up Shared at the LLC."""
    mini = MiniSpandex({"m1": "MESI", "m2": "MESI", "dn": "DeNovo"},
                       coalesce_delay=1)
    # dn owns word 0; m1 owns the rest of the line
    mini.store("dn", LINE, 0b1, {0: 500})
    mini.release("dn")
    mini.run()
    mini.store("m1", LINE, 0b10, {1: 501})
    mini.release("m1")
    mini.run()
    assert mini.llc_owner(LINE, 0) == "m1" or \
        mini.llc_owner(LINE, 0) == "dn"
    # m2 reads the full line
    load = mini.load("m2", LINE, 0b11)
    mini.run()
    assert load.done
    assert load.values[0] == 500 and load.values[1] == 501
    resident = mini.llc_line(LINE)
    assert all(owner is None for owner in resident.owner)
    assert resident.state == HomeState.S
    m2_line = mini.l1s["m2"].array.lookup(LINE, touch=False)
    assert m2_line.state == MesiState.S


def test_denovo_keeps_valid_copy_after_fwd_reqs():
    mini = MiniSpandex({"m1": "MESI", "m2": "MESI", "dn": "DeNovo"},
                       coalesce_delay=1)
    mini.store("dn", LINE, 0b1, {0: 7})
    mini.release("dn")
    mini.run()
    mini.store("m1", LINE, 0b10, {1: 8})
    mini.release("m1")
    mini.run()
    mini.load("m2", LINE, 0b11)
    mini.run()
    dn_line = mini.l1s["dn"].array.lookup(LINE, touch=False)
    if dn_line is not None:
        # the DeNovo owner downgraded O -> V (safe under DRF)
        assert dn_line.word_states[0] in (DnState.V, DnState.I)
        if dn_line.word_states[0] == DnState.V:
            assert dn_line.data[0] == 7


def test_mesi_tu_epoch_split_wb_and_fresh_grant():
    """A forward covering words from two ownership epochs at one MESI
    device: some covered by a pending TU write-back (old epoch), some
    newly granted.  The TU must split the message and both parts must
    complete coherently."""
    mini = MiniSpandex({"mesi": "MESI", "gpu": "GPU", "dn": "DeNovo"},
                       coalesce_delay=1)
    mini.seed(LINE, {i: 10 + i for i in range(16)})
    # epoch 1: MESI owns the line
    mini.store("mesi", LINE, 0b1, {0: 100})
    mini.release("mesi")
    mini.run()
    # GPU writes through word 3 -> MESI TU downgrades and write-backs
    # the other 15 words; immediately after, the MESI cache re-acquires
    # the line (new epoch) — exercising WB + IM coexistence at the TU
    mini.store("gpu", LINE, 0b1000, {3: 999})
    mini.release("gpu")
    mini.store("mesi", LINE, 0b10, {1: 200})
    release = mini.release("mesi")
    mini.run()
    assert release.done
    # final state: coherent values everywhere
    resident = mini.llc_line(LINE)
    values = {}
    for index in (0, 1, 3):
        owner = resident.owner[index]
        if owner is None:
            values[index] = resident.data[index]
        else:
            values[index] = mini.l1s[owner].array.lookup(
                LINE, touch=False).data[index]
    assert values[0] == 100
    assert values[1] == 200
    assert values[3] in (999, 13)  # 999 unless epoch-2 RFO won the race
    # ... but a reader must observe a single consistent outcome
    load = mini.load("dn", LINE, 0b1010, invalidate_first=True)
    mini.run()
    assert load.done


def test_gpu_l2_inv_while_upgrade_queued():
    """MESIInv arriving at the GPU L2 while its own GetM is queued at
    the directory (the SM race): the atomic that triggered the upgrade
    must still apply exactly once to fresh data."""
    mini = MiniHier(cpus=1, gpus=1)
    target = 0x12000
    # L2 becomes an S-state sharer
    load = mini.access("gpu0", "load", target, 0b1)
    mini.run()
    # CPU takes M (invalidating the L2) at the same time as a GPU
    # atomic forces the L2 to upgrade
    mini.access("cpu0", "rmw", target, 0b1, atomic=atomic_add(10))
    rmw = mini.access("gpu0", "rmw", target, 0b1, atomic=atomic_add(1))
    mini.run()
    assert rmw.done
    # total = 11 regardless of interleaving
    dir_line = mini.llc.array.lookup(target, touch=False)
    owner = dir_line.meta.get("owner")
    if owner == "gpu_l2":
        value = mini.gpu_l2.array.lookup(target, touch=False).data[0]
    elif owner:
        value = mini.l1s[owner].array.lookup(target, touch=False).data[0]
    else:
        value = dir_line.data[0]
    assert value == 11
    assert sorted([0, 1, 10, 11]).index(rmw.values[0]) >= 0


def test_forwarded_reqv_to_mesi_owner_is_snapshot():
    """ReqV forwarded to a MESI owner returns data without downgrading
    — a later write by the owner stays coherent."""
    mini = MiniSpandex({"mesi": "MESI", "dn": "DeNovo"},
                       coalesce_delay=1)
    mini.store("mesi", LINE, 0b1, {0: 1})
    mini.release("mesi")
    mini.run()
    load = mini.load("dn", LINE, 0b1)
    mini.run()
    assert load.values[0] == 1
    # owner still has M and can write locally without traffic
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    store = mini.store("mesi", LINE, 0b1, {0: 2})
    mini.run()
    assert not traffic       # silent M-hit
    assert mini.l1s["mesi"].array.lookup(LINE, touch=False).data[0] == 2


def test_inv_to_device_without_copy_is_acked():
    """§III-C case 3: Inv for data in a stable state other than S."""
    mini = MiniSpandex({"gpu": "GPU", "dn": "DeNovo"})
    acks = []
    mini.network.trace_hook = (
        lambda m, t: acks.append(m) if m.kind == MsgKind.ACK else None)
    for name in ("gpu", "dn"):
        mini.network.send(Message(MsgKind.INV, LINE, 0xFFFF,
                                  src="llc", dst=name, req_id=999999))
    # register a matching transaction so the Acks have a home
    from repro.core.home import HomeTxn
    txn = HomeTxn(LINE, 0xFFFF, "test-inv", lambda t: None, txn_id=999999)
    txn.acks_needed = 2
    mini.llc._txns[999999] = txn
    mini.run()
    assert len(acks) == 2
    assert 999999 not in mini.llc._txns      # both Acks collected


def test_multiword_denovo_store_across_owned_and_free_words():
    """One coalesced ReqO touching words owned by another device and
    free words: partial grants from both sources complete it."""
    mini = MiniSpandex({"a": "DeNovo", "b": "DeNovo"}, coalesce_delay=4)
    mini.store("a", LINE, 0b0001, {0: 1})
    mini.release("a")
    mini.run()
    # b writes words 0 (owned by a) and 5 (free) in one buffered burst
    mini.store("b", LINE, 0b0001, {0: 2})
    mini.store("b", LINE, 0b100000, {5: 3})
    release = mini.release("b")
    mini.run()
    assert release.done
    assert mini.llc_owner(LINE, 0) == "b"
    assert mini.llc_owner(LINE, 5) == "b"
    b_line = mini.l1s["b"].array.lookup(LINE, touch=False)
    assert b_line.data[0] == 2 and b_line.data[5] == 3


def test_denovo_partial_hit_load_answers_held_words_locally():
    """A DeNovo load that finds some words Owned locally sends a ReqV
    for the missing words only; the held words answer from the L1's
    own copy instead of reading as 0 from the response."""
    mini = make_sdd()
    mini.seed(LINE, {index: 100 + index for index in range(16)})
    mini.store("cpu", LINE, 0b0011, {0: 11, 1: 12})
    mini.release("cpu")
    mini.run()
    mini.rmw("gpu", LINE, 0b1, atomic_add(5))   # takes word 0 away
    mini.run()
    load = mini.load("cpu", LINE, 0xFFFF)
    mini.run()
    cpu_line = mini.l1s["cpu"].array.lookup(LINE, touch=False)
    assert cpu_line.word_states[1] == DnState.O
    assert load.values == {0: 16, 1: 12,
                           **{index: 100 + index for index in range(2, 16)}}
