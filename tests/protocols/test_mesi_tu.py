"""MESI translation-unit tests (paper §III-D).

The MESI TU adapts word-granularity Spandex requests to the
line-granularity MESI cache: partial downgrades become a line downgrade
plus a write-back of the untouched words, ownership-only requests
answer immediately during pending upgrades, and lines with write-backs
in flight are served from retained data.
"""

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import MsgKind, atomic_add
from repro.protocols.mesi import MesiState

from tests.systems import MiniSpandex

LINE = 0xC000


def owned_setup():
    """MESI cpu owns LINE (all 16 words) with known data."""
    mini = MiniSpandex({"cpu": "MESI", "gpu": "GPU", "dn": "DeNovo"})
    mini.seed(LINE, {i: 100 + i for i in range(16)})
    mini.store("cpu", LINE, 0b1, {0: 200})
    mini.release("cpu")
    mini.run()
    assert mini.llc_owner(LINE, 0) == "cpu"
    assert mini.llc_owner(LINE, 15) == "cpu"
    return mini


def test_fwd_reqv_served_without_downgrade():
    mini = owned_setup()
    load = mini.load("dn", LINE, 1 << 5)
    mini.run()
    assert load.values[5] == 105
    # the MESI line is untouched (ReqV enforces no ordering)
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False).state in (MesiState.M,
                                                        MesiState.E)


def test_fwd_reqwt_partial_downgrade_with_writeback():
    # Figure 1d: the GPU writes through one word of a MESI-owned line.
    mini = owned_setup()
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    mini.store("gpu", LINE, 1 << 3, {3: 999})
    release = mini.release("gpu")
    mini.run()
    assert release.done
    # MESI line fully downgraded; untouched words written back
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False) is None
    wbs = [m for m in traffic if m.kind == MsgKind.REQ_WB]
    assert wbs and wbs[0].mask == FULL_LINE_MASK & ~(1 << 3)
    # LLC has the write-through value and the written-back dirty word
    assert mini.llc_word(LINE, 3) == 999
    assert mini.llc_word(LINE, 0) == 200
    assert mini.llc_word(LINE, 7) == 107
    assert all(mini.llc_owner(LINE, i) is None for i in range(16))


def test_fwd_reqo_data_word_transfer():
    # a DeNovo store-miss RMW pulls one word's ownership + data out of
    # the MESI line
    mini = owned_setup()
    rmw = mini.rmw("dn", LINE, 1 << 2, atomic_add(1))
    mini.run()
    assert rmw.values[2] == 102
    assert mini.llc_owner(LINE, 2) == "dn"
    # the remaining words were written back and are unowned now
    assert mini.llc_word(LINE, 0) == 200


def test_rvko_for_mesi_owner():
    # an atomic at the LLC revokes the MESI owner
    mini = owned_setup()
    rmw = mini.rmw("gpu", LINE, 0b1, atomic_add(1))
    mini.run()
    assert rmw.values[0] == 200
    assert mini.llc_word(LINE, 0) == 201
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False) is None


def test_fwd_reqs_downgrades_to_shared():
    # another MESI core reads the owned line: M -> S with a write-back
    mini = MiniSpandex({"cpu0": "MESI", "cpu1": "MESI"})
    mini.store("cpu0", LINE, 0b1, {0: 42})
    mini.release("cpu0")
    mini.run()
    load = mini.load("cpu1", LINE, 0b1)
    mini.run()
    assert load.values[0] == 42
    l1 = mini.l1s["cpu0"]
    assert l1.array.lookup(LINE, touch=False).state == MesiState.S
    assert mini.llc_word(LINE, 0) == 42


def test_external_during_pending_wb_served_from_retained_data():
    mini = owned_setup()
    l1 = mini.l1s["cpu"]
    l1._evict(l1.array.lookup(LINE, touch=False))
    # immediately (before the WB is acknowledged) another device reads
    load = mini.load("dn", LINE, 0b1)
    mini.run()
    assert load.values[0] == 200


def test_tu_partial_writeback_retains_data_until_ack():
    mini = owned_setup()
    tu = mini.tus["cpu"]
    # trigger a partial downgrade
    mini.store("gpu", LINE, 0b1, {0: 7})
    mini.run(until=mini.engine.now + 12)
    # during the window the TU may hold retained data; after quiescence
    # everything is released
    mini.run()
    assert not tu._tu_wb
    assert not tu._own_req_lines


def test_reqo_during_pending_ownership_upgrade():
    """§III-D case 2: ownership-only requests answer immediately while
    the MESI line's own upgrade is in flight; after the grant the line
    goes to I and untouched words write back."""
    mini = MiniSpandex({"cpu": "MESI", "dn": "DeNovo"},
                       coalesce_delay=1)
    mini.seed(LINE, {i: 50 + i for i in range(16)})
    # start a MESI RFO; while it is pending, a DeNovo store to another
    # word of the line arrives at the LLC after the MESI grant, gets
    # forwarded, and must not deadlock
    mini.store("cpu", LINE, 0b1, {0: 1})
    mini.store("dn", LINE, 0b10, {1: 2})
    release_cpu = mini.release("cpu")
    release_dn = mini.release("dn")
    mini.run()
    assert release_cpu.done and release_dn.done
    # final ownership is word-granular and consistent
    assert mini.llc_owner(LINE, 1) in ("dn", None)
    if mini.llc_owner(LINE, 1) is None:
        assert mini.llc_word(LINE, 1) == 2
    coherent = []
    for name, l1 in mini.l1s.items():
        resident = l1.array.lookup(LINE, touch=False)
        if resident is not None and name == "dn" and \
                resident.word_states[1].value == "O":
            coherent.append(resident.data[1])
    if coherent:
        assert coherent == [2]
