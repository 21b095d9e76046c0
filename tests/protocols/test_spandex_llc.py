"""Spandex LLC protocol tests (paper §III-B, Table III, Figure 1).

Each test drives a miniature Spandex system (LLC + device caches behind
TUs) and checks the LLC-side transitions the paper specifies.
"""

import pytest

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import atomic_add
from repro.core.home import HomeState

from tests.systems import MiniSpandex, make_sdd, make_smg

LINE = 0x4000


# -- ReqV: no state transition, data response -------------------------------
def test_reqv_returns_data_and_leaves_state():
    mini = make_sdd()
    mini.seed(LINE, {2: 77})
    load = mini.load("cpu", LINE, 0b100)
    mini.run()
    assert load.done and load.values[2] == 77
    resident = mini.llc_line(LINE)
    assert resident.state == HomeState.V
    assert mini.llc_owner(LINE, 2) is None


def test_reqv_response_carries_available_line_words():
    # "a read response may be sent at line granularity when more data
    # in the requested line is available"
    mini = make_sdd()
    mini.seed(LINE, {0: 1, 5: 6, 15: 16})
    mini.load("cpu", LINE, 0b1)
    mini.run()
    l1 = mini.l1s["cpu"]
    resident = l1.array.lookup(LINE, touch=False)
    # extra words were installed as Valid
    assert resident.data[5] == 6
    assert resident.data[15] == 16


# -- ReqO: data-less ownership grant (Figure 1a) -----------------------------
def test_reqo_grants_ownership_without_data():
    mini = make_sdd()
    store = mini.store("cpu", LINE, 0b1, {0: 42})
    release = mini.release("cpu")
    mini.run()
    assert release.done
    assert mini.llc_owner(LINE, 0) == "cpu"
    # the store's value lives at the device, not the LLC
    l1 = mini.l1s["cpu"]
    assert l1.array.lookup(LINE, touch=False).data[0] == 42


def test_reqo_word_granularity_avoids_false_sharing():
    # Figure 1a: two devices own different words of the same line with
    # no blocking and no data transfer.
    mini = make_sdd()
    mini.store("cpu", LINE, 0b0001, {0: 1})
    mini.store("gpu", LINE, 0b1000, {3: 2})
    release_a = mini.release("cpu")
    release_b = mini.release("gpu")
    mini.run()
    assert release_a.done and release_b.done
    assert mini.llc_owner(LINE, 0) == "cpu"
    assert mini.llc_owner(LINE, 3) == "gpu"
    assert mini.stats.get("home.llc.revokes_sent") == 0


# -- ReqWT: immediate update at LLC ------------------------------------------
def test_reqwt_updates_llc_data():
    mini = make_smg()
    mini.store("gpu", LINE, 0b10, {1: 9})
    release = mini.release("gpu")
    mini.run()
    assert release.done
    assert mini.llc_word(LINE, 1) == 9
    assert mini.llc_owner(LINE, 1) is None


def test_reqwt_to_owned_word_forwards_and_unowns():
    # Figure 1d: write-through for remotely-owned data — LLC updates
    # immediately, forwards to the owner which answers the requestor.
    mini = MiniSpandex({"dn": "DeNovo", "gpu": "GPU"})
    mini.store("dn", LINE, 0b1, {0: 5})
    mini.release("dn")
    mini.run()
    assert mini.llc_owner(LINE, 0) == "dn"
    mini.store("gpu", LINE, 0b1, {0: 6})
    release = mini.release("gpu")
    mini.run()
    assert release.done
    assert mini.llc_owner(LINE, 0) is None
    assert mini.llc_word(LINE, 0) == 6
    # and the previous owner's copy was invalidated
    load = mini.load("dn", LINE, 0b1, invalidate_first=True)
    mini.run()
    assert load.values[0] == 6


# -- ReqWT+data: atomics at the LLC (Figure 1b) -------------------------------
def test_atomic_at_llc_returns_old_value():
    mini = make_smg()
    mini.seed(LINE, {0: 10})
    rmw = mini.rmw("gpu", LINE, 0b1, atomic_add(5))
    mini.run()
    assert rmw.done and rmw.values[0] == 10
    assert mini.llc_word(LINE, 0) == 15


def test_atomic_revokes_remote_owner():
    # Figure 1b: ReqWT+data for remotely-owned data triggers RvkO and a
    # blocking transient until the write-back arrives.
    mini = MiniSpandex({"dn": "DeNovo", "gpu": "GPU"})
    mini.store("dn", LINE, 0b1, {0: 100})
    mini.release("dn")
    mini.run()
    rmw = mini.rmw("gpu", LINE, 0b1, atomic_add(1))
    mini.run()
    assert rmw.values[0] == 100          # the owner's value was revoked
    assert mini.llc_word(LINE, 0) == 101
    assert mini.llc_owner(LINE, 0) is None
    assert mini.stats.get("home.llc.revokes_sent") == 1


# -- ReqS policy --------------------------------------------------------------
def test_reqs_exclusive_grant_when_unshared():
    # Option (3): like MESI's E response, the requestor gets ownership.
    mini = make_smg()
    mini.seed(LINE, {0: 3})
    load = mini.load("cpu", LINE, 0b1)
    mini.run()
    assert load.done and load.values[0] == 3
    assert mini.llc_owner(LINE, 0) == "cpu"


def test_reqs_shared_when_owned_by_mesi_core():
    # Option (1) when the data is owned in a MESI core: the owner
    # writes back, keeps S, and both cores become sharers.
    mini = MiniSpandex({"cpu0": "MESI", "cpu1": "MESI"})
    store = mini.store("cpu0", LINE, 0b1, {0: 55})
    mini.release("cpu0")
    mini.run()
    load = mini.load("cpu1", LINE, 0b1)
    mini.run()
    assert load.done and load.values[0] == 55
    resident = mini.llc_line(LINE)
    assert resident.state == HomeState.S
    sharers = resident.meta.get("sharers", set())
    assert {"cpu0", "cpu1"} <= sharers
    assert mini.llc_owner(LINE, 0) is None


def test_write_invalidates_sharers():
    mini = MiniSpandex({"cpu0": "MESI", "cpu1": "MESI", "gpu": "GPU"})
    mini.store("cpu0", LINE, 0b1, {0: 1})
    mini.release("cpu0")
    mini.run()
    mini.load("cpu1", LINE, 0b1)
    mini.run()
    assert mini.llc_line(LINE).state == HomeState.S
    # a GPU write-through must invalidate both MESI sharers
    mini.store("gpu", LINE, 0b1, {0: 2})
    release = mini.release("gpu")
    mini.run()
    assert release.done
    assert mini.llc_line(LINE).state == HomeState.V
    assert mini.stats.get("home.llc.invalidations_sent") >= 2
    # the sharers dropped their copies
    for name in ("cpu0", "cpu1"):
        resident = mini.l1s[name].array.lookup(LINE, touch=False)
        assert resident is None or resident.state.value in ("I",)


# -- ReqWB -------------------------------------------------------------------
def test_reqwb_from_owner_applies_data():
    mini = make_sdd()
    mini.store("cpu", LINE, 0b1, {0: 88})
    mini.release("cpu")
    mini.run()
    # force the eviction path by filling the set
    l1 = mini.l1s["cpu"]
    resident = l1.array.lookup(LINE, touch=False)
    l1._evict(resident)
    mini.run()
    assert mini.llc_owner(LINE, 0) is None
    assert mini.llc_word(LINE, 0) == 88


def test_reqwb_from_non_owner_dropped():
    # A write-back racing an ownership transfer is acked and dropped.
    mini = make_sdd()
    mini.store("cpu", LINE, 0b1, {0: 1})
    mini.release("cpu")
    mini.run()
    # transfer ownership to gpu
    mini.store("gpu", LINE, 0b1, {0: 2})
    mini.release("gpu")
    mini.run()
    assert mini.llc_owner(LINE, 0) == "gpu"
    before = mini.llc_word(LINE, 0)
    # now the stale owner writes back
    from repro.coherence.messages import Message, MsgKind
    msg = Message(MsgKind.REQ_WB, LINE, 0b1, "cpu", "llc", data={0: 1})
    inflight = mini.l1s["cpu"]._track(msg, "wb")
    inflight.meta["wb_line"] = LINE
    inflight.meta["wb_mask"] = 0b1
    mini.l1s["cpu"]._write_issued()
    mini.network.send(msg)
    mini.run()
    assert mini.llc_owner(LINE, 0) == "gpu"
    assert mini.stats.get("home.llc.stale_writebacks") >= 1


# -- non-blocking ownership transfer ------------------------------------------
def test_ownership_transfer_is_non_blocking():
    # Table III: ReqO for O data forwards without a blocking state; the
    # LLC keeps serving other words of the line meanwhile.
    mini = make_sdd()
    mini.store("cpu", LINE, 0b1, {0: 1})
    mini.release("cpu")
    mini.run()
    mini.store("gpu", LINE, 0b1, {0: 2})
    # while the transfer is in flight, a load of another word succeeds
    load = mini.load("gpu", LINE, 0b100)
    mini.run()
    assert load.done
    assert mini.llc_owner(LINE, 0) == "gpu"


def test_llc_eviction_writes_back_dirty():
    mini = MiniSpandex({"gpu": "GPU"}, llc_size=2 * 1024)
    # write through enough distinct lines to overflow the 2KB LLC
    lines = [0x10000 + i * 2 * 1024 for i in range(40)]
    for i, line in enumerate(lines):
        mini.store("gpu", line, 0b1, {0: i + 1})
        mini.release("gpu")
        mini.run()
    assert mini.stats.get("home.llc.evictions") > 0
    # evicted dirty data landed in DRAM
    evicted = [line for line in lines
               if mini.llc_line(line) is None]
    assert evicted
    for line in evicted:
        index = lines.index(line)
        assert mini.dram.peek(line)[0] == index + 1
