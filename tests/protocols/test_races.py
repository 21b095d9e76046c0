"""Targeted race-condition tests (paper §III-C).

The Spandex-specific races: requests arriving during pending
transitions to/from expected states, write-backs racing ownership
transfers, and contended atomics.  Many of these drive the protocols
at zero coalesce delay and tight timing to maximize overlap.
"""

from repro.coherence.messages import atomic_add
from repro.protocols.denovo import DnState

from tests.systems import MiniSpandex

LINE = 0x6000


def test_concurrent_atomics_from_many_devices_never_lose_updates():
    """30 contended fetch-adds across six caches commit exactly 30
    increments — the single-writer guarantee under maximal churn."""
    devices = {f"d{i}": "DeNovo" for i in range(6)}
    mini = MiniSpandex(devices)
    remaining = {name: 5 for name in devices}
    committed = []
    for _ in range(400):
        if not any(remaining.values()):
            break
        for name, left in remaining.items():
            if left == 0:
                continue
            completion = mini.rmw(name, LINE, 0b1, atomic_add(1))
            if completion.accepted:
                remaining[name] -= 1
                committed.append(completion)
        mini.run(until=mini.engine.now + 7)
    mini.run()
    assert not any(remaining.values())
    assert all(c.done for c in committed)
    owner = mini.llc_owner(LINE, 0)
    final = (mini.l1s[owner].array.lookup(LINE, touch=False).data[0]
             if owner else mini.llc_word(LINE, 0))
    assert final == 30
    # and the observed old values are a permutation of 0..29
    assert sorted(c.values[0] for c in committed) == list(range(30))


def test_mixed_protocol_atomics_serialize():
    mini = MiniSpandex({"mesi": "MESI", "dn": "DeNovo", "gpu": "GPU"})
    done = []
    for _ in range(4):
        for name in ("mesi", "dn", "gpu"):
            completion = mini.rmw(name, LINE, 0b1, atomic_add(1))
            mini.run(until=mini.engine.now + 3)
            done.append(completion)
    mini.run()
    committed = sum(1 for c in done if c.done and c.accepted)
    finals = set()
    owner = mini.llc_owner(LINE, 0)
    if owner is None:
        finals.add(mini.llc_word(LINE, 0))
    else:
        l1 = mini.l1s[owner]
        resident = l1.array.lookup(LINE, touch=False)
        finals.add(resident.data[0])
    assert finals == {committed}


def test_writeback_racing_ownership_transfer():
    """Device A evicts owned words while device B requests ownership:
    the stale write-back must be dropped, B's data must win."""
    mini = MiniSpandex({"a": "DeNovo", "b": "DeNovo"}, coalesce_delay=1)
    mini.store("a", LINE, 0b1, {0: 10})
    mini.release("a")
    mini.run()
    # kick off the eviction and the competing store in the same cycle
    l1a = mini.l1s["a"]
    resident = l1a.array.lookup(LINE, touch=False)
    l1a._evict(resident)
    mini.store("b", LINE, 0b1, {0: 20})
    release = mini.release("b")
    mini.run()
    assert release.done
    assert mini.llc_owner(LINE, 0) in ("b", None)
    if mini.llc_owner(LINE, 0) == "b":
        assert mini.l1s["b"].array.lookup(
            LINE, touch=False).data[0] == 20
    else:
        assert mini.llc_word(LINE, 0) == 20


def test_forwarded_request_during_pending_grant():
    """B's ReqO+data races A's pending ownership grant for the same
    word (§III-C case 1: pending transition *to* expected state)."""
    mini = MiniSpandex({"a": "DeNovo", "b": "DeNovo"}, coalesce_delay=1)
    rmw_a = mini.rmw("a", LINE, 0b1, atomic_add(1))
    mini.run(until=mini.engine.now + 9)     # a's ReqO+data in flight
    rmw_b = mini.rmw("b", LINE, 0b1, atomic_add(1))
    mini.run()
    assert rmw_a.done and rmw_b.done
    assert sorted([rmw_a.values[0], rmw_b.values[0]]) == [0, 1]
    owner = mini.llc_owner(LINE, 0)
    value = (mini.l1s[owner].array.lookup(LINE, touch=False).data[0]
             if owner else mini.llc_word(LINE, 0))
    assert value == 2


def test_reqv_during_ownership_churn_completes():
    """A reader keeps loading a word whose ownership bounces between
    two writers; the ReqV path (forwards, Nacks, escalation) must
    always produce a value that some writer actually wrote."""
    mini = MiniSpandex({"r": "GPU", "w1": "DeNovo", "w2": "DeNovo"},
                       coalesce_delay=1)
    written = set()
    loads = []
    for round_index in range(8):
        value = 1000 + round_index
        writer = "w1" if round_index % 2 == 0 else "w2"
        mini.store(writer, LINE, 0b1, {0: value})
        written.add(value)
        mini.release(writer)
        loads.append(mini.load("r", LINE, 0b1, invalidate_first=True))
        mini.run(until=mini.engine.now + 15)
    mini.run()
    for load in loads:
        if load.done and load.accepted:
            assert load.values[0] == 0 or load.values[0] in written


def test_store_to_word_with_pending_load_same_line():
    mini = MiniSpandex({"dn": "DeNovo"}, coalesce_delay=1)
    mini.seed(LINE, {1: 7})
    load = mini.load("dn", LINE, 0b10)
    store = mini.store("dn", LINE, 0b1, {0: 3})
    mini.run()
    assert load.done and load.values[1] == 7
    resident = mini.l1s["dn"].array.lookup(LINE, touch=False)
    assert resident.word_states[0] == DnState.O
    assert resident.data[0] == 3


def test_same_word_rmw_serialized_within_one_l1():
    """Two warps sharing one L1 RMW the same word: the second must not
    race the first's ownership grant (the lost-increment bug)."""
    mini = MiniSpandex({"dn": "DeNovo"}, coalesce_delay=1)
    first = mini.rmw("dn", LINE, 0b1, atomic_add(1))
    second = mini.rmw("dn", LINE, 0b1, atomic_add(1))
    assert first.accepted
    assert not second.accepted      # serialized: retry later
    mini.run()
    retry = mini.rmw("dn", LINE, 0b1, atomic_add(1))
    mini.run()
    assert retry.accepted and retry.values[0] == 1


def test_partial_line_mixed_owners_with_invalidations():
    """Words of one line owned by different devices while a MESI core
    wants the whole line: every word's data must survive the shuffle."""
    mini = MiniSpandex({"mesi": "MESI", "a": "DeNovo", "b": "DeNovo"},
                       coalesce_delay=1)
    mini.store("a", LINE, 0b0001, {0: 100})
    mini.store("b", LINE, 0b0010, {1: 200})
    mini.release("a")
    mini.release("b")
    mini.run()
    store = mini.store("mesi", LINE, 0b100, {2: 300})
    release = mini.release("mesi")
    mini.run()
    assert release.done
    resident = mini.l1s["mesi"].array.lookup(LINE, touch=False)
    assert resident is not None
    assert resident.data[0] == 100
    assert resident.data[1] == 200
    assert resident.data[2] == 300
