"""Unit tests for the device models (CPU core, GPU CU)."""

from repro.coherence.messages import atomic_add
from repro.devices.cpu import CPUCore
from repro.devices.gpu import GPUCU, Warp
from repro.workloads.trace import Op

from tests.systems import MiniSpandex

LINE = 0x3000


def cpu_rig(trace, protocol="DeNovo", **l1_kwargs):
    mini = MiniSpandex({"dev": protocol}, coalesce_delay=1, **l1_kwargs)
    core = CPUCore(mini.engine, "core", mini.l1s["dev"], mini.stats,
                   trace=trace)
    return mini, core


def gpu_rig(warp_traces, protocol="GPU", **l1_kwargs):
    mini = MiniSpandex({"dev": protocol}, coalesce_delay=1, **l1_kwargs)
    cu = GPUCU(mini.engine, "cu", mini.l1s["dev"], mini.stats,
               warp_traces=warp_traces)
    return mini, cu


def spy_accesses(mini, device="dev"):
    """Record every ``try_access`` call on a device's L1.

    Each record is a dict with the call cycle, the access fields, and
    whether the L1 accepted it; ``done`` is set to the cycle the
    access's completion callback fires.
    """
    l1 = mini.l1s[device]
    real = l1.try_access
    calls = []

    def spy(access):
        record = {"at": mini.engine.now, "kind": access.kind,
                  "line": access.line, "mask": access.mask,
                  "values": dict(access.values), "done": None}
        callback = access.callback

        def completed(values):
            record["done"] = mini.engine.now
            callback(values)

        access.callback = completed
        record["accepted"] = real(access)
        calls.append(record)
        return record["accepted"]

    l1.try_access = spy
    return calls


# -- coalescer -----------------------------------------------------------------
def test_coalesce_groups_by_line():
    """A vector load reaches the L1 as one masked access per line, in
    ascending line order, whatever the lane order."""
    mini, cu = gpu_rig([[Op.load([0x17C, 0x104, 0x140, 0x100])]])
    calls = spy_accesses(mini)
    cu.start()
    mini.run()
    assert cu.done
    assert [(c["kind"], c["line"], c["mask"]) for c in calls] == [
        ("load", 0x100, 0b11), ("load", 0x140, (1 << 15) | 1)]


def test_coalesce_duplicate_words_merge():
    """Lanes naming the same word merge into one mask bit, and a
    vector store carries the op's value for every masked word."""
    mini, cu = gpu_rig([[Op.store([0x100, 0x100, 0x108, 0x100, 0x2C0], 9)]])
    calls = spy_accesses(mini)
    cu.start()
    mini.run()
    assert cu.done
    assert [(c["kind"], c["line"], c["mask"], c["values"])
            for c in calls] == [
        ("store", 0x100, 0b101, {0: 9, 2: 9}),
        ("store", 0x2C0, 1, {0: 9})]


# -- CPU core -------------------------------------------------------------------
def test_cpu_executes_trace_in_order():
    trace = [Op.store(LINE, 1), Op.load(LINE), Op.compute(10),
             Op.store(LINE + 4, 2)]
    mini, core = cpu_rig(trace)
    core.start()
    mini.run()
    assert core.done
    assert core.ops_executed == 4


def test_cpu_loads_block_progress():
    """A load miss stalls the next op until the response arrives."""
    trace = [Op.load(LINE), Op.compute(0)]
    mini, core = cpu_rig(trace)
    core.start()
    mini.run(until=5)
    assert core._pc == 0          # still blocked on the miss
    mini.run()
    assert core.done


def test_cpu_stores_do_not_block():
    trace = [Op.store(LINE + 64 * i, i) for i in range(8)]
    mini, core = cpu_rig(trace)
    core.start()
    mini.run(until=20)
    assert core._pc >= 7          # retired into the store buffer


def test_cpu_spin_load_completes_when_value_arrives():
    flag = 0x5000
    trace = [Op.spin_ge(flag, 1), Op.compute(1)]
    mini, core = cpu_rig(trace)
    core.start()
    mini.run(until=300)
    assert not core.done          # still spinning on 0
    # another device publishes the flag
    mini.rmw("dev2", flag, 0b1, atomic_add(1)) if False else None
    mini.seed(flag, {0: 0})       # noop; publish via llc poke below
    resident = mini.llc.array.lookup(flag, touch=False)
    if resident is None:
        mini.dram.poke(flag, {0: 1})
    else:
        resident.data[0] = 1
    mini.run(until=mini.engine.now + 500)
    assert core.done
    assert core.spin_iterations > 0


def test_cpu_rmw_returns_old_value_path():
    counter = 0x5100
    trace = [Op.rmw(counter, atomic_add(5)),
             Op.rmw(counter, atomic_add(5))]
    mini, core = cpu_rig(trace)
    core.start()
    mini.run()
    assert core.done
    assert mini.l1s["dev"].array.lookup(
        counter, touch=False).data[0] == 10


def test_cpu_load_latency_counts_from_the_accepted_issue():
    """A load retried on full MSHRs is timed from the cycle the L1
    accepts it, not from its first rejected attempt."""
    mini, core = cpu_rig([Op.load(LINE)], mshr_entries=1)
    blocker = mini.load("dev", LINE + 0x1000, 1)   # holds the only MSHR
    calls = spy_accesses(mini)
    core.start()
    mini.run()
    assert blocker.done and core.done
    rejected = [c for c in calls if not c["accepted"]]
    (accepted,) = [c for c in calls if c["accepted"]]
    assert rejected and rejected[0]["at"] < accepted["at"]
    assert mini.stats.get("l1.mshr_stalls") == len(rejected)
    assert mini.stats.get("cpu.load_count") == 1
    assert mini.stats.get("cpu.load_latency_total") == \
        accepted["done"] - accepted["at"]


def test_cpu_completion_log_is_off_by_default():
    _mini, core = cpu_rig([])
    assert core.log is None


def test_cpu_completion_log_records_program_order():
    """With ``log`` set, each completed load/store/RMW/spin appends its
    kind, word, value and completion cycle, in program order."""
    counter = 0x5100
    trace = [Op.store(LINE, 7), Op.load(LINE),
             Op.rmw(counter, atomic_add(5)), Op.spin_ge(counter, 5)]
    mini, core = cpu_rig(trace)
    core.log = []
    calls = spy_accesses(mini)
    core.start()
    mini.run()
    assert core.done
    store, load, rmw, spin = [c for c in calls if c["accepted"]][-4:]
    assert [(e["kind"], e["addr"], e["value"], e["cycle"], e["uid"],
             e["seq"]) for e in core.log] == [
        ("store", LINE, 7, store["at"], trace[0].uid, 0),
        ("load", LINE, 7, load["done"], trace[1].uid, 1),
        ("rmw", counter, 0, rmw["done"], trace[2].uid, 2),
        ("spin", counter, 5, spin["done"], trace[3].uid, 3),
    ]


def test_cpu_stamps_its_finish_cycle():
    mini, core = cpu_rig([Op.compute(5)])
    core.start()
    mini.run()
    assert core.done and core.finished_at == 5


# -- GPU CU ---------------------------------------------------------------------
def test_gpu_warps_interleave():
    """With one warp blocked on a miss, the other keeps issuing."""
    long_miss = [Op.load(LINE), Op.compute(1)]
    computes = [Op.compute(1) for _ in range(5)]
    mini, cu = gpu_rig([long_miss, computes])
    cu.start()
    mini.run(until=30)
    assert cu.warps[1].pc >= 3        # warp 1 progressed past warp 0
    mini.run()
    assert cu.done


def test_gpu_stamps_its_finish_cycle_and_drops_its_warps():
    mini, cu = gpu_rig([[Op.load(LINE), Op.compute(1)], [Op.compute(9)]])
    warps = list(cu.warps)
    cu.start()
    mini.run()
    assert cu.done and cu.finished_at > 9
    # the finished CU keeps no warp, and no warp keeps its callbacks
    assert cu.warps == []
    assert warps[0].trace and warps[0].on_load is None
    assert all(warp.advance is None for warp in warps)


def test_gpu_vector_load_coalesces_to_line_requests():
    addrs = [LINE + 4 * i for i in range(8)]
    mini, cu = gpu_rig([[Op.load(addrs)]])
    traffic = []
    mini.network.trace_hook = lambda m, t: traffic.append(m)
    cu.start()
    mini.run()
    reqv = [m for m in traffic if m.kind.value == "ReqV"
            and m.src == "dev"]
    assert len(reqv) == 1             # one line request for 8 lanes


def test_gpu_vector_store_accepted_counts():
    addrs = [LINE + 4 * i for i in range(4)] + \
            [LINE + 64 + 4 * i for i in range(4)]
    mini, cu = gpu_rig([[Op.store(addrs, 7), Op.compute(1)]])
    cu.start()
    mini.run()
    assert cu.done
    assert mini.llc_word(LINE, 0) == 7
    assert mini.llc_word(LINE + 64, 3) == 7


def test_gpu_load_latency_counts_from_the_first_issue():
    """Every line of a vector load is timed from the op's first issue,
    including a line that retried on full MSHRs."""
    mini, cu = gpu_rig([[Op.load([LINE, LINE + 64])]], mshr_entries=1)
    calls = spy_accesses(mini)
    cu.start()
    mini.run()
    assert cu.done
    first = calls[0]["at"]
    accepted = [c for c in calls if c["accepted"]]
    assert [c["line"] for c in accepted] == [LINE, LINE + 64]
    retries = len(calls) - len(accepted)
    assert retries > 0 and accepted[1]["at"] > first
    assert mini.stats.get("gpu.issue_retries") == retries
    assert mini.stats.get("gpu.load_count") == 2
    assert mini.stats.get("gpu.load_latency_total") == \
        sum(c["done"] - first for c in accepted)


def test_gpu_many_outstanding_misses():
    """Latency tolerance: a CU with N warps overlaps N misses."""
    warps = [[Op.load(LINE + 0x1000 * w)] for w in range(6)]
    mini, cu = gpu_rig(warps)
    cu.start()
    finish = mini.run()
    # all six misses overlapped: total time is ~one miss, not six
    single = MiniSpandex({"dev": "GPU"}, coalesce_delay=1)
    single_cu = GPUCU(single.engine, "cu", single.l1s["dev"],
                      single.stats, warp_traces=[[Op.load(LINE)]])
    single_cu.start()
    single_time = single.run()
    assert finish < 3 * single_time


def test_gpu_rmw_and_fences():
    counter = 0x5200
    trace = [Op.rmw(counter, atomic_add(1)),
             Op.acquire_fence(), Op.release_fence(), Op.compute(1)]
    mini, cu = gpu_rig([trace])
    cu.start()
    mini.run()
    assert cu.done
    assert mini.llc_word(counter, 0) == 1


def test_warp_done_property():
    warp = Warp([Op.compute(1)])
    assert not warp.done
    warp.pc = 1
    assert warp.done
