"""Table II — device request to Spandex request mapping.

Drives read misses, write misses, RMWs and owned replacements on each
device cache behind its TU and captures the Spandex requests that
actually cross the network, verifying type and granularity against the
paper's Table II.
"""

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import MsgKind, atomic_add

from tests.systems import MiniSpandex

LINE = 0xA000


def capture_requests(family: str):
    """Run read / write / RMW / owned-replacement and record the first
    Spandex request each operation emits."""
    mini = MiniSpandex({"dev": family}, coalesce_delay=1)
    captured = {}
    trace = []
    mini.network.trace_hook = lambda m, t: trace.append(m)

    def first_request():
        for msg in trace:
            if msg.src == "dev" and msg.kind.value.startswith("Req"):
                return msg
        return None

    # read miss
    mini.load("dev", LINE, 0b1)
    mini.run()
    captured["read"] = first_request()
    del trace[:]
    # write miss (different line to avoid hits)
    mini.store("dev", LINE + 64, 0b1, {0: 1})
    mini.release("dev")
    mini.run()
    captured["write"] = first_request()
    del trace[:]
    # RMW (fresh line)
    mini.rmw("dev", LINE + 128, 0b1, atomic_add(1))
    mini.run()
    captured["rmw"] = first_request()
    del trace[:]
    # owned replacement (only for ownership protocols)
    l1 = mini.l1s["dev"]
    resident = l1.array.lookup(LINE + 64, touch=False)
    if resident is not None and hasattr(l1, "_evict"):
        try:
            l1._evict(resident)
            mini.run()
            captured["owned_repl"] = first_request()
        except Exception:
            captured["owned_repl"] = None
    return captured


EXPECTED = {
    # family: op -> (kind, line_granularity)
    "GPU": {
        "read": (MsgKind.REQ_V, True),
        "write": (MsgKind.REQ_WT, False),
        "rmw": (MsgKind.REQ_WT_DATA, False),
    },
    "DeNovo": {
        "read": (MsgKind.REQ_V, False),     # word request, flexible rsp
        "write": (MsgKind.REQ_O, False),
        "rmw": (MsgKind.REQ_O_DATA, False),
        "owned_repl": (MsgKind.REQ_WB, False),
    },
    "MESI": {
        "read": (MsgKind.REQ_S, True),
        "write": (MsgKind.REQ_O_DATA, True),
        "rmw": (MsgKind.REQ_O_DATA, True),
        "owned_repl": (MsgKind.REQ_WB, True),
    },
}


def run_all():
    return {family: capture_requests(family) for family in EXPECTED}


def test_table2_request_mapping(benchmark):
    observed = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\nTable II: device request -> Spandex request mapping")
    print(f"{'Device':<10}{'Operation':<12}{'Request':<14}{'Granularity'}")
    for family, expectations in EXPECTED.items():
        for op, (kind, line_gran) in expectations.items():
            msg = observed[family][op]
            assert msg is not None, (family, op)
            assert msg.kind == kind, (family, op, msg.kind)
            gran = "line" if (msg.mask == FULL_LINE_MASK or
                              msg.is_line_granularity) else "word"
            expected_gran = "line" if line_gran else "word"
            assert gran == expected_gran, (family, op, gran)
            print(f"{family:<10}{op:<12}{msg.kind.value:<14}{gran}")
