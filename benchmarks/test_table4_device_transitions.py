"""Table IV — device transitions for external Spandex requests.

For each external request type the paper's Table IV specifies the
expected device state, the next state, and the response.  Each cell is
reproduced on a DeNovo device (the protocol that natively supports all
of them) owning a word, by letting a second device trigger the
corresponding forward/probe.
"""

from repro.coherence.messages import MsgKind, atomic_add
from repro.protocols.denovo import DnState

from tests.systems import MiniSpandex

LINE = 0xD000


def setup_owner():
    mini = MiniSpandex({"owner": "DeNovo", "req": "DeNovo",
                        "mesi": "MESI", "gpu": "GPU"}, coalesce_delay=1)
    mini.store("owner", LINE, 0b1, {0: 42})
    mini.release("owner")
    mini.run()
    assert mini.llc_owner(LINE, 0) == "owner"
    return mini


def owner_word_state(mini):
    resident = mini.l1s["owner"].array.lookup(LINE, touch=False)
    if resident is None:
        return "I"
    return resident.word_states[0].value


def run_cells():
    observed = {}

    # ReqV: expected O, next O, RspV to requestor
    mini = setup_owner()
    responses = []
    mini.network.trace_hook = (lambda m, t: responses.append(m)
                               if m.src == "owner" else None)
    load = mini.load("req", LINE, 0b1)
    mini.run()
    observed["ReqV"] = (owner_word_state(mini), responses[0].kind,
                        responses[0].dst, load.values[0])

    # ReqO: expected O, next I, RspO to requestor
    mini = setup_owner()
    responses = []
    mini.network.trace_hook = (lambda m, t: responses.append(m)
                               if m.src == "owner" else None)
    mini.store("req", LINE, 0b1, {0: 50})
    mini.release("req")
    mini.run()
    observed["ReqO"] = (owner_word_state(mini), responses[0].kind,
                        responses[0].dst, None)

    # ReqO+data: expected O, next I, RspO+data to requestor
    mini = setup_owner()
    responses = []
    mini.network.trace_hook = (lambda m, t: responses.append(m)
                               if m.src == "owner" else None)
    rmw = mini.rmw("req", LINE, 0b1, atomic_add(1))
    mini.run()
    observed["ReqO+data"] = (owner_word_state(mini), responses[0].kind,
                             responses[0].dst, rmw.values[0])

    # RvkO: expected O, next I, RspRvkO to LLC
    mini = setup_owner()
    responses = []
    mini.network.trace_hook = (lambda m, t: responses.append(m)
                               if m.src == "owner" else None)
    mini.rmw("gpu", LINE, 0b1, atomic_add(1))
    mini.run()
    observed["RvkO"] = (owner_word_state(mini), responses[0].kind,
                        responses[0].dst, None)

    # Inv: expected S, next I, Ack to LLC (driven on a MESI sharer)
    mini = MiniSpandex({"a": "MESI", "b": "MESI", "gpu": "GPU"},
                       coalesce_delay=1)
    mini.store("a", LINE, 0b1, {0: 1})
    mini.release("a")
    mini.run()
    mini.load("b", LINE, 0b1)
    mini.run()            # both MESI caches share the line now
    responses = []
    mini.network.trace_hook = (
        lambda m, t: responses.append(m)
        if m.kind == MsgKind.ACK and m.src == "b" else None)
    mini.store("gpu", LINE, 0b1, {0: 2})
    mini.release("gpu")
    mini.run()
    b_state = mini.l1s["b"].array.lookup(LINE, touch=False)
    observed["Inv"] = ("I" if b_state is None else b_state.state.value,
                       responses[0].kind, responses[0].dst, None)

    # ReqS (forwarded): MESI owner -> S, RspS to req + RspRvkO to LLC
    mini = MiniSpandex({"owner": "MESI", "req": "MESI"},
                       coalesce_delay=1)
    mini.store("owner", LINE, 0b1, {0: 7})
    mini.release("owner")
    mini.run()
    responses = []
    mini.network.trace_hook = (lambda m, t: responses.append(m)
                               if m.src == "owner" else None)
    load = mini.load("req", LINE, 0b1)
    mini.run()
    owner_state = mini.l1s["owner"].array.lookup(LINE, touch=False)
    kinds = {m.kind for m in responses}
    observed["ReqS"] = (owner_state.state.value, kinds, None,
                        load.values[0])
    return observed


def test_table4_device_transitions(benchmark):
    observed = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    print("\nTable IV: device transitions for external requests")
    for row, cells in observed.items():
        print(f"  {row:<12} -> {cells}")
    # ReqV: owner keeps O, responds RspV with data to the requestor
    state, kind, dst, value = observed["ReqV"]
    assert state == "O" and kind == MsgKind.RSP_V and dst == "req"
    assert value == 42
    # ReqO: owner drops to I, RspO to requestor
    state, kind, dst, _ = observed["ReqO"]
    assert state == "I" and kind == MsgKind.RSP_O and dst == "req"
    # ReqO+data: owner drops to I, RspO+data with data to requestor
    state, kind, dst, value = observed["ReqO+data"]
    assert state == "I" and kind == MsgKind.RSP_O_DATA and dst == "req"
    assert value == 42
    # RvkO: owner drops to I, RspRvkO to the LLC
    state, kind, dst, _ = observed["RvkO"]
    assert state == "I" and kind == MsgKind.RSP_RVK_O and dst == "llc"
    # Inv: sharer drops to I, Ack to the LLC
    state, kind, dst, _ = observed["Inv"]
    assert state == "I" and kind == MsgKind.ACK and dst == "llc"
    # ReqS: owner -> S, RspS to requestor and RspRvkO to the LLC
    state, kinds, _, value = observed["ReqS"]
    assert state == "S"
    assert MsgKind.RSP_S in kinds and MsgKind.RSP_RVK_O in kinds
    assert value == 7
