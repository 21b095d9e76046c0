"""Figure 1 flows (paper §III): the four request-handling walkthroughs.

Each test reproduces one subfigure's message sequence on a miniature
system with a CPU (MESI), GPU (GPU coherence) and accelerator (DeNovo)
— the three devices of the paper's figure — and checks the protocol
actions the caption describes.
"""

from repro.coherence.addr import FULL_LINE_MASK
from repro.coherence.messages import MsgKind, atomic_add

from tests.systems import MiniSpandex

LINE = 0xF000


def figure_system():
    mini = MiniSpandex({"cpu": "MESI", "gpu": "GPU", "acc": "DeNovo"},
                       coalesce_delay=1)
    trace = []
    mini.network.trace_hook = lambda msg, t: trace.append(msg)
    return mini, trace


def kinds_between(trace, src=None, dst=None):
    return [m.kind for m in trace
            if (src is None or m.src == src)
            and (dst is None or m.dst == dst)]


def test_figure_1a_word_granularity_reqo_and_reqwt():
    """1a: the accelerator's word ReqO gets a data-less RspO; the GPU's
    ReqWT to *other* words of the same line updates the LLC and gets a
    data-less RspWT — no false sharing, no blocking, no data."""
    mini, trace = figure_system()
    mini.store("acc", LINE, 0b0011, {0: 1, 1: 2})
    mini.release("acc")
    mini.run()
    mini.store("gpu", LINE, 0b1100, {2: 3, 3: 4})
    mini.release("gpu")
    mini.run()
    rspo = [m for m in trace if m.kind == MsgKind.RSP_O]
    assert rspo and not rspo[0].carries_data()
    rspwt = [m for m in trace if m.kind == MsgKind.RSP_WT]
    assert rspwt and not rspwt[0].carries_data()
    # disparate words in the same line: no revocation happened
    assert not any(m.kind == MsgKind.RVK_O for m in trace)
    assert mini.llc_owner(LINE, 0) == "acc"
    assert mini.llc_owner(LINE, 2) is None
    assert mini.llc_word(LINE, 2) == 3


def test_figure_1b_reqwt_data_revokes_owner():
    """1b: a GPU atomic (ReqWT+data) to accelerator-owned data makes
    the LLC send RvkO, wait for RspRvkO, update, and respond."""
    mini, trace = figure_system()
    mini.store("acc", LINE, 0b1, {0: 50})
    mini.release("acc")
    mini.run()
    del trace[:]
    rmw = mini.rmw("gpu", LINE, 0b1, atomic_add(1))
    mini.run()
    sequence = [m.kind for m in trace]
    assert MsgKind.RVK_O in sequence
    assert MsgKind.RSP_RVK_O in sequence
    assert sequence.index(MsgKind.RVK_O) < sequence.index(
        MsgKind.RSP_RVK_O)
    rsp = [m for m in trace if m.kind == MsgKind.RSP_WT_DATA]
    assert rsp and rsp[0].data[0] == 50       # value before the update
    assert rmw.values[0] == 50
    assert mini.llc_word(LINE, 0) == 51


def test_figure_1c_line_reqv_with_partial_owner_response():
    """1c: a GPU line ReqV when the accelerator owns some words — the
    LLC answers its own words and forwards a word ReqV; the owner
    responds directly to the requestor; the TU coalesces."""
    mini, trace = figure_system()
    mini.seed(LINE, {i: 100 + i for i in range(16)})
    mini.store("acc", LINE, 0b1, {0: 999})
    mini.release("acc")
    mini.run()
    del trace[:]
    load = mini.load("gpu", LINE, FULL_LINE_MASK)
    mini.run()
    assert load.done
    assert load.values[0] == 999            # from the owner, directly
    assert load.values[5] == 105            # from the LLC
    fwd = [m for m in trace if m.kind == MsgKind.REQ_V
           and m.src == "llc" and m.dst == "acc"]
    assert fwd and fwd[0].mask == 0b1
    direct = [m for m in trace if m.kind == MsgKind.RSP_V
              and m.src == "acc" and m.dst == "gpu"]
    assert direct and direct[0].data[0] == 999
    # no state transition at the LLC
    assert mini.llc_owner(LINE, 0) == "acc"


def test_figure_1d_reqwt_with_line_granularity_owner():
    """1d: a GPU word ReqWT to MESI-owned data — the LLC updates and
    forwards; the MESI cache downgrades, responds to the requestor, and
    writes back the words that were not requested."""
    mini, trace = figure_system()
    mini.seed(LINE, {i: 10 + i for i in range(16)})
    mini.store("cpu", LINE, 0b1, {0: 70})
    mini.release("cpu")
    mini.run()
    assert mini.llc_owner(LINE, 5) == "cpu"      # line-granularity O
    del trace[:]
    mini.store("gpu", LINE, 0b10, {1: 500})
    release = mini.release("gpu")
    mini.run()
    assert release.done
    fwd = [m for m in trace if m.kind == MsgKind.REQ_WT
           and m.src == "llc" and m.dst == "cpu"]
    assert fwd and fwd[0].mask == 0b10
    direct = [m for m in trace if m.kind == MsgKind.RSP_WT
              and m.src == "cpu" and m.dst == "gpu"]
    assert direct
    wb = [m for m in trace if m.kind == MsgKind.REQ_WB
          and m.src == "cpu"]
    assert wb and wb[0].mask == FULL_LINE_MASK & ~0b10
    assert mini.llc_word(LINE, 1) == 500
    assert mini.llc_word(LINE, 0) == 70          # written back
    assert all(mini.llc_owner(LINE, i) is None for i in range(16))
