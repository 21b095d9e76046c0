"""``decompose`` against a brute-force per-cycle oracle.

The oracle clips every interval to the request's window, sorts the
clipped intervals by ``(t0, t1)``, and gives each unit cycle to the
first interval of the highest priority that covers it ("other" when
none does).  It then merges adjacent cycles that share both stage and
resource into segments.  Drawn intervals fall partly or wholly outside
the window, have zero width, overlap, and repeat a stage on different
resources, so both the sequential fast path and the overlap sweep are
checked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SPAN_STAGES, decompose

PRIORITY = {"retransmit": 5, "queue": 4, "probe": 3, "flight": 2,
            "issue": 1}


def oracle(start, end, intervals):
    stages = dict.fromkeys(SPAN_STAGES, 0)
    segments = []
    clipped = sorted(
        ((stage, max(t0, start), min(t1, end), resource)
         for stage, t0, t1, resource in intervals
         if min(t1, end) > max(t0, start)),
        key=lambda interval: (interval[1], interval[2]))
    for cycle in range(start, end):
        winner = ("other", "")
        for stage, t0, t1, resource in clipped:
            if t0 <= cycle < t1 and (winner[0] == "other" or
                                     PRIORITY[stage] > PRIORITY[winner[0]]):
                winner = (stage, resource)
        stage, resource = winner
        stages[stage] += 1
        if segments and segments[-1][0] == stage \
                and segments[-1][3] == resource:
            segments[-1] = (stage, segments[-1][1], cycle + 1, resource)
        else:
            segments.append((stage, cycle, cycle + 1, resource))
    return stages, segments


_intervals = st.lists(
    st.tuples(st.sampled_from(sorted(PRIORITY)),
              st.integers(-10, 60), st.integers(0, 25),
              st.sampled_from(("a->b", "b->a", "llc0", "llc1"))).map(
        lambda row: (row[0], row[1], row[1] + row[2], row[3])),
    max_size=8)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 20), st.integers(-5, 50), _intervals)
def test_decompose_matches_per_cycle_oracle(start, length, intervals):
    end = start + length
    stages, segments = decompose(start, end, list(intervals))
    want_stages, want_segments = oracle(start, end, intervals)
    assert stages == want_stages
    assert segments == want_segments
    assert sum(stages.values()) == max(0, end - start)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 20), st.integers(1, 50), _intervals)
def test_sequential_intervals_take_the_same_answer(start, length,
                                                   intervals):
    # laid end to end without overlap: the fast path's input
    cursor, sequential = start - 5, []
    for stage, t0, t1, resource in intervals:
        width = t1 - t0
        gap = t0 % 3
        sequential.append((stage, cursor + gap, cursor + gap + width,
                           resource))
        cursor += gap + width
    end = start + length
    assert decompose(start, end, sequential) == \
        oracle(start, end, sequential)
