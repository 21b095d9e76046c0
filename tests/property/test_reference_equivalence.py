"""The epoch-based reference executor against the vector-clock original.

``ReferenceExecutor`` records an access as the epoch ``(tid, tick)``
instead of a snapshot of the thread's whole vector clock.  The original
algorithm is transcribed below as the oracle; Hypothesis draws small
multi-threaded programs — racy, synchronized and deadlocking alike —
and the two must agree on the final memory, the sync addresses, the
exact ``races`` list (messages, order and repeats) and the
``RuntimeError`` raised on a deadlock or an exhausted step budget.
Every workload generator is checked the same way.
"""

from typing import Dict, List, Sequence, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence.messages import atomic_add, atomic_max
from repro.consistency.reference import ReferenceExecutor
from repro.workloads import APPLICATIONS, MICROBENCHMARKS
from repro.workloads.trace import Op, OpKind, Trace

pytestmark = pytest.mark.tier1

DATA = (0x100, 0x104, 0x140)
FLAGS = (0x200, 0x204)
HANDOFF = (0x300, 0x304, 0x308)


def _hb(a: List[int], b: List[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _join(into: List[int], other: List[int]) -> None:
    into[:] = [max(x, y) for x, y in zip(into, other)]


def vector_clock_reference(traces: Sequence[Trace], check_races: bool = True,
                           max_steps: int = 50_000_000
                           ) -> Tuple[Dict[int, int], Set[int], List[str]]:
    """The vector-clock executor the epoch version replaced: a full
    clock snapshot per access, compared component-wise."""
    nthreads = len(traces)
    pcs = [0] * nthreads
    clocks = [[0] * nthreads for _ in range(nthreads)]
    release_pending = [False] * nthreads
    memory: Dict[int, int] = {}
    sync_clock: Dict[int, List[int]] = {}
    last_writer: Dict[int, Tuple[int, List[int]]] = {}
    readers: Dict[int, List[Tuple[int, List[int]]]] = {}
    sync_addrs: Set[int] = set()
    races: List[str] = []

    def check_write(tid: int, addr: int) -> None:
        if not check_races or addr in sync_addrs:
            return
        writer = last_writer.get(addr)
        if writer is not None and writer[0] != tid and \
                not _hb(writer[1], clocks[tid]):
            races.append(f"W-W race on 0x{addr:x}: t{writer[0]} vs t{tid}")
        for reader_tid, reader_clock in readers.get(addr, []):
            if reader_tid != tid and not _hb(reader_clock, clocks[tid]):
                races.append(f"R-W race on 0x{addr:x}: "
                             f"t{reader_tid} vs t{tid}")
        last_writer[addr] = (tid, list(clocks[tid]))
        readers[addr] = []

    def check_read(tid: int, addr: int) -> None:
        if not check_races or addr in sync_addrs:
            return
        writer = last_writer.get(addr)
        if writer is not None and writer[0] != tid and \
                not _hb(writer[1], clocks[tid]):
            races.append(f"W-R race on 0x{addr:x}: t{writer[0]} vs t{tid}")
        readers.setdefault(addr, []).append((tid, list(clocks[tid])))

    def step(tid: int) -> bool:
        op = traces[tid][pcs[tid]]
        clock = clocks[tid]
        if op.kind in (OpKind.COMPUTE, OpKind.ACQUIRE):
            pass
        elif op.kind == OpKind.RELEASE:
            release_pending[tid] = True
        elif op.kind == OpKind.LOAD:
            clock[tid] += 1
            for addr in op.addrs:
                check_read(tid, addr)
        elif op.kind == OpKind.STORE:
            clock[tid] += 1
            for addr in op.addrs:
                if release_pending[tid]:
                    sync_addrs.add(addr)
                    _join(sync_clock.setdefault(addr, [0] * nthreads),
                          clock)
                else:
                    check_write(tid, addr)
                memory[addr] = op.value
            release_pending[tid] = False
        elif op.kind == OpKind.RMW:
            clock[tid] += 1
            addr = op.addrs[0]
            sync_addrs.add(addr)
            published = sync_clock.setdefault(addr, [0] * nthreads)
            if op.acquire:
                _join(clock, published)
            memory[addr] = op.atomic.apply(memory.get(addr, 0))
            if op.release or not op.acquire:
                _join(published, clock)
        elif op.kind == OpKind.SPIN_LOAD:
            addr = op.addrs[0]
            sync_addrs.add(addr)
            if not op.spin_until(memory.get(addr, 0)):
                return False
            _join(clock, sync_clock.setdefault(addr, [0] * nthreads))
        pcs[tid] += 1
        return True

    steps = 0
    while True:
        progressed = False
        for tid in range(nthreads):
            while pcs[tid] < len(traces[tid]):
                steps += 1
                if steps > max_steps:
                    raise RuntimeError(
                        "reference execution exceeded step budget "
                        "(deadlocked synchronization?)")
                if not step(tid):
                    break
                progressed = True
        if all(pcs[tid] >= len(traces[tid]) for tid in range(nthreads)):
            break
        if not progressed:
            stuck = [tid for tid in range(nthreads)
                     if pcs[tid] < len(traces[tid])]
            raise RuntimeError(
                f"reference execution deadlocked; threads {stuck} "
                "are spinning on conditions that can never be met")
    return memory, sync_addrs, races


def _outcome(run):
    """(memory, sync_addrs, races) or the RuntimeError message."""
    try:
        return run()
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


def _epoch_outcome(traces, check_races=True, max_steps=50_000_000):
    def run():
        result = ReferenceExecutor(traces, check_races=check_races,
                                   max_steps=max_steps).run()
        return result.memory, result.sync_addrs, result.races
    return _outcome(run)


def _oracle_outcome(traces, check_races=True, max_steps=50_000_000):
    return _outcome(lambda: vector_clock_reference(traces, check_races,
                                                   max_steps))


# mostly data words for data accesses and flags for sync ops, but each
# sometimes strays so a word can serve as both
data_word = st.sampled_from(DATA * 3 + FLAGS)
flag_word = st.sampled_from(FLAGS * 3 + DATA)
value = st.integers(min_value=1, max_value=9)


@st.composite
def ops(draw) -> List[Op]:
    """One trace step: a LOAD, a (multi-address) STORE, a fenced
    release-store, an acquire/release/plain RMW, a spin or a no-op."""
    kind = draw(st.sampled_from(
        ["load", "store", "release_store", "rmw", "spin", "neutral"]))
    if kind == "load":
        return [Op.load(draw(st.lists(data_word, min_size=1,
                                      max_size=3)))]
    if kind == "store":
        return [Op.store(draw(st.lists(data_word, min_size=1,
                                       max_size=3)), draw(value))]
    if kind == "release_store":
        return [Op.release_fence(),
                Op.store(draw(st.lists(flag_word, min_size=1,
                                       max_size=2)), draw(value))]
    if kind == "rmw":
        atomic = draw(st.sampled_from([atomic_add(1), atomic_max(3)]))
        flavour = draw(st.sampled_from(["acquire", "release", "both",
                                        "plain"]))
        return [Op.rmw(draw(flag_word), atomic,
                       acquire=flavour in ("acquire", "both"),
                       release=flavour in ("release", "both"))]
    if kind == "spin":
        return [Op.spin_ge(draw(flag_word), draw(st.integers(0, 2)))]
    return [draw(st.sampled_from([Op.compute(5), Op.acquire_fence()]))]


#: ways to publish / consume a handoff word
RELEASES = (lambda addr: [Op.rmw(addr, atomic_add(1), release=True)],
            lambda addr: [Op.rmw(addr, atomic_add(1))],
            lambda addr: [Op.release_fence(), Op.store(addr, 1)])
ACQUIRES = (lambda addr: [Op.spin_ge(addr, 1)],
            lambda addr: [Op.rmw(addr, atomic_add(0), acquire=True)])


@st.composite
def programs(draw) -> List[Trace]:
    """2-4 threads of random steps.  In a chained program thread k also
    acquires the handoff word thread k-1 releases, so orderings that
    hold only transitively (t0 -> t1 -> t2) are drawn too."""
    nthreads = draw(st.integers(min_value=2, max_value=4))
    chained = draw(st.booleans())
    traces = []
    for tid in range(nthreads):
        steps = draw(st.lists(ops(), max_size=10))
        if chained:
            first, second = sorted(
                draw(st.lists(st.integers(0, len(steps)), min_size=2,
                              max_size=2)))
            if tid < nthreads - 1:
                release = draw(st.sampled_from(RELEASES))
                steps.insert(second, release(HANDOFF[tid]))
            if tid > 0:
                acquire = draw(st.sampled_from(ACQUIRES))
                steps.insert(first, acquire(HANDOFF[tid - 1]))
        traces.append([op for step in steps for op in step])
    return traces


@given(programs())
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_epochs_match_vector_clocks(traces):
    assert _epoch_outcome(traces) == _oracle_outcome(traces)


@given(programs(), st.booleans(), st.integers(min_value=1, max_value=40))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_step_budget_and_unchecked_runs_match(traces, check_races,
                                              max_steps):
    # every attempt counts against the budget, failed spins included
    assert _epoch_outcome(traces, check_races, max_steps) == \
        _oracle_outcome(traces, check_races, max_steps)


def test_drawn_programs_cover_races_and_deadlocks():
    """The equivalence property is only as strong as its programs: a
    sample of them must include racy, race-free and deadlocking ones."""
    found = {"racy": 0, "clean": 0, "deadlock": 0}

    @given(programs())
    @settings(max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def sample(traces):
        outcome = _oracle_outcome(traces)
        if isinstance(outcome, str):
            found["deadlock"] += "deadlocked" in outcome
        elif outcome[2]:
            found["racy"] += 1
        else:
            found["clean"] += 1

    sample()
    assert all(found.values()), found


@pytest.mark.parametrize("name", sorted({**MICROBENCHMARKS,
                                         **APPLICATIONS}))
def test_generators_match_vector_clocks(name):
    generator = {**MICROBENCHMARKS, **APPLICATIONS}[name]
    traces = generator(num_cpus=2, num_gpus=2,
                       warps_per_cu=1).all_threads()
    assert _epoch_outcome(traces) == _oracle_outcome(traces)
