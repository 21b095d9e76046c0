"""Sequential reference executor with DRF race detection.

Spandex assumes SC-for-DRF (paper §III-E): conflicting data accesses in
different threads must be separated by a happens-before chain of
synchronization accesses.  This module executes a set of traces
cooperatively (no timing), producing

* the expected final memory image — the simulator's DRAM must match it
  for deterministic workloads, giving an end-to-end correctness oracle;
* an exact data-race check on epoch-based vector clocks (FastTrack) —
  certifying that generated workloads actually are DRF, so the
  protocols' relaxed behaviours (stale Valid copies, non-atomic
  visibility windows) are legal.

Synchronization edges recognized:

* ``Op.rmw(..., release=True)`` publishes the thread's clock to the
  sync variable; ``acquire=True`` joins the variable's clock.
* a successful ``Op.spin_load`` joins the variable's clock (acquire);
* a plain store executed after a release fence is a release-store.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from ..workloads.trace import OpKind, Trace


class DataRace(Exception):
    """Two conflicting accesses without a happens-before ordering."""


class VectorClock:
    __slots__ = ("ticks",)

    def __init__(self, nthreads: int):
        self.ticks = [0] * nthreads

    def copy(self) -> "VectorClock":
        vc = VectorClock(len(self.ticks))
        vc.ticks = list(self.ticks)
        return vc

    def join(self, other: "VectorClock") -> None:
        self.ticks = [max(a, b) for a, b in zip(self.ticks, other.ticks)]

    def happens_before(self, other: "VectorClock") -> bool:
        return all(a <= b for a, b in zip(self.ticks, other.ticks))


class ReferenceResult:
    def __init__(self, memory: Dict[int, int], sync_addrs: Set[int],
                 races: List[str]):
        #: word address -> final value (absent words are 0)
        self.memory = memory
        self.sync_addrs = sync_addrs
        self.races = races

    def value(self, addr: int) -> int:
        return self.memory.get(addr, 0)


class ReferenceExecutor:
    """Cooperatively execute traces; detect races; compute final memory."""

    def __init__(self, traces: Sequence[Trace],
                 check_races: bool = True,
                 max_steps: int = 50_000_000):
        self.traces = list(traces)
        self.check_races = check_races
        self.max_steps = max_steps

    def run(self) -> ReferenceResult:
        """Run every thread until it blocks on a spin, round-robin, until
        all finish.

        Every thread and sync variable keeps a vector clock (a plain
        list).  A data access is recorded as the *epoch* ``(u, k)`` —
        the accessing thread ``u`` and its own clock component ``k``,
        packed into the int ``k * nthreads + u`` — rather than as a
        snapshot of its whole clock, and an earlier access with epoch
        ``(u, k)`` happens-before the current thread ``t`` exactly when
        ``k <= clock_t[u]`` (FastTrack: Flanagan & Freund, PLDI 2009).
        This is exact, not an approximation: a thread's own
        component changes only through its own tick, and each LOAD,
        STORE or RMW ticks before it touches memory, so any clock that
        carries ``u``'s component at ``>= k`` was published by ``u`` at
        or after that access and therefore dominates ``u``'s whole clock
        at the access.  For the access snapshot ``C_u`` and the current
        clock ``C_t``, ``C_u ⊑ C_t`` thus holds exactly when
        ``C_u[u] <= C_t[u]``.

        ``readers`` keeps one epoch per read (duplicates included) and is
        reset on each write, so the ``races`` list — messages, order and
        repeats — is what a full vector-clock comparison produces.
        Epochs are ints, not tuples: the garbage collector does not
        track ints, so the epochs a run keeps alive trigger no
        collections.
        """
        traces = self.traces
        nthreads = len(traces)
        check = self.check_races
        max_steps = self.max_steps
        LOAD, STORE, RMW = OpKind.LOAD, OpKind.STORE, OpKind.RMW
        SPIN_LOAD, RELEASE = OpKind.SPIN_LOAD, OpKind.RELEASE
        COMPUTE, ACQUIRE = OpKind.COMPUTE, OpKind.ACQUIRE
        memory: Dict[int, int] = {}
        sync_clock: Dict[int, List[int]] = {}
        last_writer: Dict[int, int] = {}
        readers: Dict[int, List[int]] = {}
        sync_addrs: Set[int] = set()
        races: List[str] = []
        pcs = [0] * nthreads
        clocks = [[0] * nthreads for _ in range(nthreads)]
        release_pending = [False] * nthreads

        steps = 0
        while True:
            progressed = False
            for tid, trace in enumerate(traces):
                start = pc = pcs[tid]
                end = len(trace)
                clock = clocks[tid]
                release = release_pending[tid]
                while pc < end:
                    steps += 1
                    if steps > max_steps:
                        raise RuntimeError(
                            "reference execution exceeded step budget "
                            "(deadlocked synchronization?)")
                    op = trace[pc]
                    kind = op.kind
                    if kind is LOAD:
                        clock[tid] += 1
                        if check:
                            epoch = clock[tid] * nthreads + tid
                            for addr in op.addrs:
                                if addr in sync_addrs:
                                    continue
                                writer = last_writer.get(addr)
                                if writer is not None:
                                    wtid = writer % nthreads
                                    if wtid != tid and \
                                            writer // nthreads > clock[wtid]:
                                        races.append(
                                            f"W-R race on 0x{addr:x}: "
                                            f"t{wtid} vs t{tid}")
                                seen = readers.get(addr)
                                if seen is None:
                                    readers[addr] = [epoch]
                                else:
                                    seen.append(epoch)
                    elif kind is STORE:
                        clock[tid] += 1
                        addrs = op.addrs
                        memory.update(dict.fromkeys(addrs, op.value))
                        if release:
                            release = False
                            sync_addrs.update(addrs)
                            for addr in addrs:
                                published = sync_clock.get(addr)
                                if published is None:
                                    sync_clock[addr] = clock[:]
                                else:
                                    published[:] = map(max, published,
                                                       clock)
                        elif check:
                            epoch = clock[tid] * nthreads + tid
                            for addr in addrs:
                                if addr in sync_addrs:
                                    continue
                                writer = last_writer.get(addr)
                                if writer is not None:
                                    wtid = writer % nthreads
                                    if wtid != tid and \
                                            writer // nthreads > clock[wtid]:
                                        races.append(
                                            f"W-W race on 0x{addr:x}: "
                                            f"t{wtid} vs t{tid}")
                                seen = readers.pop(addr, None)
                                if seen:
                                    for reader in seen:
                                        rtid = reader % nthreads
                                        if rtid != tid and reader // \
                                                nthreads > clock[rtid]:
                                            races.append(
                                                f"R-W race on 0x{addr:x}: "
                                                f"t{rtid} vs t{tid}")
                                last_writer[addr] = epoch
                    elif kind is RMW:
                        clock[tid] += 1
                        addr = op.addrs[0]
                        sync_addrs.add(addr)
                        published = sync_clock.get(addr)
                        if op.acquire and published is not None:
                            clock[:] = map(max, clock, published)
                        memory[addr] = op.atomic.apply(memory.get(addr, 0))
                        if op.release or not op.acquire:
                            # plain atomics still order within the sync var
                            if published is None:
                                sync_clock[addr] = clock[:]
                            else:
                                published[:] = map(max, published, clock)
                    elif kind is SPIN_LOAD:
                        addr = op.addrs[0]
                        sync_addrs.add(addr)
                        if not op.spin_until(memory.get(addr, 0)):
                            break
                        published = sync_clock.get(addr)
                        if published is not None:
                            clock[:] = map(max, clock, published)
                    elif kind is RELEASE:
                        release = True
                    elif kind is not COMPUTE and kind is not ACQUIRE:
                        raise AssertionError(f"unhandled {kind}")
                    pc += 1
                if pc != start:
                    progressed = True
                    pcs[tid] = pc
                release_pending[tid] = release
            if all(pc >= len(trace) for pc, trace in zip(pcs, traces)):
                break
            if not progressed:
                stuck = [tid for tid, trace in enumerate(traces)
                         if pcs[tid] < len(trace)]
                raise RuntimeError(
                    f"reference execution deadlocked; threads {stuck} "
                    "are spinning on conditions that can never be met")
        return ReferenceResult(memory, sync_addrs, races)


def assert_drf(traces: Sequence[Trace]) -> ReferenceResult:
    """Run the reference executor and raise :class:`DataRace` if any
    conflicting unsynchronized accesses were observed."""
    result = ReferenceExecutor(traces).run()
    if result.races:
        preview = "; ".join(result.races[:5])
        raise DataRace(f"{len(result.races)} race(s): {preview}")
    return result
