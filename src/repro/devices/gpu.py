"""GPU compute-unit model.

GPU workloads are throughput-oriented and latency-tolerant (paper
§II-B): a CU interleaves many warps, switching away from warps blocked
on memory, so a large number of misses overlap.  Per-warp vector
operations are coalesced into per-line masked accesses before reaching
the L1, which is where GPU coherence's line-granularity loads and
word-granularity write-throughs come from.

The CU issues one warp-instruction per ``issue_period`` cycles (the
2 GHz : 700 MHz clock ratio of Table VI makes this ~3 in CPU cycles).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from ..coherence.addr import line_of, word_index
from ..protocols.base import Access, L1Controller
from ..sim.engine import Component, Engine
from ..sim.stats import StatsRegistry
from ..workloads.trace import Op, OpKind, Trace


class Warp:
    """One warp: a trace plus scheduling state."""

    __slots__ = ("trace", "pc", "blocked", "outstanding", "wake_at")

    def __init__(self, trace: Trace):
        self.trace = trace
        self.pc = 0
        self.blocked = False
        self.outstanding = 0
        self.wake_at = 0

    @property
    def done(self) -> bool:
        return self.pc >= len(self.trace)


def coalesce(addrs: List[int]) -> Dict[int, Dict[int, int]]:
    """Group lane addresses into {line: {word_index: lane_ordinal}}.

    Address math is inlined (``line_of`` / ``word_index`` equivalents
    for the 64B/4B geometry): one call per lane adds up fast.
    """
    groups: Dict[int, Dict[int, int]] = defaultdict(dict)
    for ordinal, addr in enumerate(addrs):
        groups[addr & ~63][(addr >> 2) & 15] = ordinal
    return groups


class GPUCU(Component):
    """A compute unit scheduling warps over a shared L1."""

    def __init__(self, engine: Engine, name: str, l1: L1Controller,
                 stats: StatsRegistry,
                 warp_traces: Optional[List[Trace]] = None,
                 issue_period: int = 3, spin_backoff: int = 40):
        super().__init__(engine, name)
        self.l1 = l1
        self.stats = stats
        self.warps: List[Warp] = [Warp(t) for t in (warp_traces or [])]
        self.issue_period = issue_period
        self.spin_backoff = spin_backoff
        self._rr = 0
        self._tick_scheduled = False
        self.done = False
        self.on_done: Optional[Callable[[], None]] = None
        self.ops_executed = 0
        #: live flat-counter dict for per-access retry/latency counts
        self._counters = stats.raw_counters()
        #: OpKind -> bound handler, built once (``_issue`` is per-op hot)
        self._dispatch = {
            OpKind.LOAD: self._op_mem,
            OpKind.STORE: self._op_mem,
            OpKind.RMW: self._op_rmw,
            OpKind.SPIN_LOAD: self._op_spin,
            OpKind.ACQUIRE: self._op_acquire,
            OpKind.RELEASE: self._op_release,
            OpKind.COMPUTE: self._op_compute,
        }

    def start(self) -> None:
        self._schedule_tick(0)

    # ------------------------------------------------------------------
    def _schedule_tick(self, delay: Optional[int] = None) -> None:
        if self._tick_scheduled or self.done:
            return
        self._tick_scheduled = True
        self.schedule(self.issue_period if delay is None else delay,
                      self._tick)

    def _tick(self) -> None:
        self._tick_scheduled = False
        if all(w.done for w in self.warps):
            if not self.done:
                self.done = True
                # as CPUCore._finish: let the Ops die with the workload
                for warp in self.warps:
                    warp.trace = []
                self.stats.incr("gpu.ops", self.ops_executed)
                if self.on_done is not None:
                    self.on_done()
            return
        warp = self._pick_warp()
        if warp is None:
            # every live warp is blocked; wake with the earliest timer
            timers = [w.wake_at for w in self.warps
                      if not w.done and w.wake_at > self.now]
            if timers:
                self._schedule_tick(min(timers) - self.now)
            return
        self._issue(warp)

    def _pick_warp(self) -> Optional[Warp]:
        count = len(self.warps)
        for offset in range(count):
            warp = self.warps[(self._rr + offset) % count]
            if warp.done or warp.blocked:
                continue
            if warp.wake_at > self.now:
                continue
            self._rr = (self._rr + offset + 1) % count
            return warp
        return None

    # ------------------------------------------------------------------
    def _warp_advance(self, warp: Warp) -> None:
        warp.pc += 1
        self.ops_executed += 1
        warp.blocked = False
        self._schedule_tick()

    def _warp_unblock(self, warp: Warp) -> None:
        warp.outstanding -= 1
        if warp.outstanding == 0:
            self._warp_advance(warp)

    def _issue(self, warp: Warp) -> None:
        op = warp.trace[warp.pc]
        self._dispatch[op.kind](warp, op)
        self._schedule_tick()

    def _issue_with_retry(self, access: Access) -> None:
        """Issue an access, retrying on structural hazards each tick."""
        if not self.l1.try_access(access):
            self._counters["gpu.issue_retries"] += 1
            self.schedule(self.issue_period, self._issue_with_retry,
                          (access,))

    def _op_mem(self, warp: Warp, op: Op) -> None:
        """Coalesced vector load/store.

        The warp blocks until every per-line access completes (loads)
        or is accepted into the write buffer (stores) — acceptance is
        when the store callback fires, so both paths share the same
        outstanding-count plumbing.
        """
        groups = coalesce(op.addrs)
        warp.blocked = True
        warp.outstanding = len(groups)
        issued_at = self.now
        for line, words in sorted(groups.items()):
            mask = 0
            values: Dict[int, int] = {}
            for index in words:
                mask |= 1 << index
                if op.kind == OpKind.STORE:
                    values[index] = op.value
            kind = "load" if op.kind == OpKind.LOAD else "store"

            def done(_v, w=warp, k=kind, t=issued_at):
                if k == "load":
                    counters = self._counters
                    counters["gpu.load_latency_total"] += self.now - t
                    counters["gpu.load_count"] += 1
                self._warp_unblock(w)

            access = Access(kind, line, mask, values=values,
                            callback=done)
            self._issue_with_retry(access)

    def _op_rmw(self, warp: Warp, op: Op) -> None:
        addr = op.addrs[0]
        index = word_index(addr)

        def done(_values: Dict[int, int]) -> None:
            if op.acquire:
                self.l1.fence_acquire(
                    lambda: self._warp_advance(warp),
                    regions=op.regions, scope=op.scope)
            else:
                self._warp_advance(warp)

        def issue() -> None:
            access = Access("rmw", line_of(addr), 1 << index,
                            atomic=op.atomic, callback=done)
            if not self.l1.try_access(access):
                self.schedule(self.issue_period, issue)

        warp.blocked = True
        if op.release:
            self.l1.fence_release(issue, scope=op.scope)
        else:
            issue()

    def _op_spin(self, warp: Warp, op: Op) -> None:
        addr = op.addrs[0]
        index = word_index(addr)
        warp.blocked = True

        def attempt() -> None:
            access = Access("load", line_of(addr), 1 << index,
                            callback=check, invalidate_first=True)
            if not self.l1.try_access(access):
                self.schedule(self.issue_period, attempt)

        def check(values: Dict[int, int]) -> None:
            if op.spin_until(values.get(index, 0)):
                self.l1.fence_acquire(
                    lambda: self._warp_advance(warp),
                    regions=op.regions, scope=op.scope)
                return
            self.stats.incr("gpu.spin_iterations")
            self.schedule(self.spin_backoff, attempt)

        attempt()

    def _op_acquire(self, warp: Warp, op: Op) -> None:
        warp.blocked = True
        self.l1.fence_acquire(lambda: self._warp_advance(warp),
                              regions=op.regions, scope=op.scope)

    def _op_release(self, warp: Warp, op: Op) -> None:
        warp.blocked = True
        self.l1.fence_release(lambda: self._warp_advance(warp),
                              scope=op.scope)

    def _op_compute(self, warp: Warp, op: Op) -> None:
        warp.wake_at = self.now + op.cycles
        warp.pc += 1
        self.ops_executed += 1
