"""GPU compute-unit model.

GPU workloads are throughput-oriented and latency-tolerant (paper
§II-B): a CU interleaves many warps, switching away from warps blocked
on memory, so a large number of misses overlap.  Per-warp vector
operations are coalesced into per-line masked accesses before reaching
the L1, which is where GPU coherence's line-granularity loads and
word-granularity write-throughs come from.

The CU issues one warp-instruction per ``issue_period`` cycles (the
2 GHz : 700 MHz clock ratio of Table VI makes this ~3 in CPU cycles).
A refused access retries every ``issue_period`` at ``_poll``, which
re-presents a store only once its line's store-buffer entry clears.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..coherence.addr import iter_mask
from ..protocols.base import Access, L1Controller
from ..sim.engine import Component, Engine
from ..sim.stats import StatsRegistry
from ..workloads.trace import Op, OpKind, Trace


class Warp:
    """One warp: a trace plus scheduling state.

    ``issued_at`` is the issue cycle of the warp's blocking vector
    access.  The remaining slots hold the callbacks its accesses and
    fences complete through, which :meth:`GPUCU._bind` builds on the
    warp's first issue.
    """

    __slots__ = ("trace", "pc", "blocked", "outstanding", "wake_at",
                 "issued_at", "advance", "on_load", "on_store",
                 "issue_rmw", "on_rmw", "on_spin")

    def __init__(self, trace: Trace):
        self.trace = trace
        self.pc = 0
        self.blocked = False
        self.outstanding = 0
        self.wake_at = 0
        self.issued_at = 0
        self.unbind()

    def unbind(self) -> None:
        """Clear the callbacks, which refer back to the warp."""
        self.advance = self.on_load = self.on_store = None
        self.issue_rmw = self.on_rmw = self.on_spin = None

    @property
    def done(self) -> bool:
        return self.pc >= len(self.trace)


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
        #: the cycle the last warp finished (set with ``done``)
        self.finished_at = 0
        self.ops_executed = 0
        #: live flat-counter dict for per-access retry/latency counts
        self._counters = stats.raw_counters()

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
        warp = self._pick_warp()
        if warp is not None:
            self._issue(warp)
            return
        if all(w.done for w in self.warps):
            if not self.done:
                self.done = True
                self.finished_at = self.engine.now
                # as CPUCore._finish drops its trace; a bound warp's
                # callbacks refer back to it, so unbind each first
                for warp in self.warps:
                    warp.unbind()
                self.warps = []
                self.stats.incr("gpu.ops", self.ops_executed)
            return
        # every live warp is blocked; wake with the earliest timer
        now = self.engine.now
        timers = [w.wake_at for w in self.warps
                  if not w.done and w.wake_at > now]
        if timers:
            self._schedule_tick(min(timers) - now)

    def _pick_warp(self) -> Optional[Warp]:
        count = len(self.warps)
        now = self.engine.now
        for offset in range(count):
            warp = self.warps[(self._rr + offset) % count]
            if warp.done or warp.blocked:
                continue
            if warp.wake_at > now:
                continue
            self._rr = (self._rr + offset + 1) % count
            return warp
        return None

    # ------------------------------------------------------------------
    def _bind(self, warp: Warp) -> None:
        """Build the warp's callbacks, once per warp."""
        warp.advance = partial(self._warp_advance, warp)
        warp.on_load = partial(self._load_done, warp)
        warp.on_store = partial(self._line_done, warp)
        warp.issue_rmw = partial(self._issue_rmw, warp)
        warp.on_rmw = partial(self._rmw_done, warp)
        warp.on_spin = partial(self._spin_check, warp)

    def _warp_advance(self, warp: Warp) -> None:
        warp.pc += 1
        self.ops_executed += 1
        warp.blocked = False
        self._schedule_tick()

    def _issue(self, warp: Warp) -> None:
        if warp.advance is None:
            self._bind(warp)
        op = warp.trace[warp.pc]
        _DISPATCH[op.kind](self, warp, op)
        self._schedule_tick()

    def _issue_with_retry(self, access: Access) -> None:
        """Issue an access, retrying on structural hazards each tick."""
        if not self.l1.try_access(access):
            self._counters["gpu.issue_retries"] += 1
            self.schedule(self.issue_period, self._poll, (access,))

    def _poll(self, access: Access) -> None:
        """Retry a refused access (a store once its entry has cleared)."""
        if access.kind == "store" and self.l1.store_blocked(access):
            self._counters["gpu.issue_retries"] += 1
            self.schedule(self.issue_period, self._poll, (access,))
        else:
            self._issue_with_retry(access)

    def _op_mem(self, warp: Warp, op: Op) -> None:
        """Coalesced vector load/store.

        Lanes are grouped into one word mask per line (duplicate lanes
        merge) and issued in ascending line order.  The warp blocks
        until every per-line access completes (loads) or is accepted
        into the write buffer (stores) — acceptance is when the store
        callback fires, so both paths share the outstanding count.
        """
        masks: Dict[int, int] = {}
        for addr in op.addrs:
            line = addr & ~63
            masks[line] = masks.get(line, 0) | 1 << ((addr >> 2) & 15)
        warp.blocked = True
        warp.outstanding = len(masks)
        warp.issued_at = self.engine.now
        if op.kind is OpKind.LOAD:
            on_load = warp.on_load
            for line in sorted(masks):
                self._issue_with_retry(
                    Access("load", line, masks[line], callback=on_load))
            return
        on_store, value = warp.on_store, op.value
        for line in sorted(masks):
            mask = masks[line]
            self._issue_with_retry(
                Access("store", line, mask,
                       values=dict.fromkeys(iter_mask(mask), value),
                       callback=on_store))

    def _load_done(self, warp: Warp, values: Dict[int, int]) -> None:
        counters = self._counters
        counters["gpu.load_latency_total"] += \
            self.engine.now - warp.issued_at
        counters["gpu.load_count"] += 1
        self._line_done(warp, values)

    def _line_done(self, warp: Warp, values: Dict[int, int]) -> None:
        warp.outstanding -= 1
        if warp.outstanding == 0:
            self._warp_advance(warp)

    # A sync op blocks its warp on one access at a time, so the
    # callbacks below read the op back from ``warp.trace[warp.pc]``.
    def _op_rmw(self, warp: Warp, op: Op) -> None:
        warp.blocked = True
        if op.release:
            self.l1.fence_release(warp.issue_rmw, scope=op.scope)
        else:
            self._issue_rmw(warp)

    def _issue_rmw(self, warp: Warp) -> None:
        op = warp.trace[warp.pc]
        addr = op.addrs[0]
        access = Access("rmw", addr & ~63, 1 << ((addr >> 2) & 15),
                        atomic=op.atomic, callback=warp.on_rmw)
        if not self.l1.try_access(access):
            self.schedule(self.issue_period, self._issue_rmw, (warp,))

    def _rmw_done(self, warp: Warp, values: Dict[int, int]) -> None:
        op = warp.trace[warp.pc]
        if op.acquire:
            self.l1.fence_acquire(warp.advance,
                                  regions=op.regions, scope=op.scope)
        else:
            self._warp_advance(warp)

    def _op_spin(self, warp: Warp, op: Op) -> None:
        warp.blocked = True
        self._spin_attempt(warp)

    def _spin_attempt(self, warp: Warp) -> None:
        addr = warp.trace[warp.pc].addrs[0]
        access = Access("load", addr & ~63, 1 << ((addr >> 2) & 15),
                        callback=warp.on_spin, invalidate_first=True)
        if not self.l1.try_access(access):
            self.schedule(self.issue_period, self._spin_attempt, (warp,))

    def _spin_check(self, warp: Warp, values: Dict[int, int]) -> None:
        op = warp.trace[warp.pc]
        if op.spin_until(values.get((op.addrs[0] >> 2) & 15, 0)):
            self.l1.fence_acquire(warp.advance,
                                  regions=op.regions, scope=op.scope)
            return
        self.stats.incr("gpu.spin_iterations")
        self.schedule(self.spin_backoff, self._spin_attempt, (warp,))

    def _op_acquire(self, warp: Warp, op: Op) -> None:
        warp.blocked = True
        self.l1.fence_acquire(warp.advance,
                              regions=op.regions, scope=op.scope)

    def _op_release(self, warp: Warp, op: Op) -> None:
        warp.blocked = True
        self.l1.fence_release(warp.advance, scope=op.scope)

    def _op_compute(self, warp: Warp, op: Op) -> None:
        warp.wake_at = self.engine.now + op.cycles
        warp.pc += 1
        self.ops_executed += 1


#: OpKind -> handler (``_issue`` is per-op hot); plain functions, so a
#: CU holds no bound method of itself
_DISPATCH = {
    OpKind.LOAD: GPUCU._op_mem,
    OpKind.STORE: GPUCU._op_mem,
    OpKind.RMW: GPUCU._op_rmw,
    OpKind.SPIN_LOAD: GPUCU._op_spin,
    OpKind.ACQUIRE: GPUCU._op_acquire,
    OpKind.RELEASE: GPUCU._op_release,
    OpKind.COMPUTE: GPUCU._op_compute,
}
