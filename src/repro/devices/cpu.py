"""In-order CPU core model.

CPU workloads are latency-sensitive (paper §II-A): the core blocks on
loads and RMWs, while stores retire into the L1's store buffer.  One
operation issues per cycle when everything hits; structural hazards
(full MSHRs / store buffer) retry the same operation each cycle.

Spinning flag reads model fine-grained synchronization: the core
re-reads the flag with a backoff, forcing a fresh copy on protocols
that self-invalidate, and treats a successful spin as an acquire.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..coherence.addr import line_of, mask_of
from ..protocols.base import Access, L1Controller
from ..sim.engine import Component, Engine
from ..sim.stats import StatsRegistry
from ..workloads.trace import Op, OpKind, Trace


def _discard_values(values: Dict[int, int]) -> None:
    """Store-completion callback: stores return no data."""


class CPUCore(Component):
    """Executes one trace in order on top of an L1 controller."""

    def __init__(self, engine: Engine, name: str, l1: L1Controller,
                 stats: StatsRegistry, trace: Optional[Trace] = None,
                 issue_period: int = 1, spin_backoff: int = 25):
        super().__init__(engine, name)
        self.l1 = l1
        self.stats = stats
        self.trace: Trace = trace or []
        self.issue_period = issue_period
        self.spin_backoff = spin_backoff
        self._pc = 0
        self.done = False
        self.on_done: Optional[Callable[[], None]] = None
        self.ops_executed = 0
        self.spin_iterations = 0
        #: live flat-counter dict for the per-op latency accounting
        self._counters = stats.raw_counters()
        #: OpKind -> bound handler, built once (``_step`` is per-op hot)
        self._dispatch = {
            OpKind.LOAD: self._op_load,
            OpKind.STORE: self._op_store,
            OpKind.RMW: self._op_rmw,
            OpKind.SPIN_LOAD: self._op_spin,
            OpKind.ACQUIRE: self._op_acquire,
            OpKind.RELEASE: self._op_release,
            OpKind.COMPUTE: self._op_compute,
        }

    def start(self) -> None:
        self.schedule(0, self._step)

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        self.done = True
        # A System ends up as cyclic garbage; dropping the finished trace
        # lets its Ops die with the workload, not at a full collection.
        self.trace = []
        self.stats.incr("cpu.ops", self.ops_executed)
        if self.on_done is not None:
            self.on_done()

    def _advance(self, delay: int = 0) -> None:
        self._pc += 1
        self.ops_executed += 1
        self.schedule(max(delay, self.issue_period), self._step)

    def _retry(self) -> None:
        self.schedule(self.issue_period, self._step)

    def _step(self) -> None:
        if self._pc >= len(self.trace):
            self._finish()
            return
        op = self.trace[self._pc]
        self._dispatch[op.kind](op)

    # ------------------------------------------------------------------
    def _op_load(self, op: Op) -> None:
        addr = op.addrs[0]
        issued_at = self.now

        def done(values: Dict[int, int]) -> None:
            counters = self._counters
            counters["cpu.load_latency_total"] += self.now - issued_at
            counters["cpu.load_count"] += 1
            self._advance()

        access = Access("load", line_of(addr), mask_of(addr),
                        callback=done)
        if not self.l1.try_access(access):
            self._retry()

    def _op_store(self, op: Op) -> None:
        addr = op.addrs[0]
        index = (addr >> 2) & 15
        access = Access("store", addr & ~63, 1 << index,
                        values={index: op.value},
                        callback=_discard_values)
        if not self.l1.try_access(access):
            self._retry()
            return
        self._advance()

    def _op_rmw(self, op: Op) -> None:
        addr = op.addrs[0]

        def done(values: Dict[int, int]) -> None:
            if op.acquire:
                self.l1.fence_acquire(self._advance,
                                      regions=op.regions, scope=op.scope)
            else:
                self._advance()

        def issue() -> None:
            access = Access("rmw", line_of(addr), mask_of(addr),
                            atomic=op.atomic, callback=done)
            if not self.l1.try_access(access):
                self._retry()

        if op.release:
            self.l1.fence_release(issue, scope=op.scope)
        else:
            issue()

    def _op_spin(self, op: Op) -> None:
        addr = op.addrs[0]
        index = (addr >> 2) & 15

        def check(values: Dict[int, int]) -> None:
            value = values.get(index, 0)
            if op.spin_until(value):
                # a successful sync read is an acquire
                self.l1.fence_acquire(self._advance,
                                      regions=op.regions, scope=op.scope)
                return
            self.spin_iterations += 1
            self._counters["cpu.spin_iterations"] += 1
            self.schedule(self.spin_backoff, self._op_spin, (op,))

        # Each spin read must observe a fresh value: self-invalidating
        # protocols drop their stale Valid copy first (MESI ignores the
        # hint — the writer invalidates it).
        access = Access("load", line_of(addr), mask_of(addr),
                        callback=check, invalidate_first=True)
        if not self.l1.try_access(access):
            self._retry()

    def _op_acquire(self, op: Op) -> None:
        self.l1.fence_acquire(self._advance,
                              regions=op.regions, scope=op.scope)

    def _op_release(self, op: Op) -> None:
        self.l1.fence_release(self._advance, scope=op.scope)

    def _op_compute(self, op: Op) -> None:
        self._advance(delay=op.cycles)
