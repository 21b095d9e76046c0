"""In-order CPU core model.

CPU workloads are latency-sensitive (paper §II-A): the core blocks on
loads and RMWs, while stores retire into the L1's store buffer.  One
operation issues per cycle when everything hits; structural hazards
(full MSHRs / store buffer) retry the same operation each cycle.

Spinning flag reads model fine-grained synchronization: the core
re-reads the flag with a backoff, forcing a fresh copy on protocols
that self-invalidate, and treats a successful spin as an acquire.

Every wait goes through one hook, ``_stall(delay, resume, args)``:
structural stalls resume at ``_step`` after ``issue_period`` (a store
at ``_poll_store``, which keeps its ``Access`` until its line's
store-buffer entry clears), a spin miss at ``_op_spin`` after
``spin_backoff``.  It is the engine's
``schedule`` itself; the litmus explorer's subclass
(:mod:`repro.verify.explorer`) swaps it to park the resumption until
its drain loop wakes the core.  ``log`` is ``None`` in simulation
runs; as a list it gets a ``{kind, addr, value, cycle, uid, seq}``
entry per completed load, accepted store, RMW (before its acquire
fence) and successful spin (kind ``"spin"``) — what the explorer's
value-legality pass reads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
        #: the cycle the core ran out of trace (set with ``done``)
        self.finished_at = 0
        self.ops_executed = 0
        self.spin_iterations = 0
        #: completed-operation log (``None``: not recorded)
        self.log: Optional[List[Dict[str, object]]] = None
        #: wait hook ``(delay, resume, args)``: the engine's schedule
        self._stall = self.schedule
        #: issue cycle of the one outstanding load (the core blocks on it)
        self._load_issued_at = 0
        #: live flat-counter dict for the per-op latency accounting
        self._counters = stats.raw_counters()

    def start(self) -> None:
        self.schedule(0, self._step)

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        self.done = True
        self.finished_at = self.engine.now
        # the Ops belong to the workload: a System kept alive after its
        # run (for validation or exports) does not keep them too
        self.trace = []
        self.stats.incr("cpu.ops", self.ops_executed)

    def _advance(self, delay: int = 0) -> None:
        self._pc += 1
        self.ops_executed += 1
        self.schedule(delay if delay > self.issue_period
                      else self.issue_period, self._step)

    def _log(self, kind: str, values: Dict[int, int]) -> None:
        """Append the current op's completion, with its word's value."""
        op = self.trace[self._pc]
        addr = op.addrs[0]
        log = self.log
        log.append({"kind": kind, "addr": addr,
                    "value": values.get((addr >> 2) & 15, 0),
                    "cycle": self.engine.now, "uid": op.uid, "seq": len(log)})

    def _step(self) -> None:
        if self._pc >= len(self.trace):
            self._finish()
            return
        op = self.trace[self._pc]
        _DISPATCH[op.kind](self, op)

    # ------------------------------------------------------------------
    # Completion callbacks are bound methods, not per-op closures: the
    # core has at most one blocking access outstanding, so they read the
    # current op back from ``self.trace[self._pc]``.
    def _op_load(self, op: Op) -> None:
        addr = op.addrs[0]
        self._load_issued_at = self.engine.now
        access = Access("load", addr & ~63, 1 << ((addr >> 2) & 15),
                        callback=self._load_done)
        if not self.l1.try_access(access):
            self._stall(self.issue_period, self._step)

    def _load_done(self, values: Dict[int, int]) -> None:
        counters = self._counters
        counters["cpu.load_latency_total"] += \
            self.engine.now - self._load_issued_at
        counters["cpu.load_count"] += 1
        if self.log is not None:
            self._log("load", values)
        self._advance()

    def _op_store(self, op: Op) -> None:
        addr = op.addrs[0]
        index = (addr >> 2) & 15
        self._store(Access("store", addr & ~63, 1 << index,
                           values={index: op.value},
                           callback=_discard_values))

    def _store(self, access: Access) -> None:
        if not self.l1.try_access(access):
            self._stall(self.issue_period, self._poll_store, (access,))
            return
        if self.log is not None:
            self._log("store", access.values)
        self._advance()

    def _poll_store(self, access: Access) -> None:
        """Retry a refused store once its line's entry has cleared."""
        if self.l1.store_blocked(access):
            self._stall(self.issue_period, self._poll_store, (access,))
        else:
            self._store(access)

    def _op_rmw(self, op: Op) -> None:
        if op.release:
            self.l1.fence_release(self._issue_rmw, scope=op.scope)
        else:
            self._issue_rmw()

    def _issue_rmw(self) -> None:
        op = self.trace[self._pc]
        addr = op.addrs[0]
        access = Access("rmw", addr & ~63, 1 << ((addr >> 2) & 15),
                        atomic=op.atomic, callback=self._rmw_done)
        if not self.l1.try_access(access):
            self._stall(self.issue_period, self._step)

    def _rmw_done(self, values: Dict[int, int]) -> None:
        op = self.trace[self._pc]
        if self.log is not None:
            self._log("rmw", values)
        if op.acquire:
            self.l1.fence_acquire(self._advance,
                                  regions=op.regions, scope=op.scope)
        else:
            self._advance()

    def _op_spin(self, op: Op) -> None:
        addr = op.addrs[0]
        # Each spin read must observe a fresh value: self-invalidating
        # protocols drop their stale Valid copy first (MESI ignores the
        # hint — the writer invalidates it).
        access = Access("load", addr & ~63, 1 << ((addr >> 2) & 15),
                        callback=self._spin_check, invalidate_first=True)
        if not self.l1.try_access(access):
            self._stall(self.issue_period, self._step)

    def _spin_check(self, values: Dict[int, int]) -> None:
        op = self.trace[self._pc]
        if op.spin_until(values.get((op.addrs[0] >> 2) & 15, 0)):
            if self.log is not None:
                self._log("spin", values)
            # a successful sync read is an acquire
            self.l1.fence_acquire(self._advance,
                                  regions=op.regions, scope=op.scope)
            return
        self.spin_iterations += 1
        self._counters["cpu.spin_iterations"] += 1
        self._stall(self.spin_backoff, self._op_spin, (op,))

    def _op_acquire(self, op: Op) -> None:
        self.l1.fence_acquire(self._advance,
                              regions=op.regions, scope=op.scope)

    def _op_release(self, op: Op) -> None:
        self.l1.fence_release(self._advance, scope=op.scope)

    def _op_compute(self, op: Op) -> None:
        self._advance(delay=op.cycles)


#: OpKind -> handler (``_step`` is per-op hot); plain functions, so a
#: core holds no bound method of itself
_DISPATCH = {
    OpKind.LOAD: CPUCore._op_load,
    OpKind.STORE: CPUCore._op_store,
    OpKind.RMW: CPUCore._op_rmw,
    OpKind.SPIN_LOAD: CPUCore._op_spin,
    OpKind.ACQUIRE: CPUCore._op_acquire,
    OpKind.RELEASE: CPUCore._op_release,
    OpKind.COMPUTE: CPUCore._op_compute,
}
