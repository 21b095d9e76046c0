"""Liveness watchdog: turn protocol hangs into diagnosable failures.

Two complementary detectors:

* the **periodic stall check** (:meth:`LivenessWatchdog.check`) flags
  any L1 request or MSHR entry outstanding longer than a configurable
  cycle bound — it catches livelock and lost-message hangs while other
  devices keep the event queue busy;
* the **quiescence check** (:meth:`LivenessWatchdog.quiescence_check`,
  installed as :attr:`Engine.stall_check`) fires when the event queue
  drains while devices still have unfinished work — the classic
  dropped-response deadlock where the simulation would previously just
  return as if the run had completed.

Both raise :class:`DeadlockError` carrying the structured dump from
:mod:`repro.faults.diagnostics` instead of hanging or silently
truncating the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import SimulationError
from ..sim.lifetime import WeakAttribute
from .diagnostics import collect_diagnostic, format_diagnostic


class DeadlockError(SimulationError):
    """The system stopped making progress; ``diagnostic`` has the dump."""

    def __init__(self, message: str,
                 diagnostic: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


def system_busy(system) -> bool:
    """Does any layer still have unfinished protocol work?"""
    for core in system.cpus:
        if core.trace and not core.done:
            return True
    for cu in system.gpus:
        if cu.warps and not cu.done:
            return True
    for l1 in system.l1s.values():
        if l1._inflight or l1.outstanding():
            return True
    for home in system.homes:
        if home._txns or home._deferred or home._fetching:
            return True
    return False


class LivenessWatchdog:
    """Periodic auditor bounding how long any request may stay pending."""

    #: the audited system (it owns the watchdog, so held weakly)
    system = WeakAttribute()

    def __init__(self, system, stall_cycles: int = 400_000,
                 period: int = 0):
        self.system = system
        self.stall_cycles = stall_cycles
        self.period = period if period > 0 else max(1, stall_cycles // 4)
        self.checks = 0
        self._armed = False

    # -- wiring -----------------------------------------------------------
    def arm(self) -> None:
        """Start periodic stall checks on the system's engine."""
        if self._armed:
            return
        self._armed = True
        self.system.engine.schedule(self.period, self._tick, idle=True)

    def _tick(self) -> None:
        self.check()
        # Reschedule only while real protocol work is outstanding, so
        # the watchdog never keeps an otherwise-quiescent engine alive
        # (and never ping-pongs with other periodic auditors).
        if system_busy(self.system):
            self.system.engine.schedule(self.period, self._tick, idle=True)

    # -- detectors --------------------------------------------------------
    def stalled_entries(self) -> List[Dict[str, object]]:
        """Every request/MSHR entry older than the stall bound."""
        now = self.system.engine.now
        stalled: List[Dict[str, object]] = []
        for l1 in self.system.l1s.values():
            for req_id, entry in l1._inflight.items():
                age = now - entry.issued_at
                if age > self.stall_cycles:
                    stalled.append({
                        "device": l1.name, "kind": "request",
                        "req_id": req_id, "line": f"0x{entry.line:x}",
                        "purpose": entry.purpose, "age": age,
                    })
            for entry in l1.mshrs.stalled(now, self.stall_cycles):
                stalled.append({
                    "device": l1.name, "kind": "mshr",
                    "line": f"0x{entry.line:x}",
                    "requests": len(entry.all_requests()),
                    "age": now - entry.allocated_at,
                })
        return stalled

    def check(self) -> None:
        """Raise :class:`DeadlockError` if anything exceeded the bound."""
        self.checks += 1
        stalled = self.stalled_entries()
        if not stalled:
            return
        reason = (f"liveness watchdog: {len(stalled)} request(s) "
                  f"outstanding > {self.stall_cycles} cycles")
        diag = collect_diagnostic(self.system, reason, stalled)
        raise DeadlockError(
            f"{reason}\n{format_diagnostic(diag)}", diag)

    def quiescence_check(self) -> None:
        """Engine drained: devices must be done (Engine.stall_check)."""
        if not system_busy(self.system):
            return
        reason = ("no events pending but the system is not quiescent "
                  "(dropped message or lost wakeup)")
        diag = collect_diagnostic(self.system, reason)
        raise DeadlockError(
            f"deadlock: {reason}\n{format_diagnostic(diag)}", diag)
