"""Runtime protocol-invariant checking.

Attach an :class:`InvariantChecker` to a built system and it audits the
global coherence state on a fixed cycle period (and once at
quiescence), raising :class:`InvariantViolation` with a precise
description when any of these break:

* **single writer** — a word is in a writable state (DeNovo O, MESI
  M/E) in at most one cache, and then the home records that cache as
  the owner;
* **owner recorded implies data somewhere** — every word the home
  records as owned is either present writable at the owner or covered
  by an in-flight write-back;
* **inclusivity** — lines with owned words are resident at the home;
* **sharer soundness** — a cache holding MESI S state for a line is in
  the home's sharer list while the line is in Shared state (so writer
  invalidation can reach it);
* **value agreement at quiescence** — for every unowned resident word,
  all Valid/Shared copies and the home agree on the value.

The checker is O(total cache lines) per audit, so it is a debug tool:
tests enable it, benchmark runs don't.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.home import HomeState, SpandexHome
from ..faults.diagnostics import collect_diagnostic
from ..protocols.denovo import DeNovoL1, DnState
from ..protocols.gpu_coherence import GPUCoherenceL1, GpuState
from ..protocols.mesi import MESIL1, MesiState


class InvariantViolation(AssertionError):
    """A coherence invariant did not hold.

    ``diagnostic`` (when present) is the same structured dump the
    liveness watchdog produces — every device's in-flight requests and
    MSHRs, home transients, undelivered messages, and a cross-section
    of the implicated lines.
    """

    def __init__(self, message: str,
                 diagnostic: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.diagnostic = diagnostic


@dataclass
class MismatchRecord:
    """One owner/holder disagreement observed during an audit."""

    detail: str
    owner: str
    holders: List[str]
    first_cycle: int
    first_audit: int


class InvariantChecker:
    """Periodic global-state auditor for a built System.

    ``on_violation`` (if set) is called with the
    :class:`InvariantViolation` — its ``diagnostic`` attribute already
    populated — right before it is raised; use it to log or persist the
    dump in harnesses that catch the exception far from the failure.
    """

    def __init__(self, system, period: int = 500,
                 on_violation: Optional[
                     Callable[[InvariantViolation], None]] = None):
        self.system = system
        self.period = period
        self.on_violation = on_violation
        self.audits = 0
        self._armed = False
        #: owner/holder mismatches seen last audit: a mismatch is legal
        #: while an ownership transfer is in flight (the home records
        #: the future owner before the old owner's downgrade arrives),
        #: but the same mismatch persisting across audits is a bug.
        self._pending_mismatches: Dict[Tuple[int, int], MismatchRecord] = {}

    # -- failure path -------------------------------------------------------
    def _raise(self, message: str) -> None:
        """Raise an :class:`InvariantViolation` with a structured dump."""
        try:
            diagnostic = collect_diagnostic(
                self.system, reason=f"invariant violation: {message}")
        except Exception:           # diagnostics must never mask the bug
            diagnostic = None
        error = InvariantViolation(message, diagnostic=diagnostic)
        if self.on_violation is not None:
            self.on_violation(error)
        raise error

    # -- wiring -----------------------------------------------------------
    def arm(self) -> None:
        """Start periodic audits on the system's engine."""
        if self._armed:
            return
        self._armed = True
        if self.system.engine.pending() == 0:
            # armed before the devices start (e.g. ahead of System.run):
            # audit once they have, or the empty queue ends the audits
            self.system.engine.schedule(0, self._tick, idle=True)
            return
        self._tick()

    def _tick(self) -> None:
        self.audit(final=False)
        if self.system.engine.pending() > 0:
            self.system.engine.schedule(self.period, self._tick, idle=True)

    # -- helpers -----------------------------------------------------------
    def _writable_holders(self) -> Dict[Tuple[int, int], List[str]]:
        """(line, word) -> caches holding it writable."""
        holders: Dict[Tuple[int, int], List[str]] = {}
        for l1 in self.system.l1s.values():
            for resident in l1.array.lines():
                if isinstance(l1, DeNovoL1):
                    for index, state in enumerate(resident.word_states):
                        if state == DnState.O:
                            holders.setdefault(
                                (resident.line, index), []).append(l1.name)
                elif isinstance(l1, MESIL1):
                    if resident.state in (MesiState.M, MesiState.E):
                        for index in range(16):
                            holders.setdefault(
                                (resident.line, index), []).append(l1.name)
        return holders

    def _homes(self):
        """The Spandex-style homes (the MESI directory is not audited)."""
        return [home for home in self.system.homes
                if isinstance(home, SpandexHome)]

    def _home_of(self, l1, line: int) -> Optional[object]:
        """The home auditing ``line`` for ``l1`` (a shard when sharded)."""
        target = l1.home_for(line)
        for home in self._homes():
            if home.name == target:
                return home
        return None

    # -- the audit ---------------------------------------------------------
    def audit(self, final: bool) -> None:
        self.audits += 1
        self._check_single_writer()
        self._check_home_ownership(final=final)
        self._check_sharer_soundness()
        if final:
            self._check_value_agreement()

    def _check_single_writer(self) -> None:
        for (line, index), holders in self._writable_holders().items():
            if len(holders) > 1:
                self._raise(
                    f"word 0x{line:x}[{index}] writable in multiple "
                    f"caches: {holders}")

    def _transfer_trail(self, key: Tuple[int, int],
                        record: MismatchRecord,
                        holders_now: List[str]) -> str:
        """Describe the stuck ownership transfer for the violation text.

        The full machine dump rides on the exception's ``diagnostic``;
        this inline trail gives the reader the transfer-specific story:
        when the mismatch was first observed, how the holder set
        evolved, and which transients/messages still reference the
        line.
        """
        line, _ = key
        now = self.system.engine.now
        parts = [f"first seen at cycle {record.first_cycle} "
                 f"(audit {record.first_audit}), still present at cycle "
                 f"{now} (audit {self.audits})",
                 f"holders then {record.holders}, now {holders_now}"]
        for home in self._homes():
            txns = [f"txn {t.txn_id} {t.kind} acks={t.acks_needed} "
                    f"data_mask=0x{t.data_mask:04x}"
                    for t in home._txns.values() if t.line == line]
            deferred = len(home._deferred.get(line, ()))
            if txns or deferred:
                parts.append(f"{home.name}: {'; '.join(txns) or 'no txn'}"
                             f", {deferred} deferred message(s)")
        msgs = [repr(msg) for _, msg in self.system.network.in_flight()
                if msg.line == line]
        if msgs:
            parts.append("in flight: " + ", ".join(msgs[:8]))
        else:
            parts.append("no messages in flight for the line")
        return " | ".join(parts)

    def _transport_recovering(self, line: int) -> bool:
        """Whether the reliable-transport sublayer still holds
        undelivered carriers for ``line`` — unacked messages waiting
        out a retransmit timer, or arrivals parked in a receiver
        reorder buffer behind a lost predecessor.

        A mismatch whose carrier was dropped by an unreliable fabric
        is *recovering*, not stuck: recovery latency (rto with capped
        exponential backoff) legitimately exceeds the audit period, so
        escalation defers to the transport's own dead-link deadline and
        the liveness watchdog.  On a plain :class:`Network` (no
        transport) this is always False and escalation is immediate.
        """
        network = self.system.network
        unacked = getattr(network, "unacked_messages", None)
        if unacked is None:
            return False
        if any(msg.line == line for msg in unacked()):
            return True
        return any(msg.line == line
                   for msg in network.buffered_messages())

    def _check_home_ownership(self, final: bool = False) -> None:
        holders = self._writable_holders()
        fresh_mismatches: Dict[Tuple[int, int], MismatchRecord] = {}
        for home in self._homes():
            for resident in home.array.lines():
                owned = 0
                for index, owner in enumerate(resident.owner):
                    if owner is None:
                        continue
                    owned |= 1 << index
                    # inclusivity: the owned line is resident (trivially
                    # true here) and pinned against eviction
                    if not resident.pinned:
                        self._raise(
                            f"{home.name}: owned line 0x{resident.line:x}"
                            " is not pinned")
                    key = (resident.line, index)
                    caches = holders.get(key, [])
                    if caches and caches != [owner]:
                        detail = (f"{home.name}: word 0x{resident.line:x}"
                                  f"[{index}] owner recorded as {owner} "
                                  f"but held writable by {caches}")
                        if final:
                            self._raise(detail)
                        previous = self._pending_mismatches.get(key)
                        if previous is not None and \
                                previous.detail == detail:
                            if not self._transport_recovering(
                                    resident.line):
                                self._raise(
                                    detail + " (persisted across audits;"
                                    " ownership transfer stuck: "
                                    + self._transfer_trail(key, previous,
                                                           caches) + ")")
                            # carrier lost on an unreliable wire and
                            # still being recovered by the transport:
                            # keep the record (first_cycle intact) and
                            # re-check next audit
                            fresh_mismatches[key] = previous
                        else:
                            fresh_mismatches[key] = MismatchRecord(
                                detail=detail, owner=owner,
                                holders=list(caches),
                                first_cycle=self.system.engine.now,
                                first_audit=self.audits)
                if resident.owned != owned:
                    self._raise(
                        f"{home.name}: line 0x{resident.line:x} owned mask "
                        f"0x{resident.owned:04x} but owners recorded on "
                        f"0x{owned:04x}")
                if owned and resident.state == HomeState.S:
                    self._raise(
                        f"{home.name}: line 0x{resident.line:x} has "
                        "owned words while in Shared state")
        self._pending_mismatches = fresh_mismatches

    def _check_sharer_soundness(self) -> None:
        """Every stable MESI S copy must be reachable by invalidation:
        either its home line is in S with the cache listed as a sharer,
        or an invalidation/transition for the line is still in flight
        (home blocked or L1 transient)."""
        for l1 in self.system.l1s.values():
            if not isinstance(l1, MESIL1):
                continue
            for resident in l1.array.lines():
                if resident.state != MesiState.S:
                    continue
                home = self._home_of(l1, resident.line)
                if home is None:  # hierarchical MESI L1s talk to the dir
                    continue
                home_line = home.array.lookup(resident.line, touch=False)
                if home_line is None:
                    self._raise(
                        f"{l1.name}: S copy of 0x{resident.line:x} but "
                        f"the line is absent at {home.name}")
                blocked = bool(home_line.meta.get("blocked_mask"))
                sharers = home_line.meta.get("sharers", set())
                if home_line.state == HomeState.S and \
                        l1.name not in sharers and not blocked:
                    self._raise(
                        f"{l1.name}: unrecorded sharer of "
                        f"0x{resident.line:x}")

    def _check_value_agreement(self) -> None:
        for home in self._homes():
            for resident in home.array.lines():
                for index in range(16):
                    if resident.owner[index] is not None:
                        continue
                    expected = resident.data[index]
                    for l1 in self.system.l1s.values():
                        if self._home_of(l1, resident.line) is not home:
                            continue
                        copy = l1.array.lookup(resident.line, touch=False)
                        if copy is None:
                            continue
                        if isinstance(l1, MESIL1) and \
                                copy.state == MesiState.S:
                            if copy.data[index] != expected:
                                self._raise(
                                    f"{l1.name}: stale S value at "
                                    f"0x{resident.line:x}[{index}]: "
                                    f"{copy.data[index]} != {expected}")


def check_final_state(system) -> None:
    """One-shot audit after quiescence (value agreement included)."""
    checker = InvariantChecker(system)
    checker.audit(final=True)
