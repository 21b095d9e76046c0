"""Schedule exploration over message-delivery interleavings.

The explorer replaces the timing network with
:class:`ControlledNetwork`: sends queue per point-to-point link (FIFO
order preserved — a protocol correctness assumption) and nothing is
delivered until the explorer picks a link head.  Between deliveries the
engine runs to quiescence, so a *schedule* is exactly the sequence of
delivery choices — a list of small integers — which makes schedules
replayable, shrinkable and enumerable.

Enumeration is stateless (CHESS-style): each schedule runs from a
fresh system, following a forced choice prefix and defaulting to
index 0 beyond it, while recording the branching factor met at every
choice point; sibling prefixes are generated from the record.  A
partial-order heuristic delivers messages that conflict with no other
pending message (different destination *and* different line) eagerly,
without a choice point — such deliveries commute with everything else
pending, so no distinguishable interleaving is lost.

Each litmus thread is the simulator's own
:class:`~repro.devices.cpu.CPUCore`, subclassed only to park its
stalls and spin misses until the drain loop wakes it, with its
completion log on.

Every explored schedule is checked four ways: all litmus threads ran
to completion (else deadlock), the invariant auditor's final audit,
final memory against the sequential reference image, and the per-load
SC-for-DRF value-legality pass (:mod:`repro.verify.legality`).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..analysis.invariants import InvariantChecker, InvariantViolation
from ..coherence.messages import Message, clone
from ..devices.cpu import CPUCore
from ..faults.diagnostics import collect_diagnostic
from ..faults.watchdog import DeadlockError
from ..network.noc import Network
from ..network.reliable import _RecvChannel
from ..sim.engine import SimulationError
from ..system.config import SystemConfig
from .legality import check_value_legality
from .systems import THREAD_NAMES, VerifySystem

#: scenario-spec keys forwarded to the litmus system's SystemConfig
_CONFIG_FIELDS = frozenset(f.name for f in fields(SystemConfig))

#: engine-event and delivery budgets: generous livelock backstops
EVENT_BUDGET = 2_000_000
DELIVERY_BUDGET = 20_000


class VerificationError(AssertionError):
    """A schedule-level check failed; ``diagnostic`` has the dump."""

    def __init__(self, message: str, diagnostic: Optional[Dict] = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


class MemoryMismatch(VerificationError):
    """Final memory diverged from the sequential reference image."""


class ValueLegalityError(VerificationError):
    """A load observed a value no SC-for-DRF execution can produce."""


class ControlledNetwork(Network):
    """A network whose deliveries are chosen by the explorer.

    ``send`` performs the same validation and traffic accounting as the
    timing network but queues the message on its (src, dst) link;
    ``deliver`` hands a link head to its endpoint one engine cycle
    later.  Per-link FIFO order is preserved by construction.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queues: Dict[Tuple[str, str], Deque[Tuple[int, Message]]] = {}
        #: monotone count of accepted sends (drain progress detection,
        #: and the per-message age stamp the canonical order sorts by)
        self.enqueued = 0
        self.delivered = 0
        #: optional tap fired at each delivery (coverage accounting)
        self.delivery_observer: Optional[Callable[[Message], None]] = None

    def send(self, msg: Message) -> None:
        if msg.dst not in self._endpoints:
            raise SimulationError(
                f"unknown destination {msg.dst!r} for {msg}")
        if msg.src not in self._endpoints:
            raise SimulationError(
                f"unknown source {msg.src!r} for {msg}")
        size = msg.size_bytes()
        self.stats.incr("network.messages")
        self.stats.incr("network.bytes", size)
        self.stats.incr_group("traffic.bytes", msg.traffic_class, size)
        self.stats.incr_group("traffic.messages", msg.traffic_class, 1)
        self._queues.setdefault((msg.src, msg.dst), deque()).append(
            (self.enqueued, msg))
        self.enqueued += 1

    def deliverable(self) -> List[Message]:
        """Link heads, oldest enqueue first.

        The canonical order is what makes a recorded choice index
        replayable.  Oldest-first also makes the default (index 0)
        schedule *fair*: a spinning driver keeps minting fresh requests,
        and a sorted-by-link order would let them starve an older
        pending message (e.g. a forwarded GetM) forever.
        """
        heads = [queue[0] for queue in self._queues.values() if queue]
        heads.sort(key=lambda entry: entry[0])
        return [msg for _seq, msg in heads]

    def deliver(self, msg: Message) -> None:
        queue = self._queues[(msg.src, msg.dst)]
        assert queue[0][1] is msg, "only link heads are deliverable"
        queue.popleft()
        self.delivered += 1
        if self.delivery_observer is not None:
            self.delivery_observer(msg)
        engine = self.engine
        tracer = engine.tracer
        receiver = self._receivers[msg.dst]
        for ready in self._released(msg):
            ready.sent_at = engine.now
            if tracer is not None:
                tracer.message_sent(ready, engine.now, engine.now + 1)
            engine.schedule(1, receiver, (ready,))

    def _released(self, msg: Message) -> List[Message]:
        """What delivering link head ``msg`` hands its endpoint."""
        return [msg]

    def pending(self) -> int:
        return self.enqueued - self.delivered

    def in_flight(self):
        """Queued messages, for deadlock diagnostics."""
        now = self.engine.now
        return [(now, msg) for _link, queue in sorted(self._queues.items())
                for _seq, msg in queue]


class UnreliableControlledNetwork(ControlledNetwork):
    """A controlled network whose links drop and duplicate on command.

    The explorer spends ``drop_budget`` / ``dup_budget`` at choice
    points it selects, so delivery faults land at *adversarial*
    schedule positions rather than random ones.  Wire arrivals route
    through the same :class:`repro.network.reliable._RecvChannel`
    dedupe/reorder logic production runs use, so upward delivery to the
    controllers stays exactly-once FIFO — what the litmus checks then
    prove is that the transport semantics really are transparent to the
    protocol at every schedule.

    A *drop* models loss + timeout retransmit collapsed into one step:
    the head copy vanishes and its retransmission (same sequence
    number) re-enters at the link tail, letting every queued message
    overtake it.  A *dup* leaves the head in place and appends a second
    copy at the tail.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._send_seq: Dict[Tuple[str, str], int] = {}
        self._recv_channels: Dict[Tuple[str, str], _RecvChannel] = {}
        self.drop_budget = 0
        self.dup_budget = 0
        self.transport_drops = 0
        self.transport_dups = 0

    def send(self, msg: Message) -> None:
        key = (msg.src, msg.dst)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        msg.meta["vseq"] = seq
        super().send(msg)

    def fault_actions(self) -> List[str]:
        actions = ["deliver"]
        if self.drop_budget > 0:
            actions.append("drop")
        if self.dup_budget > 0:
            actions.append("dup")
        return actions

    def drop_head(self, msg: Message) -> None:
        queue = self._queues[(msg.src, msg.dst)]
        assert queue[0][1] is msg, "only link heads are droppable"
        queue.popleft()
        retx = clone(msg)
        queue.append((self.enqueued, retx))
        self.enqueued += 1
        self.drop_budget -= 1
        self.transport_drops += 1
        self.stats.incr("transport.retransmits")

    def dup_head(self, msg: Message) -> None:
        queue = self._queues[(msg.src, msg.dst)]
        assert queue[0][1] is msg, "only link heads are duplicable"
        twin = clone(msg)
        queue.append((self.enqueued, twin))
        self.enqueued += 1
        self.dup_budget -= 1
        self.transport_dups += 1

    def _released(self, msg: Message) -> List[Message]:
        """The receive channel's in-order run that ``msg`` completes
        (empty for a duplicate or an arrival ahead of a gap)."""
        seq = msg.meta.get("vseq")
        if seq is None:
            return [msg]
        channel = self._recv_channels.get((msg.src, msg.dst))
        if channel is None:
            channel = self._recv_channels[(msg.src, msg.dst)] = \
                _RecvChannel()
        ready, verdict = channel.admit(seq, msg)
        if verdict == "dup":
            self.stats.incr("transport.dup_dropped")
        elif verdict == "buffer":
            self.stats.incr("transport.reorder_buffered")
        return ready


def _conflict(a: Message, b: Message) -> bool:
    return a.dst == b.dst or a.line == b.line


class _ForcedNacks:
    """Deterministic stand-in for the fault injector's Nack hook.

    On a per-link-FIFO network the §III-C.3 owner-departed Nack leg is
    unreachable through protocol action alone (every departure
    notification is FIFO-ordered behind the forward), so scenarios opt
    in via ``force_nacks: N`` and the home rejects the first N eligible
    ReqVs — exercising the requestor's retry/escalation path on every
    schedule.
    """

    def __init__(self, count: int):
        self.remaining = count

    def should_nack(self, msg: Message) -> bool:
        if self.remaining > 0:
            self.remaining -= 1
            return True
        return False


class LitmusDriver(CPUCore):
    """The simulator's CPU core, *parking* instead of polling.

    :class:`~repro.devices.cpu.CPUCore` waits out structural stalls and
    spin misses on a timer; under the controlled network that
    busy-wait would keep the engine from ever draining.  This subclass
    replaces the core's one wait hook, ``_stall``, to park the
    resumption in ``_wake``, and the explorer's drain loop wakes it
    between deliveries.  Its completion ``log`` feeds the
    value-legality pass.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []
        self._wake: Optional[Tuple[Callable[..., None], tuple]] = None
        self._stall = self._park

    def _park(self, delay: int, resume: Callable[..., None],
              args: tuple = ()) -> None:
        self._wake = (resume, args)

    @property
    def parked(self) -> bool:
        return self._wake is not None

    def wake(self) -> None:
        wake, self._wake = self._wake, None
        if wake is not None:
            resume, args = wake
            resume(*args)


# ---------------------------------------------------------------------
# choosers
# ---------------------------------------------------------------------
class PrefixChooser:
    """Follow a forced prefix, default to 0 beyond; record everything."""

    def __init__(self, prefix: Optional[List[int]] = None):
        self.prefix = list(prefix or [])
        self.record: List[int] = []
        self.branching: List[int] = []

    def choose(self, n: int) -> int:
        pos = len(self.record)
        index = self.prefix[pos] if pos < len(self.prefix) else 0
        if index >= n:       # a shrunk prefix may overshoot; clamp
            index = 0
        self.record.append(index)
        self.branching.append(n)
        return index

    def describe(self) -> Dict[str, object]:
        return {"mode": "prefix", "choices": list(self.prefix)}


class RandomChooser:
    """Seeded uniform choice at every point; records for replay."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.record: List[int] = []
        self.branching: List[int] = []

    def choose(self, n: int) -> int:
        index = self.rng.randrange(n)
        self.record.append(index)
        self.branching.append(n)
        return index

    def describe(self) -> Dict[str, object]:
        return {"mode": "walk", "seed": self.seed}


# ---------------------------------------------------------------------
# one schedule
# ---------------------------------------------------------------------
@dataclass
class ScheduleRun:
    """What one explored schedule produced (for checks and coverage)."""

    system: VerifySystem
    drivers: List[LitmusDriver]
    choices: List[int]
    branching: List[int]
    deliveries: int


def _drain(system: VerifySystem, drivers: List[LitmusDriver]) -> None:
    """Run to quiescence, waking parked drivers until none progress.

    A woken spinner that re-reads a stale local copy re-parks without
    advancing anything; one that sends a request changes the enqueued
    count.  Progress = ops executed, messages enqueued, or the parked
    set changed.
    """
    engine, network = system.engine, system.network
    engine.run(max_events=EVENT_BUDGET)
    while True:
        parked = [d for d in drivers if d.parked]
        if not parked:
            return
        before = (tuple(d.ops_executed for d in drivers),
                  network.enqueued,
                  frozenset(d.name for d in parked))
        for driver in parked:
            driver.wake()
        engine.run(max_events=EVENT_BUDGET)
        after = (tuple(d.ops_executed for d in drivers),
                 network.enqueued,
                 frozenset(d.name for d in drivers if d.parked))
        if after == before:
            return


def run_schedule(scenario, config_name: str, chooser=None, *,
                 coverage=None, trace: bool = False,
                 context: Optional[Dict[str, object]] = None,
                 on_system: Optional[Callable[[VerifySystem], None]] = None,
                 check_legality: bool = True) -> ScheduleRun:
    """Run one litmus scenario under one delivery schedule and check it.

    Raises :class:`DeadlockError`, :class:`InvariantViolation`,
    :class:`MemoryMismatch` or :class:`ValueLegalityError` on failure;
    plain :class:`SimulationError` if the protocol itself objects.
    """
    chooser = chooser or PrefixChooser()
    spec = scenario.spec()
    verify_drops = spec.get("verify_drops", 0)
    verify_dups = spec.get("verify_dups", 0)
    unreliable = bool(verify_drops or verify_dups)
    network_cls = UnreliableControlledNetwork if unreliable \
        else ControlledNetwork
    system = VerifySystem(config_name, network_cls=network_cls,
                          trace=trace,
                          **{key: value for key, value in spec.items()
                             if key in _CONFIG_FIELDS})
    if unreliable:
        system.network.drop_budget = verify_drops
        system.network.dup_budget = verify_dups
    system.verify_context = dict(context or {})
    system.verify_context.setdefault("scenario", scenario.name)
    system.verify_context.setdefault("config", config_name)
    system.verify_context.update(chooser.describe())
    if on_system is not None:
        on_system(system)
    force_nacks = spec.get("force_nacks", 0)
    if force_nacks:
        for home in system.homes:
            if getattr(home, "FORCED_NACK_FAMILIES", ()):
                home.fault_injector = _ForcedNacks(force_nacks)
    initial: Dict[int, int] = spec.get("initial", {})
    by_line: Dict[int, Dict[int, int]] = {}
    for addr, value in initial.items():
        by_line.setdefault(addr & ~63, {})[(addr >> 2) & 15] = value
    for line, values in by_line.items():
        system.seed(line, values)
    if coverage is not None:
        coverage.attach(system)
    drivers = [LitmusDriver(system.engine, name, system.l1s[name],
                            system.stats, spec["threads"].get(name, []))
               for name in THREAD_NAMES]
    for driver in drivers:
        driver.start()

    network = system.network
    deliveries = 0
    while True:
        _drain(system, drivers)
        messages = network.deliverable()
        if not messages:
            break
        if deliveries > DELIVERY_BUDGET:
            raise DeadlockError(
                f"delivery budget exceeded ({deliveries} deliveries)",
                collect_diagnostic(system, "verify: delivery budget"))
        actions = network.fault_actions() if unreliable else ["deliver"]
        if len(actions) > 1:
            # fault budget remains: every head is a potential drop/dup
            # site, so POR pruning would hide schedules — suspend it
            # until the budget is spent
            eager: List[Message] = []
        else:
            # Partial-order pruning: heads conflicting with no other
            # head commute with everything pending — deliver them
            # without a choice point.  Conflicting heads must still
            # make progress in the SAME iteration (a spinning driver
            # can mint fresh non-conflicting messages forever and
            # starve them otherwise).
            eager = [m for m in messages
                     if not any(_conflict(m, other) for other in messages
                                if other is not m)]
        for msg in eager:
            network.deliver(msg)
        deliveries += len(eager)
        conflicted = [m for m in messages if m not in eager]
        if conflicted:
            space = len(conflicted) * len(actions)
            index = chooser.choose(space) if space > 1 else 0
            msg = conflicted[index % len(conflicted)]
            action = actions[index // len(conflicted)]
            if action == "drop":
                network.drop_head(msg)
            elif action == "dup":
                network.dup_head(msg)
            else:
                network.deliver(msg)
                deliveries += 1

    run = ScheduleRun(system, drivers, list(chooser.record),
                      list(chooser.branching), deliveries)
    _check_run(scenario, run, initial, check_legality)
    return run


def _check_run(scenario, run: ScheduleRun, initial: Dict[int, int],
               check_legality: bool) -> None:
    system, drivers = run.system, run.drivers
    stuck = [d.name for d in drivers if not d.done]
    if stuck:
        raise DeadlockError(
            f"litmus threads {stuck} never completed",
            collect_diagnostic(system, "verify: stuck litmus threads"))
    InvariantChecker(system).audit(final=True)
    reference = scenario.reference()
    for addr in sorted(set(reference.memory) | set(initial)):
        expected = reference.memory.get(addr, initial.get(addr, 0))
        actual = system.read_coherent(addr)
        if actual != expected:
            raise MemoryMismatch(
                f"word 0x{addr:x}: simulated {actual} != "
                f"reference {expected}",
                collect_diagnostic(system, "verify: memory mismatch"))
    if check_legality:
        violations = check_value_legality(scenario, drivers, initial)
        if violations:
            raise ValueLegalityError(
                "; ".join(violations[:3]),
                collect_diagnostic(system, "verify: illegal load value"))


# ---------------------------------------------------------------------
# exploration drivers
# ---------------------------------------------------------------------
@dataclass
class ScheduleFailure:
    """One failing schedule, replayable from its fields alone."""

    scenario: str
    config: str
    choices: List[int]
    kind: str
    message: str
    seed: Optional[int] = None
    diagnostic: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"scenario": self.scenario, "config": self.config,
                "choices": list(self.choices), "kind": self.kind,
                "message": self.message, "seed": self.seed}


@dataclass
class ExplorationResult:
    schedules: int = 0
    deliveries: int = 0
    complete: bool = True
    failures: List[ScheduleFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


FAILURE_KINDS = (DeadlockError, InvariantViolation, VerificationError,
                 SimulationError)


def _classify(exc: BaseException) -> str:
    return type(exc).__name__


def _attempt(scenario, config_name: str, chooser, coverage,
             result: ExplorationResult,
             seed: Optional[int] = None) -> Optional[ScheduleFailure]:
    try:
        run = run_schedule(scenario, config_name, chooser,
                           coverage=coverage)
    except FAILURE_KINDS as exc:
        failure = ScheduleFailure(
            scenario=scenario.name, config=config_name,
            choices=list(chooser.record), kind=_classify(exc),
            message=str(exc), seed=seed,
            diagnostic=getattr(exc, "diagnostic", None) or {})
        result.failures.append(failure)
        return failure
    result.deliveries += run.deliveries
    return None


class DfsExplorer:
    """Bounded stateless DFS over delivery choices with POR pruning."""

    def __init__(self, max_schedules: int = 256, stop_on_failure: bool = True):
        self.max_schedules = max_schedules
        self.stop_on_failure = stop_on_failure

    def explore(self, scenario, config_name: str,
                coverage=None) -> ExplorationResult:
        result = ExplorationResult()
        stack: List[List[int]] = [[]]
        while stack:
            if result.schedules >= self.max_schedules:
                result.complete = False
                break
            prefix = stack.pop()
            chooser = PrefixChooser(prefix)
            result.schedules += 1
            failure = _attempt(scenario, config_name, chooser, coverage,
                               result)
            if failure is not None and self.stop_on_failure:
                result.complete = False
                break
            # new choice points discovered past the forced prefix spawn
            # sibling prefixes (each generated exactly once)
            for pos in range(len(prefix), len(chooser.branching)):
                for alt in range(1, chooser.branching[pos]):
                    stack.append(chooser.record[:pos] + [alt])
        return result


class RandomWalkExplorer:
    """Seeded random walks for scenarios too big to enumerate."""

    def __init__(self, seeds: range = range(16),
                 stop_on_failure: bool = True):
        self.seeds = seeds
        self.stop_on_failure = stop_on_failure

    def explore(self, scenario, config_name: str,
                coverage=None) -> ExplorationResult:
        result = ExplorationResult()
        for seed in self.seeds:
            chooser = RandomChooser(seed)
            result.schedules += 1
            failure = _attempt(scenario, config_name, chooser, coverage,
                               result, seed=seed)
            if failure is not None and self.stop_on_failure:
                result.complete = False
                break
        return result


def replay_schedule(scenario, config_name: str, choices: List[int],
                    **kwargs) -> ScheduleRun:
    """Re-run a recorded (or shrunk) schedule deterministically."""
    return run_schedule(scenario, config_name, PrefixChooser(choices),
                        **kwargs)


def shrink_failure(scenario, config_name: str, choices: List[int],
                   max_attempts: int = 200) -> List[int]:
    """Greedy shrink: truncate, then zero choices, while still failing."""
    attempts = 0

    def still_fails(candidate: List[int]) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        try:
            run_schedule(scenario, config_name, PrefixChooser(candidate))
        except FAILURE_KINDS:
            return True
        return False

    best = list(choices)
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for cut in range(len(best)):
            if still_fails(best[:cut]):
                best = best[:cut]
                improved = True
                break
        for pos, value in enumerate(best):
            if value and still_fails(best[:pos] + [0] + best[pos + 1:]):
                best = best[:pos] + [0] + best[pos + 1:]
                improved = True
    while best and best[-1] == 0:
        best.pop()
    return best
