"""Discrete-event simulation kernel.

The whole system runs on a single :class:`Engine`: components schedule
callbacks at integer cycle timestamps, and the engine executes them in
(time, insertion-order) order so runs are fully deterministic.

The queue is a **calendar**: a dict from each due time to that time's
entries, in the order they were scheduled, plus a heap of the distinct
due times.  Scheduling appends to a bucket (pushing the time onto the
heap only when the bucket is new); the run loop takes the earliest
bucket and walks it front to back.  A zero-delay event scheduled while
a bucket runs is appended to that same bucket, so it runs after every
event already due this cycle — same-cycle FIFO order with no special
case.

An entry is a plain ``[callback, args, idle]`` list and is also the
handle :meth:`Engine.schedule` returns.  :meth:`Engine.cancel` clears
its callback slot in O(1); the run loop clears the slot of every entry
it takes, so cancelling twice, or after the event ran or was dropped,
is a no-op.  Cancelled entries stay in their bucket until it runs.

``idle`` entries are housekeeping (watchdog ticks, periodic audits):
they run only while non-idle work remains queued, so they never keep an
otherwise-quiescent simulation alive or stretch its measured length.

Live-event counts are O(1): :meth:`Engine.pending` and
:meth:`Engine.pending_non_idle` are differences of four counters
(scheduled, executed, retired unexecuted, live idle).  Per event the
run loop writes only the entry's callback slot and ``events_executed``;
it stores the count before the callback, so the running event is no
longer pending and observers sampling mid-run (the health monitor)
read a current count.

Components never see the calendar: they read the plain ``engine.now``
attribute (the run loop writes it) and call :meth:`Engine.schedule`,
:meth:`Engine.cancel` and :meth:`Engine.run`; diagnostics may list
the live queued events with :meth:`Engine.queued`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

#: the ``max_events`` stand-in when no event budget is given
_NO_BUDGET = 1 << 62


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Engine:
    """Deterministic discrete-event scheduler with integer cycle time."""

    def __init__(self):
        #: due time -> entries due then, in scheduling order
        self._buckets: Dict[int, List[list]] = {}
        #: heap of the distinct due times in ``_buckets``
        self._times: List[int] = []
        #: current simulation time in cycles; only the run loop writes it
        self.now = 0
        self._running = False
        #: entries ever scheduled / executed / retired unexecuted
        #: (cancelled while queued, or dropped as idle housekeeping);
        #: ``events_executed`` is current mid-run, too
        self._scheduled = 0
        self.events_executed = 0
        self._retired = 0
        #: queued, non-cancelled ``idle`` entries
        self._idle_live = 0
        #: called when the queue drains (end of run): a liveness
        #: watchdog installs its quiescence check here so a dropped
        #: message raises instead of returning a truncated run.
        self.stall_check: Optional[Callable[[], None]] = None
        #: optional :class:`repro.obs.TraceRecorder`.  Components reach
        #: it as ``self.engine.tracer`` and must guard every trace
        #: point with ``is not None`` — when unset (the default) the
        #: hot path pays one attribute load and nothing else, and the
        #: recorder itself never schedules events, so tracing cannot
        #: perturb the simulation.
        self.tracer = None

    def schedule(self, delay: int, callback: Callable[..., None],
                 args: tuple = (), idle: bool = False) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        Returns the entry, which :meth:`cancel` accepts.  ``idle``
        marks housekeeping that is dropped once only idle events remain.
        """
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} for "
                f"{getattr(callback, '__qualname__', callback)!r}")
        time = self.now + delay
        entry = [callback, args, idle]
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [entry]
            heappush(self._times, time)
        else:
            bucket.append(entry)
        self._scheduled += 1
        if idle:
            self._idle_live += 1
        return entry

    def cancel(self, entry: list) -> None:
        """Stop a queued entry from running; a no-op once it has left
        the queue (ran, was dropped, or was already cancelled)."""
        if entry[0] is None:
            return
        entry[0] = None
        self._retired += 1
        if entry[2]:
            self._idle_live -= 1

    # -- queue accounting --------------------------------------------------
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._scheduled - self.events_executed - self._retired

    def pending_non_idle(self) -> int:
        """Live events that are real work (not ``idle`` housekeeping)."""
        return self.pending() - self._idle_live

    def queued(self) -> List[tuple]:
        """Live queued events as ``(due time, callback, args)``, in run
        order.  A cold scan of the whole calendar, for diagnostics."""
        buckets = self._buckets
        return [(time, callback, args)
                for time in sorted(buckets)
                for callback, args, _ in buckets[time]
                if callback is not None]

    def _drop_idle(self) -> None:
        """Retire every queued entry: only idle housekeeping is left."""
        for bucket in self._buckets.values():
            for entry in bucket:
                entry[0] = None
        self._retired += self._idle_live
        self._idle_live = 0
        self._buckets.clear()
        self._times.clear()

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None,
            max_cycles: Optional[int] = None) -> int:
        """Run events until the queue drains.

        ``until`` bounds simulated time; ``max_events`` bounds executed
        events and ``max_cycles`` bounds simulated cycles (safety
        limits against protocol livelock — both raise a clear
        :class:`SimulationError` instead of looping forever).  The
        ``max_events`` budget only raises while live non-idle work
        remains: a run whose final event drained the queue completed
        legitimately and returns normally.  Returns the simulation time
        when the run stopped.

        When ``until`` is given, time always advances to ``until`` even
        if the queue drains earlier, so a caller that resumes the engine
        later observes the quiescent interval as elapsed time rather
        than scheduling "future" work in the past.
        """
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        buckets = self._buckets
        times = self._times
        budget = _NO_BUDGET if max_events is None else max_events
        executed = self.events_executed
        try:
            while times:
                time = times[0]
                bucket = buckets[time]
                head = bucket[0]
                if head[0] is None or head[2]:
                    # cancelled entries must not advance time or trip a
                    # stop, and an idle head may be droppable
                    live = 0
                    while live < len(bucket) and bucket[live][0] is None:
                        live += 1
                    if live == len(bucket):
                        del buckets[time]
                        heappop(times)
                        continue
                    del bucket[:live]
                    if self.pending_non_idle() == 0:
                        self._drop_idle()
                        break
                if until is not None and time > until:
                    break
                if max_cycles is not None and time > max_cycles:
                    raise SimulationError(
                        f"cycle budget exhausted ({max_cycles}); "
                        "possible protocol livelock")
                self.now = time
                cursor = iter(bucket)
                try:
                    for entry in cursor:
                        callback, args, idle = entry
                        if callback is None:
                            continue
                        entry[0] = None
                        if idle:
                            if self.pending_non_idle() == 0:
                                # only housekeeping remains: drop it
                                self._idle_live -= 1
                                self._retired += 1
                                continue
                            self._idle_live -= 1
                        # counted on entry, so a running event is
                        # neither pending nor missing from the count
                        executed += 1
                        self.events_executed = executed
                        callback(*args)
                        if executed >= budget and \
                                self.pending_non_idle() > 0:
                            break
                    else:
                        del buckets[time]
                        heappop(times)
                        continue
                except BaseException:
                    # the raising event left the queue but did not run
                    # to completion: retire it uncounted
                    self.events_executed = executed - 1
                    self._retired += 1
                    self._keep_unrun(time, cursor)
                    raise
                self._keep_unrun(time, cursor)
                raise SimulationError(
                    f"event budget exhausted ({max_events}); "
                    "possible protocol livelock")
            if not times and self.stall_check is not None:
                self.stall_check()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now

    def _keep_unrun(self, time: int, cursor) -> None:
        """Trim the run part of an interrupted bucket for a resume."""
        bucket = self._buckets[time]
        del bucket[:len(bucket) - cursor.__length_hint__()]
        if not bucket:
            del self._buckets[time]
            heappop(self._times)


class Component:
    """Base class for anything that lives on the engine.

    Subclasses get a ``name`` for diagnostics and ``schedule`` — the
    engine's own bound method, so scheduling through a component costs
    no extra call.  They read the time as ``self.engine.now``.
    """

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self.schedule = engine.schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
