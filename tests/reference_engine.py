"""Reference (seed) simulation kernel, the oracle for differential checks.

This module preserves the *seed* event-loop algorithm — a heap of
:class:`ReferenceEvent` objects compared through ``__lt__`` plus a
linear ``any()`` rescan of the whole heap on every idle pop — behind
the same API as the optimized :class:`repro.sim.engine.Engine`: plain
``now`` and ``events_executed`` attributes, ``idle`` flags,
``args``-carrying events, ``cancel`` and ``pending_non_idle``.

Two test modules use it:

* ``tests/property/test_kernel_equivalence.py`` swaps it into the
  system builder and asserts that runs are cycle- and memory-identical
  to the optimized kernel on every configuration, then runs both
  engines through one event-churn schedule in one process, a
  machine-independent measure of the speedup;
* ``tests/property/test_engine_queue.py`` plays random schedules
  (cancels, idle flags, nested scheduling, raising callbacks, stops and
  resumes) on both and compares every observation.

The scheduler bug fixes that shipped with the first kernel overhaul are
applied here too (``max_events`` only raising while live non-idle work
remains, counter-accurate ``pending``), and an event counts as executed
from the moment its callback starts unless that callback raises, so the
two kernels are semantically identical and only the algorithm differs.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.sim.engine import SimulationError


class ReferenceEvent:
    """Seed-style event: lives in the heap, compared via ``__lt__``."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "idle")

    def __init__(self, time: int, seq: int, callback: Callable[..., None],
                 args: tuple = (), idle: bool = False):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.idle = idle

    def __lt__(self, other: "ReferenceEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceEngine:
    """Drop-in engine with the seed O(E*H) idle-rescan event loop."""

    def __init__(self):
        self._heap: List[ReferenceEvent] = []
        self._seq = 0
        self.now = 0
        self.events_executed = 0
        self._running = False
        self.stall_check: Optional[Callable[[], None]] = None
        self.tracer = None

    def schedule(self, delay: int, callback: Callable[..., None],
                 args: tuple = (), idle: bool = False) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(
                f"negative delay {delay} for "
                f"{getattr(callback, '__qualname__', callback)!r}")
        event = ReferenceEvent(self.now + delay, self._seq, callback,
                               args, idle)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event: ReferenceEvent) -> None:
        event.cancelled = True

    def pending(self) -> int:
        """Live events still queued — the seed's O(heap) scan."""
        return sum(1 for e in self._heap if not e.cancelled)

    def pending_non_idle(self) -> int:
        return sum(1 for e in self._heap
                   if not e.cancelled and not e.idle)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None,
            max_cycles: Optional[int] = None) -> int:
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        heap = self._heap
        try:
            while heap:
                event = heapq.heappop(heap)
                if event.cancelled:
                    continue
                if event.idle and not any(
                        not e.cancelled and not e.idle for e in heap):
                    # the seed behaviour the overhaul made O(1): a full
                    # heap rescan deciding whether housekeeping may run
                    continue
                if until is not None and event.time > until:
                    heapq.heappush(heap, event)
                    break
                if max_cycles is not None and event.time > max_cycles:
                    heapq.heappush(heap, event)
                    raise SimulationError(
                        f"cycle budget exhausted ({max_cycles}); "
                        "possible protocol livelock")
                self.now = event.time
                self.events_executed += 1
                try:
                    event.callback(*event.args)
                except BaseException:
                    self.events_executed -= 1
                    raise
                if max_events is not None \
                        and self.events_executed >= max_events \
                        and any(not e.cancelled and not e.idle
                                for e in heap):
                    raise SimulationError(
                        f"event budget exhausted ({max_events}); "
                        "possible protocol livelock")
            if not heap and self.stall_check is not None:
                self.stall_check()
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
        return self.now
