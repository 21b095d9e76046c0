"""Miss Status Holding Registers.

An MSHR file bounds the number of outstanding misses per cache and
coalesces same-line misses: secondary requests attach to the primary
entry and are replayed when it completes.  The paper's configuration
gives every L1 128 MSHRs (Table VI).
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Optional, TypeVar

from ..sim.engine import Engine

T = TypeVar("T")


class MSHREntry(Generic[T]):
    __slots__ = ("line", "primary", "secondaries", "meta", "allocated_at")

    def __init__(self, line: int, primary: T, allocated_at: int = 0):
        self.line = line
        self.primary = primary
        self.secondaries: List[T] = []
        self.meta: Dict[str, object] = {}
        #: cycle the entry was allocated (liveness-watchdog age base)
        self.allocated_at = allocated_at

    def all_requests(self) -> List[T]:
        return [self.primary] + self.secondaries


class MSHRFile(Generic[T]):
    """Fixed-capacity map of line address -> :class:`MSHREntry`.

    Allocations are stamped with the owning ``engine``'s ``now`` so the
    liveness watchdog can flag entries stalled past a cycle bound;
    without an engine every entry is stamped 0.
    """

    def __init__(self, capacity: int, engine: Optional[Engine] = None):
        self.capacity = capacity
        self.engine = engine
        self._entries: Dict[int, MSHREntry[T]] = {}
        #: peak simultaneous occupancy over the run — one integer
        #: compare per allocation, cheap enough to keep always-on so
        #: the health monitor can read it without perturbing anything
        self.high_water = 0
        #: optional trace recorder + owning cache name, attached by the
        #: owning controller when the system is built with tracing on
        self.tracer = None
        self.owner = ""

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, line: int) -> bool:
        return line in self._entries

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def lookup(self, line: int) -> Optional[MSHREntry[T]]:
        return self._entries.get(line)

    def allocate(self, line: int, primary: T) -> MSHREntry[T]:
        if line in self._entries:
            raise RuntimeError(f"MSHR already allocated for 0x{line:x}")
        if self.full:
            raise RuntimeError("MSHR file full; caller must stall")
        engine = self.engine
        entry = MSHREntry(
            line, primary,
            allocated_at=engine.now if engine is not None else 0)
        self._entries[line] = entry
        if len(self._entries) > self.high_water:
            self.high_water = len(self._entries)
        if self.tracer is not None:
            self.tracer.record("mshr.alloc", self.owner, None, line, None,
                               None, 0, None,
                               f"{len(self._entries)}/{self.capacity}")
        return entry

    def attach(self, line: int, secondary: T) -> MSHREntry[T]:
        entry = self._entries[line]
        entry.secondaries.append(secondary)
        return entry

    def release(self, line: int) -> MSHREntry[T]:
        entry = self._entries.pop(line, None)
        if entry is None:
            raise RuntimeError(f"releasing absent MSHR 0x{line:x}")
        if self.tracer is not None:
            self.tracer.record("mshr.free", self.owner, None, line, None, None,
                               self.engine.now - entry.allocated_at, None,
                               f"{len(self._entries)}/{self.capacity}")
        return entry

    def drain(self, visit: Callable[[MSHREntry[T]], None]) -> None:
        for entry in list(self._entries.values()):
            visit(entry)

    def lines(self) -> List[int]:
        return list(self._entries)

    def stalled(self, now: int, bound: int) -> List[MSHREntry[T]]:
        """Entries allocated more than ``bound`` cycles ago."""
        return [entry for entry in self._entries.values()
                if now - entry.allocated_at > bound]
