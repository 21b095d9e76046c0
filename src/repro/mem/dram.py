"""Main-memory model: functional backing store plus access latency.

Only the LLC talks to DRAM.  Fetches complete after a fixed latency
(plus a small bank-conflict serialization term); writebacks update the
functional image immediately and are accounted in stats.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..coherence.addr import WORDS_PER_LINE, iter_mask
from ..sim.engine import Component, Engine
from ..sim.stats import StatsRegistry


class MainMemory(Component):
    def __init__(self, engine: Engine, stats: StatsRegistry,
                 latency: int = 160, banks: int = 16,
                 bank_busy_cycles: int = 4, name: str = "dram"):
        super().__init__(engine, name)
        self.stats = stats
        self.latency = latency
        self.banks = banks
        self.bank_busy_cycles = bank_busy_cycles
        self._image: Dict[int, List[int]] = {}
        self._bank_free: List[int] = [0] * banks

    # -- functional image --------------------------------------------------
    def _line(self, line: int) -> List[int]:
        data = self._image.get(line)
        if data is None:
            data = [0] * WORDS_PER_LINE
            self._image[line] = data
        return data

    def peek(self, line: int) -> List[int]:
        """Functional read without timing (tests, initialization)."""
        return list(self._line(line))

    def poke(self, line: int, values: Dict[int, int]) -> None:
        """Functional write without timing (workload initialization)."""
        data = self._line(line)
        for index, value in values.items():
            data[index] = value

    # -- timed interface -----------------------------------------------------
    def _bank_delay(self, line: int) -> int:
        bank = (line >> 6) % self.banks
        now = self.engine.now
        start = max(now, self._bank_free[bank])
        self._bank_free[bank] = start + self.bank_busy_cycles
        return (start - now) + self.latency

    def fetch(self, line: int,
              callback: Callable[[Dict[int, int]], None]) -> None:
        """Read a full line; ``callback(data)`` fires after the latency."""
        self.stats.incr("dram.reads")
        self.stats.incr("dram.read_bytes", 64)
        delay = self._bank_delay(line)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("dram.fetch", self.name, None, line, None, None,
                          delay)
        data = dict(enumerate(self._line(line)))
        self.schedule(delay, callback, (data,))

    def writeback(self, line: int, mask: int,
                  values: Dict[int, int]) -> None:
        """Write masked words; functional effect is immediate."""
        self.stats.incr("dram.writes")
        self.stats.incr("dram.write_bytes", 4 * len(values))
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("dram.wb", self.name, line=line,
                          info=f"words={len(values)}")
        data = self._line(line)
        for index in iter_mask(mask):
            if index in values:
                data[index] = values[index]
