"""Store / write buffer with word coalescing.

Both GPU coherence and DeNovo coalesce word stores to the same line
into one multi-word masked request (paper §II-B, §II-C); MESI L1s use
the buffer merely as a FIFO in front of the RfO path.  A release
synchronization cannot complete until the buffer has drained
(§III-E consistency requirement 2).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..coherence.addr import iter_mask, popcount


class StoreBufferEntry:
    __slots__ = ("line", "mask", "values", "issued")

    def __init__(self, line: int):
        self.line = line
        self.mask = 0
        self.values: Dict[int, int] = {}
        self.issued = False

    def merge(self, mask: int, values: Dict[int, int]) -> None:
        self.mask |= mask
        for index in iter_mask(mask):
            self.values[index] = values[index]


class StoreBuffer:
    """FIFO of per-line coalescing entries, bounded in total words."""

    def __init__(self, capacity_words: int = 128):
        self.capacity_words = capacity_words
        #: line -> entry, in FIFO order
        self.entries: "OrderedDict[int, StoreBufferEntry]" = OrderedDict()
        self._words = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def words(self) -> int:
        return self._words

    @property
    def empty(self) -> bool:
        return not self.entries

    def can_accept(self, mask: int, line: int) -> bool:
        new_words = popcount(mask)
        entry = self.entries.get(line)
        if entry is not None:
            new_words = popcount(mask & ~entry.mask)
        return self._words + new_words <= self.capacity_words

    def push(self, line: int, mask: int, values: Dict[int, int]) -> None:
        """Insert a store; coalesces with an unissued same-line entry."""
        entry = self.entries.get(line)
        if entry is not None and not entry.issued:
            self._words += popcount(mask & ~entry.mask)
            entry.merge(mask, values)
            return
        if entry is not None and entry.issued:
            # An issued entry is in flight; start a fresh entry behind it
            # by keying on the same line is impossible in this map, so
            # callers must not push to an issued line (they stall).
            raise RuntimeError(f"store to in-flight line 0x{line:x}")
        entry = StoreBufferEntry(line)
        entry.merge(mask, values)
        self.entries[line] = entry
        self._words += popcount(mask)

    def next_unissued(self) -> Optional[StoreBufferEntry]:
        for entry in self.entries.values():
            if not entry.issued:
                return entry
        return None

    def mark_issued(self, line: int) -> StoreBufferEntry:
        entry = self.entries[line]
        entry.issued = True
        return entry

    def complete(self, line: int) -> StoreBufferEntry:
        entry = self.entries.pop(line, None)
        if entry is None:
            raise RuntimeError(f"completing absent store 0x{line:x}")
        self._words -= popcount(entry.mask)
        return entry

    def forward(self, line: int, mask: int) -> Optional[Dict[int, int]]:
        """Store->load forwarding: values if the buffer covers ``mask``."""
        entry = self.entries.get(line)
        if entry is None or (entry.mask & mask) != mask:
            return None
        return {index: entry.values[index] for index in iter_mask(mask)}
