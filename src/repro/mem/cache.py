"""Set-associative cache array with per-word state overlay.

The array is protocol-agnostic: controllers store whatever state enum
they use.  Per-word state matters because DeNovo L1s and the Spandex LLC
track Owned at word granularity (paper §III-B), while MESI and GPU
coherence only use the line state.

Lines in transient (protocol-pending) states are *pinned* and never
selected as victims; controllers pin/unpin explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Iterator, List, Optional, TypeVar

from ..coherence.addr import (FULL_LINE_MASK, LINE_BYTES, WORDS_PER_LINE,
                              iter_mask)

S = TypeVar("S")


class CacheLine(Generic[S]):
    """One resident line: line state, per-word states, data, owner ids."""

    __slots__ = ("line", "state", "word_states", "data", "owner", "owned",
                 "pinned", "meta")

    def __init__(self, line: int, state: S, word_state: S):
        self.line = line
        self.state = state
        self.word_states: List[S] = [word_state] * WORDS_PER_LINE
        self.data: List[int] = [0] * WORDS_PER_LINE
        #: per-word owner id (used by the Spandex LLC / directory)
        self.owner: List[Optional[str]] = [None] * WORDS_PER_LINE
        #: mask of the words whose ``owner`` is set; written only with
        #: ``owner`` (``SpandexHome._set_owners``)
        self.owned = 0
        self.pinned = 0
        self.meta: Dict[str, object] = {}

    def set_words(self, mask: int, state: S) -> None:
        for index in iter_mask(mask):
            self.word_states[index] = state

    def words_in(self, state: S) -> int:
        """Mask of words currently in ``state``."""
        states = self.word_states
        if state not in states:
            return 0
        mask = 0
        for index, word_state in enumerate(states):
            if word_state == state:
                mask |= 1 << index
        return mask

    def write_data(self, mask: int, values: Dict[int, int]) -> None:
        for index in iter_mask(mask):
            if index in values:
                self.data[index] = values[index]

    def read_data(self, mask: int) -> Dict[int, int]:
        data = self.data
        if mask == FULL_LINE_MASK:
            return dict(enumerate(data))
        if mask and not mask & (mask - 1):    # one word (a CPU load)
            index = mask.bit_length() - 1
            return {index: data[index]}
        return {index: data[index] for index in iter_mask(mask)}

    def pin(self) -> None:
        self.pinned += 1

    def unpin(self) -> None:
        if self.pinned <= 0:
            raise RuntimeError(f"unpin underflow on line 0x{self.line:x}")
        self.pinned -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Line 0x{self.line:x} {self.state} "
                f"pinned={self.pinned}>")


#: the set every never-installed set aliases; only install() adds lines,
#: and it swaps in a fresh dict first, so this one stays empty
_NO_LINES: "OrderedDict[int, CacheLine]" = OrderedDict()


class CacheArray(Generic[S]):
    """LRU set-associative array of :class:`CacheLine`."""

    def __init__(self, size_bytes: int, assoc: int,
                 invalid_state: S):
        if size_bytes % (LINE_BYTES * assoc):
            raise ValueError("cache size must be a multiple of assoc*line")
        self.assoc = assoc
        self.num_sets = size_bytes // (LINE_BYTES * assoc)
        self.invalid_state = invalid_state
        # Each set is an OrderedDict line -> CacheLine; order = LRU.
        # Big homes touch few of their sets, so every set starts as the
        # shared empty placeholder and install() gives it its own dict.
        self._sets: List["OrderedDict[int, CacheLine[S]]"] = \
            [_NO_LINES] * self.num_sets

    def _set_of(self, line: int) -> "OrderedDict[int, CacheLine[S]]":
        return self._sets[(line // LINE_BYTES) % self.num_sets]

    def lookup(self, line: int, touch: bool = True) -> Optional[CacheLine[S]]:
        cache_set = self._sets[(line // LINE_BYTES) % self.num_sets]
        entry = cache_set.get(line)
        if entry is not None and touch:
            cache_set.move_to_end(line)
        return entry

    def victim_for(self, line: int) -> Optional[CacheLine[S]]:
        """LRU non-pinned resident line that must leave to admit ``line``.

        Returns None when the set has free capacity.  Raises when the
        set is full of pinned lines (a controller deadlock; callers
        must bound pinned lines by their MSHR count).
        """
        cache_set = self._set_of(line)
        if line in cache_set or len(cache_set) < self.assoc:
            return None
        for candidate in cache_set.values():  # LRU order
            if not candidate.pinned:
                return candidate
        raise RuntimeError("all ways pinned; controller must throttle")

    def install(self, line: int) -> CacheLine[S]:
        """Insert an invalid-state line; caller must have evicted first."""
        index = (line // LINE_BYTES) % self.num_sets
        cache_set = self._sets[index]
        if cache_set is _NO_LINES:
            cache_set = self._sets[index] = OrderedDict()
        if line in cache_set:
            raise RuntimeError(f"line 0x{line:x} already resident")
        if len(cache_set) >= self.assoc:
            raise RuntimeError(f"set full installing 0x{line:x}")
        entry = CacheLine(line, self.invalid_state, self.invalid_state)
        cache_set[line] = entry
        return entry

    def evict(self, line: int) -> CacheLine[S]:
        cache_set = self._set_of(line)
        entry = cache_set.pop(line, None)
        if entry is None:
            raise RuntimeError(f"evicting non-resident line 0x{line:x}")
        if entry.pinned:
            raise RuntimeError(f"evicting pinned line 0x{line:x}")
        return entry

    def lines(self) -> Iterator[CacheLine[S]]:
        for cache_set in self._sets:
            yield from cache_set.values()

    def resident_count(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)
