"""Address-interleaved home sharding.

The paper evaluates one Spandex LLC home, but Table III is defined
per word and is home-count-agnostic: nothing in the protocol cares
*which* home serializes a line as long as every requestor agrees.  A
:class:`HomeMap` is that agreement — a pure line-address -> home-name
function shared by every L1, TU, and home shard in a system.

Two interleavings are supported:

``line``
    ``(line >> 6) % n`` — consecutive cache lines round-robin across
    shards.  Matches how physical LLCs stripe banks, and keeps a
    streaming workload balanced.

``hash``
    A multiplicative hash of the line index before the modulo.
    Decorrelates shard choice from strided access patterns (a stride
    of ``n`` lines would pin the ``line`` interleave to one shard).

With one shard both interleavings collapse to a constant, so a
1-shard system takes the exact code path of the historical
single-home build and stays bit-identical to it.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: supported interleaving functions, in documentation order
INTERLEAVINGS = ("line", "hash")


def shard_names(count: int) -> Tuple[str, ...]:
    """Endpoint names for ``count`` home shards.

    A single shard keeps the historical name ``"llc"`` so traces,
    stats, and diagnostics of 1-shard systems are unchanged; multiple
    shards are ``llc0 … llc{n-1}``.
    """
    if count < 1:
        raise ValueError(f"llc_shards must be >= 1, got {count}")
    if count == 1:
        return ("llc",)
    return tuple(f"llc{i}" for i in range(count))


def shard_size(total_bytes: int, count: int, assoc: int,
               line_bytes: int = 64) -> int:
    """Per-shard capacity: ``total_bytes`` split ``count`` ways, rounded
    down to a whole number of sets (``assoc * line_bytes``) so every
    shard is a valid cache geometry even when the split is not exact.
    One shard keeps the full size untouched.
    """
    if count == 1:
        return total_bytes
    set_bytes = assoc * line_bytes
    size = (total_bytes // count) // set_bytes * set_bytes
    return max(set_bytes, size)


def _mix(index: int) -> int:
    """Deterministic 32-bit multiplicative hash (Fibonacci mixing)."""
    index &= 0xFFFFFFFF
    index = ((index ^ (index >> 16)) * 0x9E3779B1) & 0xFFFFFFFF
    return index ^ (index >> 13)


class HomeMap:
    """The shared line-address -> home-shard-name mapping.

    ``home_for`` sits on the request hot path of every L1, so the
    1-shard case is special-cased to a constant lookup and a sharded
    map answers from a per-line memo.
    """

    __slots__ = ("names", "interleave", "_count", "_single", "_homes")

    def __init__(self, names: Tuple[str, ...],
                 interleave: str = "line"):
        if not names:
            raise ValueError("HomeMap needs at least one home name")
        if interleave not in INTERLEAVINGS:
            raise ValueError(f"unknown shard interleave {interleave!r}; "
                             f"expected one of {INTERLEAVINGS}")
        self.names = tuple(names)
        self.interleave = interleave
        self._count = len(self.names)
        self._single = self.names[0] if self._count == 1 else None
        #: line -> home name, filled on first lookup
        self._homes: Dict[int, str] = {}

    def home_for(self, line: int) -> str:
        single = self._single
        if single is not None:
            return single
        home = self._homes.get(line)
        if home is None:
            index = line >> 6
            if self.interleave == "hash":
                index = _mix(index)
            home = self._homes[line] = self.names[index % self._count]
        return home

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:
        return (f"HomeMap({self.names!r}, "
                f"interleave={self.interleave!r})")
