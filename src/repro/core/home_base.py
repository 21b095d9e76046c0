"""The home-node skeleton shared by every coherence point.

:class:`HomeController` holds the plumbing common to the Spandex home
(:class:`~repro.core.home.SpandexHome`: the flat LLC shards and the
hierarchical GPU L2) and the hierarchical baseline's MESI directory
(:class:`~repro.protocols.mesi_llc.MESIDirectoryLLC`): the cache array,
banked request arbitration, per-line deferral and in-order replay,
fills from the backing store after making room, sharer sets and
per-instance transaction ids.

A subclass supplies the protocol: ``INVALID`` (the array's invalid
state), ``TXN`` (its transaction record), ``_dispatch`` (every message
after bank arbitration), ``_process_request`` (a request, also on
replay), ``_fill_complete``, ``_evict(victim, then)`` and
``_backing_fetch``.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set

from ..coherence.messages import KIND_LABELS, Message
from ..mem.cache import CacheArray, CacheLine
from ..network.noc import Network
from ..sim.engine import Component, Engine, SimulationError
from ..sim.stats import StatsRegistry


class HomeController(Component):
    """Banked, deferring, filling home node (see module docstring)."""

    #: the protocol's invalid line state (a fresh array line's state)
    INVALID: object = None
    #: transaction record class; built by :meth:`_new_txn`
    TXN: type = object

    def __init__(self, engine: Engine, name: str, network: Network,
                 stats: StatsRegistry, size_bytes: int, assoc: int = 16,
                 access_latency: int = 10, banks: int = 16,
                 bank_busy_cycles: int = 2):
        super().__init__(engine, name)
        self.network = network
        self.stats = stats
        #: per-home counters (``home.<name>.*``); claiming the scope
        #: here makes duplicate home names fail loudly at build time
        self.hstats = stats.scoped(f"home.{name}")
        self.array: CacheArray = CacheArray(size_bytes, assoc, self.INVALID)
        self.access_latency = access_latency
        self.banks = banks
        self.bank_busy_cycles = bank_busy_cycles
        self._bank_free = [0] * banks
        #: per-instance transaction ids: a fresh simulation always sees
        #: the same id sequence regardless of process history (sweep
        #: workers reuse interpreters)
        self._txn_ids = itertools.count(1)
        #: multi-home sharding (set by the system builder when
        #: ``llc_shards > 1``): the shared line->home map makes
        #: misrouted requests fail loudly, and ``bank_stride`` keys
        #: bank arbitration on the within-shard line index so all
        #: banks stay populated under line interleaving
        self.home_map = None
        self.bank_stride = 1
        self._txns: Dict[int, object] = {}
        self._deferred: Dict[int, List[Message]] = {}
        self._fetching: Set[int] = set()
        network.register(self)

    def _new_txn(self, line: int, *fields):
        """A transaction record (``TXN(line, *fields)``) with the next
        per-instance id."""
        return self.TXN(line, *fields, txn_id=next(self._txn_ids))

    # ------------------------------------------------------------------
    # network entry: bank arbitration then protocol processing
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if self.home_map is not None and \
                self.home_map.home_for(msg.line) != self.name:
            raise SimulationError(
                f"{self.name}: misrouted line {msg.line:#x} "
                f"(home is {self.home_map.home_for(msg.line)!r}): {msg}")
        index = msg.line >> 6
        if self.bank_stride != 1:
            index //= self.bank_stride
        bank = index % self.banks
        now = self.engine.now
        start = max(now, self._bank_free[bank])
        self._bank_free[bank] = start + self.bank_busy_cycles
        delay = (start - now) + self.access_latency
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.busy", self.name, None, msg.line, msg.req_id,
                          None, delay, None, KIND_LABELS[msg.kind])
        self.schedule(delay, self._dispatch, (msg,))

    # ------------------------------------------------------------------
    # deferral
    # ------------------------------------------------------------------
    def _defer(self, msg: Message) -> None:
        self.hstats.incr("deferred")
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.defer", self.name, None, msg.line, msg.req_id,
                          None, 0, None, KIND_LABELS[msg.kind])
        self._deferred.setdefault(msg.line, []).append(msg)

    def _replay_deferred(self, line: int) -> None:
        queue = self._deferred.pop(line, None)
        if not queue:
            return
        tracer = self.engine.tracer
        for msg in queue:
            # Re-enter through _process_request so still-blocked ones
            # re-defer in their original order.
            if tracer is not None:
                tracer.record("home.replay", self.name, None, msg.line,
                              msg.req_id, None, 0, None, KIND_LABELS[msg.kind])
            self._process_request(msg)

    # ------------------------------------------------------------------
    # residency
    # ------------------------------------------------------------------
    def _sharers(self, line_obj: CacheLine) -> Set[str]:
        return line_obj.meta.setdefault("sharers", set())

    def _ensure_resident(self, msg: Message,
                         line_obj: Optional[CacheLine]) -> Optional[CacheLine]:
        """Return the resident line, or start a fill and defer ``msg``.

        ``line_obj`` is the caller's ``array.lookup(msg.line)`` with no
        array access since, so looking it up again would not move the LRU.
        """
        if line_obj is not None and line_obj.state != self.INVALID:
            return line_obj
        self._defer(msg)
        if msg.line in self._fetching:
            return None
        self._fetching.add(msg.line)
        self.hstats.incr("fills")
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.fill", self.name, None, msg.line, msg.req_id,
                          None, 0, None, KIND_LABELS[msg.kind])
        self._make_room(msg.line, lambda: self._backing_fetch(
            msg.line, lambda data: self._fill_complete(msg.line, data)))
        return None

    def _make_room(self, line: int, then: Callable[[], None]) -> None:
        """Evict as needed so ``line`` can be installed, then continue."""
        victim = self.array.victim_for(line)
        if victim is None:
            then()
            return
        self._evict(victim, lambda: self._make_room(line, then))

    def _backing_fetch(self, line: int,
                       callback: Callable[[Dict[int, int]], None]) -> None:
        """Read ``line`` from the level below, then ``callback(data)``."""
        raise NotImplementedError
