"""Device-side L1 controller framework.

Every L1 protocol (MESI, GPU coherence, DeNovo) subclasses
:class:`L1Controller`.  Devices present :class:`Access` objects; the
controller resolves hits locally and drives its protocol for misses.
Synchronization is exposed as acquire / release fences implementing the
DRF requirements of paper §III-E:

* release: the store buffer drains and all outstanding write requests
  (write-throughs or ownership acquisitions) complete first;
* acquire: potentially-stale data is invalidated (a flash operation for
  self-invalidating protocols, a no-op for MESI).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..coherence.addr import iter_mask
from ..coherence.messages import AtomicOp, Message, MsgKind
from ..mem.cache import CacheArray, CacheLine
from ..mem.mshr import MSHRFile
from ..mem.store_buffer import StoreBuffer
from ..network.noc import Network
from ..sim.engine import Component, Engine
from ..sim.stats import StatsRegistry

#: responses granting their words Owned
_GRANTS_OWNED = frozenset((MsgKind.RSP_O, MsgKind.RSP_O_DATA))


class Access:
    """One memory operation presented by a device to its L1.

    ``callback(values)`` fires at completion; for loads ``values`` maps
    the requested word indices to data, for RMWs it maps the word to the
    pre-update value, for stores it is empty.
    """

    __slots__ = ("kind", "line", "mask", "values", "atomic", "callback",
                 "invalidate_first")

    def __init__(self, kind: str, line: int, mask: int,
                 callback: Callable[[Dict[int, int]], None],
                 values: Optional[Dict[int, int]] = None,
                 atomic: Optional[AtomicOp] = None,
                 invalidate_first: bool = False):
        assert kind in ("load", "store", "rmw")
        self.kind = kind
        self.line = line
        self.mask = mask
        self.values = values or {}
        self.atomic = atomic
        self.callback = callback
        self.invalidate_first = invalidate_first

    def __repr__(self) -> str:
        return (f"<Access {self.kind} line=0x{self.line:x} "
                f"mask=0x{self.mask:04x}>")


class Inflight:
    """An outstanding L1 request awaiting (possibly partial) responses.

    Spandex tracks ownership per word, so different words of one request
    may be answered by different devices (paper §III-A): the home
    responds for words it holds and previous owners respond directly for
    words they owned.  ``remaining`` is the word mask still unanswered.
    """

    __slots__ = ("req_id", "line", "purpose", "remaining", "data",
                 "granted_o", "no_cache", "accesses", "meta", "issued_at")

    def __init__(self, req_id: int, line: int, purpose: str, remaining: int,
                 issued_at: int = 0):
        self.req_id = req_id
        self.line = line
        self.purpose = purpose           # load | store | rmw | wb
        self.remaining = remaining
        self.data: Dict[int, int] = {}   # words received (incl. extras)
        self.granted_o = 0               # words granted in Owned state
        self.no_cache = 0                # words served uncacheably
        self.accesses: List[Access] = []
        self.meta: Dict[str, object] = {}
        #: cycle the request was issued (liveness-watchdog age base)
        self.issued_at = issued_at


class L1Controller(Component):
    """Common plumbing: cache array, MSHRs, store buffer, stats,
    downstream routing, and the access skeleton every protocol shares.

    A protocol supplies ``_do_load`` / ``_do_store`` / ``_do_rmw``, the
    store-buffer drain ``_issue_writes``, ``_request_complete``,
    ``receive`` and ``self_invalidate``; ``_evict`` when replacing a
    line needs more than dropping it.

    ``home`` is the network name this controller sends protocol requests
    to (the Spandex TU in flat configurations, the GPU L2 or the MESI
    directory in hierarchical ones).
    """

    #: protocol classification row for Table I reproduction
    PROPERTIES: Dict[str, str] = {}
    #: the protocol's invalid state (a fresh cache line's state)
    INVALID: object = None
    #: ``_do_store`` first looks the line up for an owned hit (LRU touch)
    STORE_LOOKS_UP = False

    def __init__(self, engine: Engine, name: str, network: Network,
                 stats: StatsRegistry, home: str,
                 mshr_entries: int = 128, store_buffer_words: int = 128,
                 hit_latency: int = 1, register_on_network: bool = True,
                 size_bytes: int = 32 * 1024, assoc: int = 8,
                 coalesce_delay: int = 8):
        super().__init__(engine, name)
        self.array: CacheArray = CacheArray(size_bytes, assoc, self.INVALID)
        #: cycles the store buffer coalesces before it issues
        self.coalesce_delay = coalesce_delay
        self._issue_scheduled = False
        self.network = network
        self.stats = stats
        self.home = home
        #: line->home mapping for sharded systems; None keeps ``home``
        #: as the single destination (see :meth:`home_for`)
        self.home_map = None
        self.mshrs: MSHRFile = MSHRFile(mshr_entries, engine)
        # hand the MSHR file the recorder (None when tracing is off) so
        # alloc/free are traced
        self.mshrs.tracer = engine.tracer
        self.mshrs.owner = name
        self.store_buffer = StoreBuffer(store_buffer_words)
        self.hit_latency = hit_latency
        self._pending_writes = 0
        self._release_waiters: List[Callable[[], None]] = []
        self._inflight: Dict[int, Inflight] = {}
        #: set when a translation unit wraps this controller (flat
        #: Spandex configurations); the TU is then the network endpoint.
        self.tu = None
        #: live flat-counter dict
        self._counters = stats.raw_counters()
        if register_on_network:
            network.register(self)

    # -- device-facing API -------------------------------------------------
    def try_access(self, access: Access) -> bool:
        """Attempt to start ``access``.

        Returns False when a structural hazard (full MSHRs / store
        buffer, in-flight same-line store) forces the device to retry
        next cycle.  On True the access will eventually call back.
        """
        if access.kind == "load":
            return self._do_load(access)
        if access.kind == "store":
            return self._do_store(access)
        return self._do_rmw(access)

    def _buffer_store(self, access: Access) -> bool:
        """Admit a store to the store buffer, schedule the drain and
        acknowledge the device; False when the buffer cannot take it."""
        entry = self.store_buffer.entries.get(access.line)
        if entry is not None and entry.issued:
            self._counters["l1.sb_conflict_stalls"] += 1
            return False
        if not self.store_buffer.can_accept(access.mask, access.line):
            self._counters["l1.sb_full_stalls"] += 1
            return False
        self.store_buffer.push(access.line, access.mask, access.values)
        self._schedule_issue()
        self.schedule(self.hit_latency, access.callback, ({},))
        return True

    def store_blocked(self, access: Access) -> bool:
        """Retry poll of a refused store: while its line's store-buffer
        entry is still issued, do what ``try_access`` would (the owned-hit
        check's LRU touch, one stall count) without the store path.
        Exact while no store hits a line whose entry is issued."""
        entry = self.store_buffer.entries.get(access.line)
        if entry is None or not entry.issued:
            return False
        if self.STORE_LOOKS_UP:
            self.array.lookup(access.line)
        self._counters["l1.sb_conflict_stalls"] += 1
        return True

    def _load_from_buffer(self, access: Access) -> bool:
        """Serve a load the store buffer fully covers (a hit)."""
        if access.line not in self.store_buffer.entries:
            return False
        forwarded = self.store_buffer.forward(access.line, access.mask)
        if forwarded is None:
            return False
        self._counters["l1.hits"] += 1
        self.schedule(self.hit_latency, access.callback, (forwarded,))
        return True

    def _with_buffered(self, access: Access,
                       values: Dict[int, int]) -> Dict[int, int]:
        """Overlay this cache's younger buffered stores on ``values``
        (same-thread ordering); returns ``values``."""
        partial = self.store_buffer.entries.get(access.line)
        if partial is not None:
            for index in iter_mask(access.mask & partial.mask):
                values[index] = partial.values[index]
        return values

    def fence_acquire(self, callback: Callable[[], None],
                      regions: Optional[List[Tuple[int, int]]] = None,
                      scope: str = "device") -> None:
        """Invalidate potentially-stale data, then call back.

        ``regions`` restricts invalidation to the given (base, nbytes)
        ranges (the DeNovo regions optimization); ``scope="cu"`` skips
        invalidation entirely — synchronization between threads sharing
        this cache needs none (scoped synchronization, paper §III-E).
        """
        if scope != "cu":
            self.self_invalidate(regions)
        self.schedule(1, callback)

    def fence_release(self, callback: Callable[[], None],
                      scope: str = "device") -> None:
        """Call back once all prior writes are globally performed.

        ``scope="cu"`` completes immediately: same-cache readers see
        the write buffer through forwarding and the local data array.
        """
        if scope == "cu" or (self.store_buffer.empty
                             and self._pending_writes == 0):
            self.schedule(1, callback)
            return
        self._release_waiters.append(callback)
        self._drain_store_buffer()

    def self_invalidate(
            self,
            regions: Optional[List[Tuple[int, int]]] = None) -> None:
        """Flash-invalidate stale-able data (protocol-specific);
        ``regions`` limits the flash to the given byte ranges."""
        raise NotImplementedError

    @staticmethod
    def _region_filter(regions: Optional[List[Tuple[int, int]]]):
        """Predicate: does a line fall inside any region?  None = all."""
        if regions is None:
            return lambda line: True

        def inside(line: int) -> bool:
            return any(base - 63 <= line < base + nbytes
                       for base, nbytes in regions)
        return inside

    def outstanding(self) -> int:
        return len(self.mshrs) + len(self.store_buffer)

    # -- write completion bookkeeping ---------------------------------------
    def _write_issued(self) -> None:
        self._pending_writes += 1

    def _write_completed(self) -> None:
        self._pending_writes -= 1
        assert self._pending_writes >= 0
        self._check_release()

    def _check_release(self) -> None:
        if (self._release_waiters and self.store_buffer.empty
                and self._pending_writes == 0):
            waiters, self._release_waiters = self._release_waiters, []
            for callback in waiters:
                self.schedule(1, callback)

    def _schedule_issue(self) -> None:
        if self._issue_scheduled:
            return
        self._issue_scheduled = True
        self.schedule(self.coalesce_delay, self._issue_writes)

    def _drain_store_buffer(self) -> None:
        """Issue the store buffer now unless a drain is already due."""
        if not self._issue_scheduled:
            self._issue_writes()

    def _issue_writes(self) -> None:
        """Issue protocol requests for unissued store-buffer entries;
        clears ``_issue_scheduled`` first."""
        raise NotImplementedError

    # -- line residency ------------------------------------------------------
    def _resident(self, line: int) -> CacheLine:
        """``line``'s cache entry, installed (after replacing a victim)
        when absent."""
        line_obj = self.array.lookup(line)
        if line_obj is not None:
            return line_obj
        victim = self.array.victim_for(line)
        if victim is not None:
            self._evict(victim)
        return self.array.install(line)

    def _evict(self, victim: CacheLine) -> None:
        """Replace ``victim``: a clean line just leaves the array."""
        self.array.evict(victim.line)

    # -- in-flight request reassembly -----------------------------------------
    def _track(self, msg: Message, purpose: str,
               remaining: Optional[int] = None) -> Inflight:
        inflight = Inflight(
            msg.req_id, msg.line, purpose,
            remaining if remaining is not None else msg.mask,
            issued_at=self.engine.now)
        self._inflight[msg.req_id] = inflight
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l1.issue", self.name, None, msg.line, msg.req_id,
                          None, 0, None, purpose)
        return inflight

    def _fold_response(self, msg: Message) -> bool:
        """Fold a (partial) response into its in-flight record.

        Returns True when the message matched an outstanding request;
        calls ``_request_complete`` once every requested word arrived.
        """
        inflight = self._inflight.get(msg.req_id)
        if inflight is None:
            return False
        inflight.data.update(msg.data)
        served = msg.mask & inflight.remaining
        if msg.kind in _GRANTS_OWNED or msg.meta.get("granted") == "O":
            inflight.granted_o |= served
        if msg.kind == MsgKind.RSP_WT_DATA:
            # result of a TU escalation (Nacked ReqV replayed as an
            # LLC-side atomic read): correct value, but not cacheable.
            inflight.no_cache |= served
        inflight.remaining &= ~msg.mask
        if inflight.remaining == 0:
            del self._inflight[msg.req_id]
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("l1.complete", self.name, None, inflight.line,
                              inflight.req_id, None,
                              self.engine.now - inflight.issued_at, None,
                              inflight.purpose)
            self._request_complete(inflight)
        return True

    def _request_complete(self, inflight: Inflight) -> None:
        raise NotImplementedError

    # -- network plumbing ----------------------------------------------------
    def receive(self, msg: Message) -> None:
        raise NotImplementedError

    def send(self, msg: Message) -> None:
        if self.tu is not None:
            self.tu.from_device(msg)
        else:
            self.network.send(msg)

    def home_for(self, line: int) -> str:
        """The home that serializes ``line`` (a shard when sharded)."""
        home_map = self.home_map
        if home_map is None:
            return self.home
        return home_map.home_for(line)

    def request(self, kind: MsgKind, line: int, mask: int,
                dst: Optional[str] = None, **kwargs) -> Message:
        msg = Message(kind, line, mask, src=self.name,
                      dst=dst if dst is not None else self.home_for(line),
                      **kwargs)
        self.send(msg)
        return msg

    # -- stats helpers --------------------------------------------------------
    def count(self, what: str, amount: float = 1) -> None:
        """Add to the cold counter ``l1.<what>``."""
        self._counters["l1." + what] += amount

