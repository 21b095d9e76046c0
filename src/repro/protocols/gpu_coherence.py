"""GPU coherence L1 (paper §II-B).

Two stable states (Invalid, Valid), write-through stores at word
granularity coalesced in the write buffer, line-granularity self-
invalidated reads, and atomics performed at the backing cache via
ReqWT+data.  The protocol never holds Owned or Shared state, so it
receives no forwarded requests or probes — only responses.

Synchronization: an acquire flash-invalidates every Valid line in one
cycle; a release waits for the write buffer to drain.
"""

from __future__ import annotations

import enum

from ..coherence.addr import FULL_LINE_MASK, iter_mask
from ..coherence.messages import Message, MsgKind
from ..sim.engine import SimulationError
from .base import Access, Inflight, L1Controller


class GpuState(enum.Enum):
    """GPU L1 word states; hot-path dict keys, so identity hash."""

    __hash__ = object.__hash__

    I = "I"
    V = "V"


class GPUCoherenceL1(L1Controller):
    """Write-through, self-invalidating GPU L1 cache."""

    PROPERTIES = {
        "stale_invalidation": "self-invalidation",
        "write_propagation": "write-through",
        "load_granularity": "line",
        "store_granularity": "word",
    }
    PROTOCOL_FAMILY = "GPU"
    INVALID = GpuState.I

    # ------------------------------------------------------------------
    # device-facing API
    # ------------------------------------------------------------------
    def _do_load(self, access: Access) -> bool:
        if access.invalidate_first:
            resident = self.array.lookup(access.line, touch=False)
            if resident is not None and not resident.pinned:
                self.array.evict(access.line)
        if self._load_from_buffer(access):
            return True
        line_obj = self.array.lookup(access.line)
        if line_obj is not None and line_obj.state == GpuState.V:
            self._counters["l1.hits"] += 1
            values = self._with_buffered(
                access, line_obj.read_data(access.mask))
            self.schedule(self.hit_latency, access.callback, (values,))
            return True
        # miss: line-granularity ReqV, coalesced through the MSHR
        if access.line in self.mshrs:
            self.mshrs.attach(access.line, access)
            return True
        if self.mshrs.full:
            self.count("mshr_stalls")
            return False
        self._counters["l1.load_misses"] += 1
        entry = self.mshrs.allocate(access.line, access)
        msg = self.request(MsgKind.REQ_V, access.line, FULL_LINE_MASK,
                           is_line_granularity=True)
        inflight = self._track(msg, "load")
        entry.meta["req_id"] = msg.req_id
        return True

    def _do_store(self, access: Access) -> bool:
        if not self._buffer_store(access):
            return False
        # keep a Valid local copy coherent with our own writes
        line_obj = self.array.lookup(access.line)
        if line_obj is not None and line_obj.state == GpuState.V:
            line_obj.write_data(access.mask, access.values)
        return True

    def _do_rmw(self, access: Access) -> bool:
        # All atomics are performed at the backing cache (LLC / GPU L2).
        if self.mshrs.full:
            self.count("mshr_stalls")
            return False
        self.count("atomics")
        msg = self.request(MsgKind.REQ_WT_DATA, access.line, access.mask,
                           atomic=access.atomic, data=dict(access.values))
        inflight = self._track(msg, "rmw")
        inflight.accesses.append(access)
        self._write_issued()
        return True

    def self_invalidate(self, regions=None) -> None:
        """Flash-invalidate Valid lines (single-cycle operation);
        ``regions`` restricts the flash to the given byte ranges."""
        self.count("flash_invalidations")
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l1.state", self.name, None, None, None, None, 0,
                          None, "flash self-invalidate"
                                + (" (regions)" if regions else ""))
        inside = self._region_filter(regions)
        for line_obj in list(self.array.lines()):
            if not line_obj.pinned and inside(line_obj.line):
                self.array.evict(line_obj.line)

    # ------------------------------------------------------------------
    # write buffer draining
    # ------------------------------------------------------------------
    def _issue_writes(self) -> None:
        self._issue_scheduled = False
        entry = self.store_buffer.next_unissued()
        while entry is not None:
            self.store_buffer.mark_issued(entry.line)
            msg = self.request(MsgKind.REQ_WT, entry.line, entry.mask,
                               data=dict(entry.values))
            inflight = self._track(msg, "store")
            inflight.meta["sb_line"] = entry.line
            self._write_issued()
            entry = self.store_buffer.next_unissued()

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if msg.kind == MsgKind.INV:
            # Possible after a raced eviction at the home; no S state,
            # so just acknowledge (paper §III-C case 3).
            self.send(Message(MsgKind.ACK, msg.line, msg.mask,
                              src=self.name, dst=msg.src,
                              req_id=msg.req_id))
            return
        if not self._fold_response(msg):
            raise SimulationError(f"{self.name}: unexpected {msg}")

    def _request_complete(self, inflight: Inflight) -> None:
        if inflight.purpose == "load":
            self._finish_load(inflight)
        elif inflight.purpose == "store":
            line = inflight.meta["sb_line"]
            self.store_buffer.complete(line)
            self._write_completed()
        elif inflight.purpose == "rmw":
            # response data is potentially stale: downgrade local copy
            resident = self.array.lookup(inflight.line, touch=False)
            if resident is not None and not resident.pinned:
                self.array.evict(inflight.line)
            for access in inflight.accesses:
                values = {index: inflight.data[index]
                          for index in iter_mask(access.mask)}
                access.callback(values)
            self._write_completed()

    def _finish_load(self, inflight: Inflight) -> None:
        entry = self.mshrs.release(inflight.line)
        cacheable = not inflight.no_cache
        if cacheable:
            line_obj = self._resident(inflight.line)
            line_obj.state = GpuState.V
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("l1.state", self.name, None, inflight.line,
                              inflight.req_id, None, 0, None, "->V fill")
            for index, value in inflight.data.items():
                line_obj.data[index] = value
            # our own buffered stores are younger than the fill
            partial = self.store_buffer.entries.get(inflight.line)
            if partial is not None:
                line_obj.write_data(partial.mask, partial.values)
        for access in entry.all_requests():
            access.callback(self._with_buffered(
                access, {index: inflight.data.get(index, 0)
                         for index in iter_mask(access.mask)}))
