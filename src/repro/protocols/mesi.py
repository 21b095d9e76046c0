"""MESI L1 (paper §II-A).

Line-granularity writer-invalidated protocol: loads request Shared
state, stores and RMWs are read-for-ownership (the full line is fetched
with Modified permission), evictions of owned lines write back the full
line.  Acquire fences are no-ops — invalidation is the writer's job.

The cache speaks one of two dialects:

* ``mesi`` — classic GetS / GetM / PutM with the directory LLC of the
  hierarchical baseline, including FwdGetS / FwdGetM / Inv probes;
* ``spandex`` — Table II translation: loads issue line ReqS, stores and
  RMWs issue line ReqO+data, owned replacements issue line ReqWB.  In
  this dialect external word-granularity Spandex requests are handled
  by the per-device translation unit (§III-D), which drives this cache
  through the ``probe_*`` API at the bottom of the class.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from ..coherence.addr import FULL_LINE_MASK, iter_mask
from ..coherence.messages import Message, MsgKind
from ..mem.cache import CacheLine
from ..sim.engine import SimulationError
from .base import Access, Inflight, L1Controller


class MesiState(enum.Enum):
    """MESI line states; hot-path dict keys, so identity hash."""

    __hash__ = object.__hash__

    I = "I"
    S = "S"
    E = "E"
    M = "M"


#: hot-path constant tuples (``x in (A, B)`` rebuilds the tuple per
#: call when the members are attribute loads, so hoist them once)
_OWNED = (MesiState.M, MesiState.E)
_MESI_DATA = (MsgKind.DATA_S, MsgKind.DATA_E, MsgKind.DATA_M,
              MsgKind.WB_ACK)
_MESI_EXCL = (MsgKind.DATA_E, MsgKind.DATA_M)


class MESIL1(L1Controller):
    """Writer-invalidated, ownership-based, line-granularity L1."""

    PROPERTIES = {
        "stale_invalidation": "writer-invalidation",
        "write_propagation": "ownership",
        "load_granularity": "line",
        "store_granularity": "line",
    }
    PROTOCOL_FAMILY = "MESI"
    INVALID = MesiState.I
    STORE_LOOKS_UP = True
    #: MsgKind -> handler method name, looked up per message: a table
    #: of bound methods would tie the controller into a reference
    #: cycle, and a by-name lookup honours subclass overrides and
    #: patched handlers (the protocol mutants)
    _EXT_HANDLERS = {
        MsgKind.FWD_GET_S: "_ext_fwd_gets",
        MsgKind.FWD_GET_M: "_ext_fwd_getm",
        MsgKind.MESI_INV: "_ext_inv",
        MsgKind.INV: "_ext_inv",
    }

    def __init__(self, *args, dialect: str = "spandex",
                 coalesce_delay: int = 4, **kwargs):
        super().__init__(*args, coalesce_delay=coalesce_delay, **kwargs)
        if dialect not in ("spandex", "mesi"):
            raise ValueError(f"bad dialect {dialect!r}")
        self.dialect = dialect
        self._pending_wb: Dict[int, Dict[int, int]] = {}
        self._post_grant: Dict[int, List[Callable[[], None]]] = {}

    # ------------------------------------------------------------------
    # device-facing API
    # ------------------------------------------------------------------
    def _state(self, line: int) -> MesiState:
        line_obj = self.array.lookup(line, touch=False)
        return MesiState.I if line_obj is None else line_obj.state

    def _do_load(self, access: Access) -> bool:
        if self._load_from_buffer(access):
            return True
        line_obj = self.array.lookup(access.line)
        if line_obj is not None and line_obj.state != MesiState.I:
            self._counters["l1.hits"] += 1
            values = line_obj.read_data(access.mask)
            self.schedule(self.hit_latency, access.callback, (values,))
            return True
        mshr_entry = self.mshrs.lookup(access.line)
        if mshr_entry is not None:
            if mshr_entry.meta["type"] == "IS":
                self.mshrs.attach(access.line, access)
                return True
            # an ownership miss is pending: the grant serves loads too
            self.mshrs.attach(access.line, access)
            return True
        if self.mshrs.full or access.line in self.store_buffer.entries:
            self.count("mshr_stalls")
            return False
        self._counters["l1.load_misses"] += 1
        entry = self.mshrs.allocate(access.line, access)
        entry.meta["type"] = "IS"
        kind = MsgKind.REQ_S if self.dialect == "spandex" else MsgKind.GET_S
        msg = self.request(kind, access.line, FULL_LINE_MASK,
                           is_line_granularity=True)
        self._track(msg, "load")
        return True

    def _do_store(self, access: Access) -> bool:
        line_obj = self.array.lookup(access.line)
        if line_obj is not None and line_obj.state in _OWNED:
            self._counters["l1.hits"] += 1
            line_obj.state = MesiState.M
            line_obj.write_data(access.mask, access.values)
            self.schedule(self.hit_latency, access.callback, ({},))
            return True
        return self._buffer_store(access)

    def _do_rmw(self, access: Access) -> bool:
        line_obj = self.array.lookup(access.line)
        index = iter_mask(access.mask)[0]
        if line_obj is not None and line_obj.state in _OWNED:
            self.count("atomic_hits")
            line_obj.state = MesiState.M
            old = line_obj.data[index]
            line_obj.data[index] = access.atomic.apply(old)
            self.schedule(self.hit_latency, access.callback, ({index: old},))
            return True
        if (self.mshrs.full or access.line in self.mshrs
                or access.line in self.store_buffer.entries):
            self.count("mshr_stalls")
            return False
        self.count("atomics")
        entry = self.mshrs.allocate(access.line, access)
        entry.meta["type"] = "IM"
        msg = self._send_ownership_request(access.line)
        self._track(msg, "rmw")
        self._write_issued()
        return True

    def _send_ownership_request(self, line: int) -> Message:
        kind = (MsgKind.REQ_O_DATA if self.dialect == "spandex"
                else MsgKind.GET_M)
        return self.request(kind, line, FULL_LINE_MASK,
                            is_line_granularity=True)

    def self_invalidate(self, regions=None) -> None:
        """MESI relies on writer-initiated invalidation: no-op."""

    # ------------------------------------------------------------------
    # store buffer: read-for-ownership path
    # ------------------------------------------------------------------
    def _issue_writes(self) -> None:
        self._issue_scheduled = False
        entry = self.store_buffer.next_unissued()
        while entry is not None:
            line_obj = self.array.lookup(entry.line)
            if line_obj is not None and line_obj.state in _OWNED:
                # the line arrived meanwhile (e.g. via an earlier miss)
                line_obj.state = MesiState.M
                line_obj.write_data(entry.mask, entry.values)
                self.store_buffer.mark_issued(entry.line)
                self.store_buffer.complete(entry.line)
                self._check_release()
                entry = self.store_buffer.next_unissued()
                continue
            if entry.line in self.mshrs:
                # wait for the in-flight miss to settle, then retry
                break
            if self.mshrs.full:
                break
            self.store_buffer.mark_issued(entry.line)
            mshr_entry = self.mshrs.allocate(entry.line, None)
            mshr_entry.meta["type"] = "IM"
            msg = self._send_ownership_request(entry.line)
            inflight = self._track(msg, "store")
            inflight.meta["sb_line"] = entry.line
            self._write_issued()
            entry = self.store_buffer.next_unissued()

    # ------------------------------------------------------------------
    # replacement
    # ------------------------------------------------------------------
    def _evict(self, victim: CacheLine) -> None:
        if victim.state in (MesiState.M, MesiState.E):
            # Write back the full line (line-granularity ownership).  E
            # lines also write back: the home tracks us as owner.
            self.count("owned_evictions")
            values = victim.read_data(FULL_LINE_MASK)
            self._pending_wb[victim.line] = dict(values)
            kind = (MsgKind.REQ_WB if self.dialect == "spandex"
                    else MsgKind.PUT_M)
            msg = self.request(kind, victim.line, FULL_LINE_MASK,
                               data=values, is_line_granularity=True)
            inflight = self._track(msg, "wb")
            inflight.meta["wb_line"] = victim.line
            self._write_issued()
        self.array.evict(victim.line)

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if msg.kind in _MESI_DATA:
            self._mesi_data(msg)
            return
        if self._fold_response(msg):
            return
        handler = self._EXT_HANDLERS.get(msg.kind)
        if handler is None:
            raise SimulationError(f"{self.name}: unexpected {msg}")
        getattr(self, handler)(msg)

    def _mesi_data(self, msg: Message) -> None:
        """Map classic-MESI response kinds onto the fold machinery."""
        inflight = self._inflight.get(msg.req_id)
        if inflight is None:
            raise SimulationError(f"{self.name}: orphan {msg}")
        if msg.kind in _MESI_EXCL:
            inflight.granted_o |= msg.mask
        self._fold_response(msg)

    def _request_complete(self, inflight: Inflight) -> None:
        if inflight.purpose == "wb":
            self._pending_wb.pop(inflight.meta["wb_line"], None)
            self._write_completed()
            self._drain_store_buffer()
            return
        self._finish_miss(inflight)

    def _finish_miss(self, inflight: Inflight) -> None:
        line = inflight.line
        entry = self.mshrs.release(line)
        line_obj = self._resident(line)
        exclusive = inflight.granted_o == FULL_LINE_MASK
        for index, value in inflight.data.items():
            line_obj.data[index] = value
        if inflight.purpose == "load" and not exclusive:
            line_obj.state = MesiState.S
        elif inflight.purpose == "load":
            line_obj.state = MesiState.E
        else:
            line_obj.state = MesiState.M
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l1.state", self.name, None, line,
                          inflight.req_id, None, 0, None,
                          f"->{line_obj.state.value} {inflight.purpose}")
        if inflight.purpose == "store":
            sb_entry = self.store_buffer.complete(inflight.meta["sb_line"])
            line_obj.write_data(sb_entry.mask, sb_entry.values)
            self._write_completed()
        for access in entry.all_requests():
            if access is None:
                continue
            self._complete_access(line_obj, access)
        if inflight.purpose == "rmw":
            self._write_completed()
        if entry.meta.get("inv_after_grant") \
                and line_obj.state == MesiState.S:
            # an Inv raced this grant (see _ext_inv): the data above
            # was stale the moment it arrived — waiting accesses got
            # their one use, now drop it so nothing re-reads it
            self.array.evict(line)
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("l1.state", self.name, None, line, None, None, 0,
                              None, "S->I inv-after-grant")
        self._run_post_grant(line)
        self._drain_store_buffer()

    def _complete_access(self, line_obj: CacheLine, access: Access) -> None:
        if access.kind == "load":
            access.callback(line_obj.read_data(access.mask))
        elif access.kind == "store":
            line_obj.state = MesiState.M
            line_obj.write_data(access.mask, access.values)
            access.callback({})
        else:  # rmw
            line_obj.state = MesiState.M
            index = iter_mask(access.mask)[0]
            old = line_obj.data[index]
            line_obj.data[index] = access.atomic.apply(old)
            access.callback({index: old})

    def _run_post_grant(self, line: int) -> None:
        queue = self._post_grant.pop(line, None)
        if not queue:
            return
        for fn in queue:
            fn()

    # ------------------------------------------------------------------
    # classic-MESI external requests (hierarchical configurations)
    # ------------------------------------------------------------------
    def _ext_fwd_gets(self, msg: Message) -> None:
        state = self.probe_state(msg.line)
        if state in ("IM", "IS"):
            # The directory already records us as owner, but our data
            # grant travels on a different link (the previous owner's)
            # and may still be in flight.  Stall the forward until the
            # grant lands, as a TBE would.
            self.count("fwd_stalls")
            self.probe_after_grant(msg.line,
                                   lambda: self._ext_fwd_gets(msg))
            return
        if state in ("M", "E"):
            line_obj = self.array.lookup(msg.line, touch=False)
            line_obj.state = MesiState.S
            data = line_obj.read_data(FULL_LINE_MASK)
        elif state == "WB":
            data = dict(self._pending_wb[msg.line])
        else:
            raise SimulationError(f"{self.name}: FwdGetS in {state}")
        self.send(Message(MsgKind.DATA_S, msg.line, FULL_LINE_MASK,
                          src=self.name, dst=msg.requestor,
                          req_id=msg.req_id, data=data,
                          is_line_granularity=True))
        self.send(Message(MsgKind.DATA_S, msg.line, FULL_LINE_MASK,
                          src=self.name, dst=msg.src,
                          req_id=msg.meta["txn_id"], data=data,
                          is_line_granularity=True,
                          meta={"to_dir": True}))

    def _ext_fwd_getm(self, msg: Message) -> None:
        state = self.probe_state(msg.line)
        if state in ("IM", "IS"):
            # same in-flight-grant race as _ext_fwd_gets
            self.count("fwd_stalls")
            self.probe_after_grant(msg.line,
                                   lambda: self._ext_fwd_getm(msg))
            return
        if state in ("M", "E"):
            line_obj = self.array.lookup(msg.line, touch=False)
            data = line_obj.read_data(FULL_LINE_MASK)
            self.array.evict(msg.line)
        elif state == "WB":
            data = dict(self._pending_wb[msg.line])
        else:
            raise SimulationError(f"{self.name}: FwdGetM in {state}")
        self.send(Message(MsgKind.DATA_M, msg.line, FULL_LINE_MASK,
                          src=self.name, dst=msg.requestor,
                          req_id=msg.req_id, data=data,
                          is_line_granularity=True))
        self.send(Message(MsgKind.MESI_INV_ACK, msg.line, FULL_LINE_MASK,
                          src=self.name, dst=msg.src,
                          req_id=msg.meta["txn_id"]))

    def _ext_inv(self, msg: Message) -> None:
        entry = self.mshrs.lookup(msg.line)
        if entry is not None and str(entry.meta.get("type", "IS")) == "IS":
            # The Inv can race our in-flight GetS grant when the data
            # travels on a third party's link (forwarded owner
            # response).  Ack immediately — deferring the ack can
            # deadlock when our own request sits deferred at the home
            # *behind* the invalidating transaction — but poison the
            # grant so the stale line is dropped as soon as the
            # accesses already waiting on it have consumed it.
            entry.meta["inv_after_grant"] = True
            self.count("inv_grant_races")
        line_obj = self.array.lookup(msg.line, touch=False)
        if line_obj is not None and line_obj.state == MesiState.S:
            self.array.evict(msg.line)
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("l1.state", self.name, None, msg.line,
                              msg.req_id, None, 0, None, "S->I inv")
        ack_kind = (MsgKind.MESI_INV_ACK if msg.kind == MsgKind.MESI_INV
                    else MsgKind.ACK)
        self.send(Message(ack_kind, msg.line, msg.mask, src=self.name,
                          dst=msg.src, req_id=msg.req_id))

    # ------------------------------------------------------------------
    # probe API used by the MESI translation unit (§III-D)
    # ------------------------------------------------------------------
    def probe_state(self, line: int) -> str:
        """Line state, including transients: I S E M IS IM WB."""
        if line in self._pending_wb:
            return "WB"
        entry = self.mshrs.lookup(line)
        if entry is not None:
            return str(entry.meta.get("type", "IS"))
        return self._state(line).value

    def probe_read(self, line: int) -> Dict[int, int]:
        """Up-to-date line data (resident copy or retained WB data)."""
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is not None and line_obj.state != MesiState.I:
            return line_obj.read_data(FULL_LINE_MASK)
        wb = self._pending_wb.get(line)
        if wb is not None:
            return dict(wb)
        raise SimulationError(f"{self.name}: probe_read of 0x{line:x}")

    def probe_downgrade(self, line: int, to: str) -> Dict[int, int]:
        """Force M/E -> S or I; returns the line data."""
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is None or line_obj.state == MesiState.I:
            wb = self._pending_wb.get(line)
            if wb is not None:
                return dict(wb)
            raise SimulationError(
                f"{self.name}: downgrade of absent 0x{line:x}")
        data = line_obj.read_data(FULL_LINE_MASK)
        previous = line_obj.state.value
        if to == "S":
            line_obj.state = MesiState.S
        else:
            self.array.evict(line)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l1.state", self.name, None, line, None, None, 0,
                          None, f"{previous}->{to} probe")
        return data

    def probe_write(self, line: int, values: Dict[int, int]) -> None:
        """Apply externally pushed words to an owned line (WTfwd data);
        the line becomes Modified — we now hold the only fresh copy."""
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is None or line_obj.state in (MesiState.I, MesiState.S):
            return     # the line left this cache since the push was sent
        for index, value in values.items():
            line_obj.data[index] = value
        line_obj.state = MesiState.M

    def probe_after_grant(self, line: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` once the pending ownership grant for ``line`` has
        landed and its accesses have completed (§III-D case 2)."""
        self._post_grant.setdefault(line, []).append(fn)

    def probe_wb_data(self, line: int) -> Optional[Dict[int, int]]:
        wb = self._pending_wb.get(line)
        return dict(wb) if wb is not None else None
