"""DeNovo L1 (paper §II-C).

Per-word stable states I / V / O.  Stores and atomics obtain ownership
at word (modification) granularity; reads issue word-granularity ReqV
whose responses may opportunistically carry the rest of the line.
Self-invalidation at acquire clears only Valid words — Owned words
survive synchronization, which is the source of DeNovo's reuse
advantage over GPU coherence under frequent synchronization.

Because this cache holds Owned words, it must serve forwarded requests
and probes at word granularity (paper Table IV), including the races of
§III-C: responses during pending ownership upgrades, pending
write-backs, and Nacks for forwarded ReqV that miss a departed owner.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from ..coherence.addr import WORDS_PER_LINE, iter_mask
from ..coherence.messages import Message, MsgKind
from ..mem.cache import CacheLine
from ..sim.engine import SimulationError
from .base import Access, Inflight, L1Controller


class DnState(enum.Enum):
    """Per-word DeNovo states; hot-path dict keys, so identity hash."""

    __hash__ = object.__hash__

    I = "I"
    V = "V"
    O = "O"


#: the word states of a line this L1 does not hold (read-only)
_NO_WORDS = (DnState.I,) * WORDS_PER_LINE


class DeNovoL1(L1Controller):
    """Hybrid ownership + self-invalidation L1 cache."""

    PROPERTIES = {
        "stale_invalidation": "self-invalidation",
        "write_propagation": "ownership",
        "load_granularity": "flexible",
        "store_granularity": "word",
    }
    PROTOCOL_FAMILY = "DeNovo"
    INVALID = DnState.I
    STORE_LOOKS_UP = True
    #: MsgKind -> handler method name, as in ``MESIL1``
    _EXT_HANDLERS = {
        MsgKind.REQ_V: "_ext_reqv",
        MsgKind.REQ_O: "_ext_reqo",
        MsgKind.REQ_WT: "_ext_reqwt",
        MsgKind.REQ_O_DATA: "_ext_reqo_data",
        MsgKind.RVK_O: "_ext_rvko",
        MsgKind.REQ_S: "_ext_reqs",
        MsgKind.INV: "_ext_inv",
        MsgKind.FWD_WT_DATA: "_ext_wt_fwd",
    }

    def __init__(self, *args, atomic_policy: str = "own",
                 nack_retry_limit: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        if atomic_policy not in ("own", "llc"):
            raise ValueError(f"bad atomic policy {atomic_policy!r}")
        #: 'own' = ReqO+data and perform locally; 'llc' = ReqWT+data at
        #: the LLC (the SDG CPU policy that avoids blocking states when
        #: synchronizing with GPU-coherence devices).
        self.atomic_policy = atomic_policy
        self.nack_retry_limit = nack_retry_limit
        #: line -> {word: value} retained until RspWB (paper §III-C.2)
        self._pending_wb: Dict[int, Dict[int, int]] = {}
        #: line -> word mask downgraded while an ownership grant was
        #: pending (§III-C.1): granted words complete but land in I.
        self._downgraded_pending: Dict[int, int] = {}
        #: forwarded data requests delayed until a pending grant lands
        self._delayed_fwd: Dict[int, List[Message]] = {}

    # ------------------------------------------------------------------
    # device-facing API
    # ------------------------------------------------------------------
    def _do_load(self, access: Access) -> bool:
        line_obj = self.array.lookup(access.line)
        states = line_obj.word_states if line_obj is not None else _NO_WORDS
        if access.invalidate_first:
            # spin-wait reload: drop the stale Valid copy, keep Owned
            for index in iter_mask(access.mask):
                if states[index] is DnState.V:
                    states[index] = DnState.I
        # the store-buffer check leaves the array alone: the lookup
        # above still holds
        if self._load_from_buffer(access):
            return True
        missing = access.mask
        for index in iter_mask(access.mask):
            if states[index] is not DnState.I:
                missing &= ~(1 << index)
        if not missing:
            self._counters["l1.hits"] += 1
            values = self._with_buffered(
                access, line_obj.read_data(access.mask))
            self.schedule(self.hit_latency, access.callback, (values,))
            return True
        if access.line in self.mshrs:
            self.mshrs.attach(access.line, access)
            return True
        if self.mshrs.full:
            self.count("mshr_stalls")
            return False
        self._counters["l1.load_misses"] += 1
        entry = self.mshrs.allocate(access.line, access)
        msg = self.request(MsgKind.REQ_V, access.line, missing)
        self._track(msg, "load")
        entry.meta["req_id"] = msg.req_id
        entry.meta["requested"] = missing
        return True

    def _do_store(self, access: Access) -> bool:
        line_obj = self.array.lookup(access.line)
        if line_obj is not None:
            states = line_obj.word_states
            owned = access.mask
            for index in iter_mask(owned):
                if states[index] is not DnState.O:
                    owned = 0
                    break
            if owned and self.tu is not None and \
                    self.tu.demotes_stores(access.line):
                # the request policy maps stores of this line to a
                # forwarding write-through: a silent owner write would
                # hoard the data here, so route it through the store
                # buffer and let the TU convert the ReqO
                owned = 0
            if owned:
                self._counters["l1.hits"] += 1
                line_obj.write_data(access.mask, access.values)
                self._mark_dirty(line_obj, access.mask)
                self.schedule(self.hit_latency, access.callback, ({},))
                return True
        return self._buffer_store(access)

    def _do_rmw(self, access: Access) -> bool:
        if self.mshrs.full:
            self.count("mshr_stalls")
            return False
        # Serialize same-word RMWs from this cache: a second request
        # while our own ownership grant is in flight would race with it
        # at the home and read a stale value.  Retrying turns the later
        # RMW into a local Owned hit.
        if self._pending_grant_mask(access.line) & access.mask:
            self.count("rmw_serialize_stalls")
            return False
        self.count("atomics")
        line_obj = self.array.lookup(access.line)
        index = iter_mask(access.mask)[0]
        if (self.atomic_policy == "own" and line_obj is not None
                and line_obj.word_states[index] == DnState.O):
            old = line_obj.data[index]
            line_obj.data[index] = access.atomic.apply(old)
            self._mark_dirty(line_obj, access.mask)
            self.count("atomic_hits")
            self.schedule(self.hit_latency, access.callback, ({index: old},))
            return True
        if self.atomic_policy == "llc":
            msg = self.request(MsgKind.REQ_WT_DATA, access.line,
                               access.mask, atomic=access.atomic)
        else:
            msg = self.request(MsgKind.REQ_O_DATA, access.line, access.mask,
                               atomic=access.atomic)
        inflight = self._track(msg, "rmw")
        inflight.accesses.append(access)
        self._write_issued()
        return True

    def self_invalidate(self, regions=None) -> None:
        """Flash-invalidate Valid words; Owned words are kept.  With
        ``regions``, only Valid words inside the tagged ranges are
        invalidated — the DeNovo regions optimization that preserves
        reuse in data software knows cannot be stale (paper §II-C)."""
        self.count("flash_invalidations")
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l1.state", self.name, None, None, None, None, 0,
                          None, "flash self-invalidate"
                                + (" (regions)" if regions else ""))
        inside = self._region_filter(regions)
        valid, invalid, owned = DnState.V, DnState.I, DnState.O
        for line_obj in list(self.array.lines()):
            if not inside(line_obj.line):
                continue
            states = line_obj.word_states
            if valid in states:
                states[:] = [invalid if state is valid else state
                             for state in states]
            if owned not in states and not line_obj.pinned:
                self.array.evict(line_obj.line)

    # ------------------------------------------------------------------
    # write buffer: ownership acquisition
    # ------------------------------------------------------------------
    def _mark_dirty(self, line_obj: CacheLine, mask: int) -> None:
        line_obj.meta["dirty_mask"] = \
            int(line_obj.meta.get("dirty_mask", 0)) | mask

    def _issue_writes(self) -> None:
        self._issue_scheduled = False
        entry = self.store_buffer.next_unissued()
        while entry is not None:
            self.store_buffer.mark_issued(entry.line)
            # ReqO requests ownership only: the store overwrites the
            # words, so no data response is needed (paper §III-A).
            msg = self.request(MsgKind.REQ_O, entry.line, entry.mask)
            inflight = self._track(msg, "store")
            inflight.meta["sb_line"] = entry.line
            if msg.meta.get("wtfwd"):
                # the TU converted the ReqO to a forwarding
                # write-through: completion installs no ownership
                inflight.meta["wtfwd"] = True
            self._write_issued()
            entry = self.store_buffer.next_unissued()

    # ------------------------------------------------------------------
    # replacement
    # ------------------------------------------------------------------
    def _evict(self, victim: CacheLine) -> None:
        owned = victim.words_in(DnState.O)
        if owned:
            # Replacement of Owned data: word-granularity write-back;
            # data is retained until the write-back completes.
            self.count("owned_evictions")
            values = victim.read_data(owned)
            self._pending_wb.setdefault(victim.line, {}).update(values)
            msg = self.request(MsgKind.REQ_WB, victim.line, owned,
                               data=values)
            inflight = self._track(msg, "wb")
            inflight.meta["wb_line"] = victim.line
            inflight.meta["wb_mask"] = owned
            self._write_issued()
        self.array.evict(victim.line)

    # ------------------------------------------------------------------
    # network receive: responses, forwarded requests, probes
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        if msg.kind == MsgKind.NACK:
            self._handle_nack(msg)
            return
        if self._fold_response(msg):
            return
        handler = self._EXT_HANDLERS.get(msg.kind)
        if handler is None:
            raise SimulationError(f"{self.name}: unexpected {msg}")
        getattr(self, handler)(msg)

    def _handle_nack(self, msg: Message) -> None:
        """Native retry of a Nacked ReqV (hierarchical configurations;
        under Spandex the TU intercepts Nacks before they reach us)."""
        inflight = self._inflight.get(msg.req_id)
        if inflight is None:
            return
        retries = inflight.meta.get("retries", 0)
        if retries < self.nack_retry_limit:
            inflight.meta["retries"] = retries + 1
            self.count("reqv_retries")
            self.send(Message(MsgKind.REQ_V, msg.line, msg.mask,
                              src=self.name, dst=self.home_for(msg.line),
                              req_id=msg.req_id))
        else:
            # escalate to an ordering-enforcing request (§III-C.3)
            self.count("reqv_escalations")
            self.send(Message(MsgKind.REQ_O_DATA, msg.line, msg.mask,
                              src=self.name, dst=self.home_for(msg.line),
                              req_id=msg.req_id))

    # -- responses -------------------------------------------------------
    def _request_complete(self, inflight: Inflight) -> None:
        if inflight.purpose == "load":
            self._finish_load(inflight)
        elif inflight.purpose == "store":
            self._finish_store(inflight)
        elif inflight.purpose == "rmw":
            self._finish_rmw(inflight)
        elif inflight.purpose == "wb":
            line = inflight.meta["wb_line"]
            done_mask = inflight.meta["wb_mask"]
            retained = self._pending_wb.get(line)
            if retained is not None:
                # keep words still covered by another outstanding WB
                still_out = 0
                for other in self._inflight.values():
                    if other.purpose == "wb" and \
                            other.meta.get("wb_line") == line:
                        still_out |= other.meta["wb_mask"]
                for index in iter_mask(done_mask & ~still_out):
                    retained.pop(index, None)
                if not retained:
                    self._pending_wb.pop(line, None)
            self._write_completed()

    def _install_words(self, line: int, data: Dict[int, int],
                       state: DnState, mask: int) -> CacheLine:
        line_obj = self._resident(line)
        words, states = line_obj.data, line_obj.word_states
        for index in iter_mask(mask):
            if index in data:
                words[index] = data[index]
                states[index] = state
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l1.state", self.name, None, line, None, None, 0,
                          None, f"->{state.value} mask=0x{mask:04x}")
        return line_obj

    def _finish_load(self, inflight: Inflight) -> None:
        entry = self.mshrs.release(inflight.line)
        downgraded = self._downgraded_pending.pop(inflight.line, 0)
        line_obj = self.array.lookup(inflight.line, touch=False)
        states = line_obj.word_states if line_obj is not None else _NO_WORDS
        cache_mask = 0
        for index in inflight.data:
            if states[index] is DnState.I:
                cache_mask |= 1 << index
        cache_mask &= ~inflight.no_cache & ~downgraded
        if cache_mask:
            line_obj = self._install_words(
                inflight.line, inflight.data, DnState.V, cache_mask)
            if inflight.granted_o:
                line_obj.set_words(inflight.granted_o & cache_mask,
                                   DnState.O)
                self._mark_dirty(line_obj, inflight.granted_o & cache_mask)
        # On a partial hit the ReqV asked only for the words missing
        # here: the words this L1 holds answer from its own copy.
        accesses = entry.all_requests()
        unrequested = 0
        for access in accesses:
            unrequested |= access.mask
        unrequested &= ~entry.meta["requested"]
        source = inflight.data
        if unrequested:
            # still the resident line: only _install_words touched the
            # array, and it returned the line it installed
            if line_obj is not None:
                held = unrequested & ~line_obj.words_in(DnState.I)
                source = {**source, **line_obj.read_data(held)}
        for access in accesses:
            values = {index: source.get(index, 0)
                      for index in iter_mask(access.mask)}
            access.callback(values)
        self._release_delayed(inflight.line)

    def _finish_store(self, inflight: Inflight) -> None:
        line = inflight.meta["sb_line"]
        entry = self.store_buffer.complete(line)
        downgraded = self._downgraded_pending.pop(line, 0)
        # A store the TU converted to a forwarding write-through grants
        # no ownership: the home (and any surviving owner) already has
        # the data; installing the words as Owned here would fabricate
        # an ownership the home never recorded.
        keep = 0 if inflight.meta.get("wtfwd") else entry.mask & ~downgraded
        if keep:
            line_obj = self._resident(line)
            line_obj.set_words(keep, DnState.O)
            line_obj.write_data(keep, entry.values)
            self._mark_dirty(line_obj, keep)
        elif inflight.meta.get("wtfwd"):
            # A demoted owned-word store: the home reclaimed our
            # ownership when it absorbed the ReqWTfwd, so any words we
            # still hold as Owned are stale — drop them (the home has
            # the newest values).
            line_obj = self.array.lookup(line, touch=False)
            if line_obj is not None:
                for index in iter_mask(entry.mask):
                    if line_obj.word_states[index] == DnState.O:
                        line_obj.word_states[index] = DnState.I
                line_obj.meta["dirty_mask"] = \
                    int(line_obj.meta.get("dirty_mask", 0)) & ~entry.mask
        self._write_completed()
        self._release_delayed(line)

    def _finish_rmw(self, inflight: Inflight) -> None:
        access = inflight.accesses[0]
        index = iter_mask(access.mask)[0]
        old = inflight.data.get(index, 0)
        if inflight.granted_o:
            downgraded = self._downgraded_pending.pop(inflight.line, 0)
            new = access.atomic.apply(old)
            if not (downgraded >> index) & 1:
                line_obj = self._install_words(
                    inflight.line, {index: new}, DnState.O, access.mask)
                self._mark_dirty(line_obj, access.mask)
            else:
                # ownership was stripped while pending; the value was
                # already published in our probe response
                pass
        access.callback({index: old})
        self._write_completed()
        self._release_delayed(inflight.line)

    # -- forwarded requests and probes (Table IV) --------------------------
    def _owned_data(self, msg: Message) -> Optional[Dict[int, int]]:
        """Up-to-date data for ``msg.mask``, from cache or pending WB."""
        line_obj = self.array.lookup(msg.line, touch=False)
        states = line_obj.word_states if line_obj is not None else _NO_WORDS
        values: Dict[int, int] = {}
        wb = self._pending_wb.get(msg.line, {})
        for index in iter_mask(msg.mask):
            if states[index] is DnState.O:
                values[index] = line_obj.data[index]
            elif index in wb:
                values[index] = wb[index]
            else:
                return None
        return values

    def _pending_grant_mask(self, line: int) -> int:
        """Words with an ownership grant in flight (store or RMW)."""
        mask = 0
        for inflight in self._inflight.values():
            if inflight.line != line:
                continue
            if inflight.purpose == "store":
                entry = self.store_buffer.entries.get(line)
                if entry is not None:
                    mask |= entry.mask & inflight.remaining
            elif inflight.purpose == "rmw" and inflight.remaining:
                for access in inflight.accesses:
                    mask |= access.mask
        return mask

    def _downgrade_words(self, msg: Message) -> None:
        """Give up ownership of ``msg.mask``: Owned words drop to I, and
        a grant still in flight for them lands in I (§III-C.1)."""
        line, mask = msg.line, msg.mask
        pending = self._pending_grant_mask(line) & mask
        if pending:
            self._downgraded_pending[line] = \
                self._downgraded_pending.get(line, 0) | pending
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is None:
            return
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l1.state", self.name, None, line, None, None, 0,
                          None, f"O->I mask=0x{mask:04x}")
        states = line_obj.word_states
        dropped = 0
        for index in iter_mask(mask):
            if states[index] is DnState.O:
                states[index] = DnState.I
                dropped |= 1 << index
        if dropped:
            line_obj.meta["dirty_mask"] = \
                int(line_obj.meta.get("dirty_mask", 0)) & ~dropped

    def _ext_reqv(self, msg: Message) -> None:
        values = self._owned_data(msg)
        if values is None:
            # pending ReqO: the store fully overwrites, so its buffered
            # values are the up-to-date data (§III-C.1)
            values = self.store_buffer.forward(msg.line, msg.mask)
        if values is None:
            if self._delay_if_pending_rmw(msg):
                return
            # owner has moved on: Nack, the requestor retries (§III-C.3)
            self.count("nacks_sent")
            self.send(Message(MsgKind.NACK, msg.line, msg.mask,
                              src=self.name, dst=msg.requestor or msg.src,
                              req_id=msg.req_id))
            return
        self.send(Message(MsgKind.RSP_V, msg.line, msg.mask,
                          src=self.name, dst=msg.requestor or msg.src,
                          req_id=msg.req_id, data=values))

    def _delay_if_pending_rmw(self, msg: Message) -> bool:
        """Delay a data-needing forward while our own data is pending."""
        for inflight in self._inflight.values():
            if inflight.line == msg.line and inflight.purpose == "rmw" \
                    and inflight.remaining:
                self._delayed_fwd.setdefault(msg.line, []).append(msg)
                return True
        return False

    def _release_delayed(self, line: int) -> None:
        queue = self._delayed_fwd.pop(line, None)
        if not queue:
            return
        for msg in queue:
            self.receive(msg)

    def _ext_reqo(self, msg: Message) -> None:
        # ownership-only downgrade: never needs data, respond at once
        self._downgrade_words(msg)
        self.send(Message(MsgKind.RSP_O, msg.line, msg.mask,
                          src=self.name, dst=msg.requestor or msg.src,
                          req_id=msg.req_id))

    def _ext_reqwt(self, msg: Message) -> None:
        # a write-through overwrote these words at the home; drop ours
        self._downgrade_words(msg)
        self.send(Message(MsgKind.RSP_WT, msg.line, msg.mask,
                          src=self.name, dst=msg.requestor or msg.src,
                          req_id=msg.req_id))

    def _ext_reqo_data(self, msg: Message) -> None:
        values = self._owned_data(msg)
        if values is None:
            values = self.store_buffer.forward(msg.line, msg.mask)
        if values is None:
            if self._delay_if_pending_rmw(msg):
                return
            raise SimulationError(
                f"{self.name}: ReqO+data for unowned words {msg}")
        self._downgrade_words(msg)
        self.send(Message(MsgKind.RSP_O_DATA, msg.line, msg.mask,
                          src=self.name, dst=msg.requestor or msg.src,
                          req_id=msg.req_id, data=values,
                          meta=dict(msg.meta)))

    def _ext_rvko(self, msg: Message) -> None:
        values = self._owned_data(msg)
        if values is None:
            values = self.store_buffer.forward(msg.line, msg.mask)
        if values is None:
            if self._delay_if_pending_rmw(msg):
                return
            raise SimulationError(f"{self.name}: RvkO for unowned {msg}")
        self._downgrade_words(msg)
        self.send(Message(MsgKind.RSP_RVK_O, msg.line, msg.mask,
                          src=self.name, dst=msg.src,
                          req_id=msg.req_id, data=values))

    def _ext_reqs(self, msg: Message) -> None:
        """Forwarded ReqS reaching a DeNovo owner (mixed-owner lines
        under the home's option-(1) policy): write back and keep a
        Valid copy — V is always safe under DRF."""
        values = self._owned_data(msg)
        if values is None:
            values = self.store_buffer.forward(msg.line, msg.mask)
        if values is None:
            if self._delay_if_pending_rmw(msg):
                return
            raise SimulationError(f"{self.name}: ReqS for unowned {msg}")
        line_obj = self.array.lookup(msg.line, touch=False)
        if line_obj is not None:
            for index in iter_mask(msg.mask):
                if line_obj.word_states[index] == DnState.O:
                    line_obj.word_states[index] = DnState.V
                    line_obj.meta["dirty_mask"] = \
                        int(line_obj.meta.get("dirty_mask", 0)) \
                        & ~(1 << index)
        self.send(Message(MsgKind.RSP_S, msg.line, msg.mask,
                          src=self.name, dst=msg.requestor or msg.src,
                          req_id=msg.req_id, data=values))
        self.send(Message(MsgKind.RSP_RVK_O, msg.line, msg.mask,
                          src=self.name, dst=msg.src,
                          req_id=msg.meta["txn_id"], data=values))

    def _ext_wt_fwd(self, msg: Message) -> None:
        """WTfwd push: a producer wrote through words we own.

        Owned words take the pushed data in place and stay Owned — the
        producer's data lands directly in this cache, which is the
        whole point of the forwarding write-through.  Words we no
        longer own (evicted, write-back in flight) are reported back in
        ``wtfwd_released`` so the home drops our ownership and discards
        the stale write-back; their retained copy is purged so a later
        direct (owner-predicted) ReqV cannot be served stale data.
        """
        line_obj = self.array.lookup(msg.line, touch=False)
        wb = self._pending_wb.get(msg.line)
        applied = 0
        released = 0
        for index in iter_mask(msg.mask):
            if line_obj is not None and \
                    line_obj.word_states[index] == DnState.O:
                if index in msg.data:
                    line_obj.data[index] = msg.data[index]
                    self._mark_dirty(line_obj, 1 << index)
                applied |= 1 << index
            else:
                released |= 1 << index
                if wb is not None:
                    wb.pop(index, None)
        if wb is not None and not wb:
            self._pending_wb.pop(msg.line, None)
        if applied:
            self.count("wtfwd_fills")
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("l1.state", self.name, None, msg.line, None,
                              None, 0, None,
                              f"wtfwd fill mask=0x{applied:04x}")
        meta = {"wtfwd_released": released} if released else {}
        self.send(Message(MsgKind.ACK, msg.line, msg.mask,
                          src=self.name, dst=msg.src, req_id=msg.req_id,
                          meta=meta))

    def _ext_inv(self, msg: Message) -> None:
        # DeNovo holds no Shared state: acknowledge (§III-C case 3),
        # but conservatively drop Valid copies of the targeted words.
        line_obj = self.array.lookup(msg.line, touch=False)
        if line_obj is not None:
            for index in iter_mask(msg.mask):
                if line_obj.word_states[index] == DnState.V:
                    line_obj.word_states[index] = DnState.I
        self.send(Message(MsgKind.ACK, msg.line, msg.mask,
                          src=self.name, dst=msg.src, req_id=msg.req_id))
