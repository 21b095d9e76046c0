"""Spandex home-node protocol logic (paper §III-B).

:class:`SpandexHome` implements the request handling and state
transition machinery of the Spandex LLC: four stable states (I, V, S
per line; O tracked per word with the owner id stored in the data
field), the Table III transition/forward matrix, blocking transient
states for sharer invalidation and revocation writebacks, non-blocking
ownership transfer, and the ReqS policy choice (option (1)
writer-initiated sharing vs option (3) exclusive grant).

The class is reused twice:

* ``repro.core.llc.SpandexLLC`` — DRAM-backed, the flat Spandex LLC;
* ``repro.protocols.gpu_l2.GPUL2`` — the hierarchical baseline's
  intermediate GPU L2, which is a Spandex-style home for the GPU L1s
  but a MESI client toward the directory L3.

The banked entry, deferral, fill and transaction-id plumbing it shares
with the MESI directory lives in
:class:`~repro.core.home_base.HomeController`.
Subclasses supply the backing store through ``_backing_fetch``,
``_backing_grant_write``, ``_backing_writeback`` and may veto/extend
eviction.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Set

from ..coherence.addr import FULL_LINE_MASK, iter_mask
from ..coherence.messages import KIND_LABELS, Message, MsgKind
from ..mem.cache import CacheLine
from ..sim.engine import SimulationError
from .home_base import HomeController


class HomeState(enum.Enum):
    """Per-word LLC states; hot-path dict keys, so identity hash."""

    __hash__ = object.__hash__

    I = "I"
    V = "V"
    S = "S"


#: Table III — the stable next state at the LLC per request type and the
#: message forwarded to the owning core when the word is in O state.
#: (ReqS shows option (1); options (2)/(3) are policy, see _reqs_option.)
TABLE_III = {
    MsgKind.REQ_V: {"next": None, "fwd": MsgKind.REQ_V},
    MsgKind.REQ_S: {"next": HomeState.S, "fwd": MsgKind.REQ_S},
    MsgKind.REQ_WT: {"next": HomeState.V, "fwd": MsgKind.REQ_WT},
    MsgKind.REQ_O: {"next": "O", "fwd": MsgKind.REQ_O},
    MsgKind.REQ_WT_DATA: {"next": HomeState.V, "fwd": MsgKind.RVK_O},
    MsgKind.REQ_O_DATA: {"next": "O", "fwd": MsgKind.REQ_O_DATA},
    MsgKind.REQ_WB: {"next": HomeState.V, "fwd": None},
    # WTfwd extension (policy layer): write through at the home while
    # pushing the data to the current owners, who keep ownership.
    MsgKind.REQ_WT_FWD: {"next": HomeState.V, "fwd": MsgKind.FWD_WT_DATA},
}


class HomeTxn:
    """A blocking transient: words blocked while acks / data collect.

    Ids come from the home (``HomeController._new_txn``), so traces and
    diagnostics do not depend on how many simulations the process ran
    before this one.
    """

    __slots__ = ("txn_id", "line", "mask", "acks_needed", "data_mask",
                 "data", "on_complete", "kind")

    def __init__(self, line: int, mask: int, kind: str,
                 on_complete: Callable[["HomeTxn"], None], txn_id: int):
        self.txn_id = txn_id
        self.line = line
        self.mask = mask
        self.kind = kind
        self.acks_needed = 0
        self.data_mask = 0         # words still awaiting writeback data
        self.data: Dict[int, int] = {}
        self.on_complete = on_complete

    @property
    def done(self) -> bool:
        return self.acks_needed == 0 and self.data_mask == 0


#: hoisted probe-response kinds (checked on every home dispatch)
_PROBE_RESPONSES = (MsgKind.ACK, MsgKind.RSP_RVK_O)


class SpandexHome(HomeController):
    """Shared Spandex home-node machinery (see module docstring).

    Constructor arguments are :class:`HomeController`'s.
    """

    INVALID = HomeState.I
    TXN = HomeTxn
    #: protocol families whose devices can recover from a forced Nack
    #: at this home (a Nack path exists: TU retry/escalation in flat
    #: configurations, the DeNovo native retry in hierarchical ones).
    #: The fault injector only amplifies Nacks toward these families.
    FORCED_NACK_FAMILIES: tuple = ()
    #: request MsgKind -> handler method name, looked up per request so
    #: subclass overrides and handlers patched onto the instance or the
    #: class (fault tests, protocol mutants) apply; bound methods held
    #: by the home would tie it into a reference cycle
    _REQ_HANDLERS = {
        MsgKind.REQ_V: "_handle_reqv",
        MsgKind.REQ_S: "_handle_reqs",
        MsgKind.REQ_WT: "_handle_write",
        MsgKind.REQ_O: "_handle_write",
        MsgKind.REQ_WT_DATA: "_handle_atomic",
        MsgKind.REQ_O_DATA: "_handle_write",
        MsgKind.REQ_WT_FWD: "_handle_wtfwd",
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: device/TU name -> protocol family ('MESI' | 'DeNovo' | 'GPU')
        self.device_protocols: Dict[str, str] = {}
        #: ReqS handling policy (paper §III-B): 'auto' follows the
        #: evaluation choice (option (1) for S-state or MESI-owned
        #: data, option (3) otherwise); 'option1' always implements
        #: writer-initiated Shared state; 'option3' always grants
        #: exclusivity.  Exposed for the ablation benchmarks.
        self.reqs_policy = "auto"
        #: optional deterministic fault injector (repro.faults): forces
        #: spurious Nacks on ReqV to stress requestor retry paths
        self.fault_injector = None

    # ------------------------------------------------------------------
    # backing-store hooks (overridden by LLC / GPU L2)
    # ------------------------------------------------------------------
    def _backing_grant_write(self, line: int,
                             callback: Callable[[], None]) -> None:
        """Ensure the backing permits local writes to ``line``."""
        raise NotImplementedError

    def _backing_writeback(self, line: int, mask: int,
                           values: Dict[int, int]) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # protocol entry (after HomeController.receive's bank arbitration)
    # ------------------------------------------------------------------
    def _dispatch(self, msg: Message) -> None:
        if msg.kind in _PROBE_RESPONSES:
            self._handle_probe_response(msg)
            return
        if msg.kind in TABLE_III:
            self.hstats.incr_group("requests", KIND_LABELS[msg.kind])
            self._process_request(msg)
            return
        self._dispatch_other(msg)

    def _dispatch_other(self, msg: Message) -> None:
        raise SimulationError(f"{self.name}: unexpected message {msg}")

    # ------------------------------------------------------------------
    # deferral / blocking machinery
    # ------------------------------------------------------------------
    def _blocked_mask(self, line_obj: Optional[CacheLine]) -> int:
        if line_obj is None:
            return 0
        return int(line_obj.meta.get("blocked_mask", 0))

    def _block_words(self, line_obj: CacheLine, mask: int) -> None:
        line_obj.meta["blocked_mask"] = self._blocked_mask(line_obj) | mask
        line_obj.pin()

    # ------------------------------------------------------------------
    # line residency
    # ------------------------------------------------------------------
    def _set_owners(self, line_obj: CacheLine, mask: int,
                    owner: Optional[str]) -> None:
        """Give the words in ``mask`` to ``owner`` (None: to the home),
        pinning owned lines (inclusivity).  The only writer of
        ``owner`` and ``owned``."""
        owners = line_obj.owner
        for index in iter_mask(mask):
            owners[index] = owner
        was = line_obj.owned
        if owner is not None:
            line_obj.owned = was | mask
            if mask and not was:
                line_obj.pin()      # first owned word pins the line
        else:
            line_obj.owned = was & ~mask
            if was and not line_obj.owned:
                line_obj.unpin()    # last owned word released

    def _owned_by(self, line_obj: CacheLine, mask: int, owner: str) -> int:
        """The words of ``mask`` that ``owner`` owns."""
        owners = line_obj.owner
        mine = 0
        for index in iter_mask(mask & line_obj.owned):
            if owners[index] == owner:
                mine |= 1 << index
        return mine

    def _dirty_mask(self, line_obj: CacheLine) -> int:
        return int(line_obj.meta.get("dirty_mask", 0))

    def _mark_dirty(self, line_obj: CacheLine, mask: int) -> None:
        line_obj.meta["dirty_mask"] = self._dirty_mask(line_obj) | mask

    def _fill_complete(self, line: int, data: Dict[int, int]) -> None:
        line_obj = self.array.lookup(line)
        if line_obj is None:
            line_obj = self.array.install(line)
        if line_obj.state == HomeState.I:
            line_obj.state = HomeState.V
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("home.state", self.name, None, line, None, None,
                              0, None, "I->V fill")
        # Merge, never clobber: a racing local update (e.g. an atomic
        # that piggybacked on the same upstream grant at the GPU L2)
        # may already have dirtied words, and owned words' data fields
        # belong to their owners.
        protect = line_obj.owned | self._dirty_mask(line_obj)
        words = line_obj.data
        for index in iter_mask(FULL_LINE_MASK & ~protect):
            words[index] = data.get(index, 0)
        self._fetching.discard(line)
        self._replay_deferred(line)

    def _evict(self, victim: CacheLine, then: Callable[[], None]) -> None:
        """Evict ``victim`` (never holds owned words: those are pinned)."""
        self.hstats.incr("evictions")
        sharers = self._sharers(victim)
        if victim.state == HomeState.S and sharers:
            txn = self._new_txn(victim.line, FULL_LINE_MASK, "evict-inv",
                          lambda t: self._evict_finish(victim, then))
            self._begin_invalidate(victim, FULL_LINE_MASK, set(), txn)
            return
        self._evict_finish(victim, then)

    def _evict_finish(self, victim: CacheLine, then: Callable[[], None]) -> None:
        dirty = self._dirty_mask(victim)
        if dirty:
            self._backing_writeback(
                victim.line, dirty, victim.read_data(dirty))
        self.array.evict(victim.line)
        then()

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def _begin_invalidate(self, line_obj: CacheLine, mask: int,
                          exclude: Set[str], txn: HomeTxn) -> None:
        """Send Inv to all sharers (minus ``exclude``); block words."""
        sharers = self._sharers(line_obj)
        targets = sorted(sharers - exclude)
        txn.acks_needed += len(targets)
        self._txns[txn.txn_id] = txn
        self._block_words(line_obj, mask)
        line_obj.meta["sharers"] = set()
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.txn.begin", self.name,
                          line=line_obj.line, req_id=txn.txn_id,
                          info=f"{txn.kind} acks={len(targets)}")
        if line_obj.state == HomeState.S:
            line_obj.state = HomeState.V
            if tracer is not None:
                tracer.record("home.state", self.name, None, line_obj.line,
                              None, None, 0, None, "S->V inv")
        for target in targets:
            self.hstats.incr("invalidations_sent")
            self.network.send(Message(
                MsgKind.INV, line_obj.line, mask, src=self.name,
                dst=target, req_id=txn.txn_id))
        if txn.done:
            self._finish_txn(txn)

    def _begin_revoke(self, line_obj: CacheLine, mask: int,
                      txn: HomeTxn) -> None:
        """RvkO every owner of words in ``mask``; block until data back."""
        by_owner = self._group_by_owner(line_obj, mask)
        txn.data_mask |= mask_union(by_owner)
        self._txns[txn.txn_id] = txn
        self._block_words(line_obj, mask)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.txn.begin", self.name,
                          line=line_obj.line, req_id=txn.txn_id,
                          info=f"{txn.kind} owners={len(by_owner)}")
        for owner, owner_mask in sorted(by_owner.items()):
            self.hstats.incr("revokes_sent")
            self.network.send(Message(
                MsgKind.RVK_O, line_obj.line, owner_mask, src=self.name,
                dst=owner, req_id=txn.txn_id))
        if txn.done:
            self._finish_txn(txn)

    def _handle_probe_response(self, msg: Message) -> None:
        txn = self._txns.get(msg.req_id)
        if txn is None:
            raise SimulationError(f"{self.name}: orphan probe response {msg}")
        if msg.kind == MsgKind.ACK:
            txn.acks_needed -= 1
            released = msg.meta.get("wtfwd_released", 0)
            if released:
                # the owner evicted these words before the WTfwd push
                # arrived: drop its ownership so the stale write-back
                # in flight is discarded (Table III last row)
                line_obj = self.array.lookup(msg.line, touch=False)
                if line_obj is not None:
                    self._set_owners(line_obj, self._owned_by(
                        line_obj, released, msg.src), None)
        else:  # RspRvkO carries writeback data for the revoked words
            line_obj = self.array.lookup(msg.line, touch=False)
            if line_obj is not None:
                revoked = msg.mask & txn.data_mask
                written = 0
                for index in iter_mask(revoked):
                    if index in msg.data:
                        line_obj.data[index] = msg.data[index]
                        written |= 1 << index
                if written:
                    self._mark_dirty(line_obj, written)
                self._set_owners(line_obj, self._owned_by(
                    line_obj, revoked, msg.src), None)
            txn.data_mask &= ~msg.mask
        if txn.done:
            self._finish_txn(txn)

    def _finish_txn(self, txn: HomeTxn) -> None:
        self._txns.pop(txn.txn_id, None)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.txn.end", self.name, line=txn.line,
                          req_id=txn.txn_id, info=txn.kind)
        line_obj = self.array.lookup(txn.line, touch=False)
        if line_obj is not None:
            # Unblock before on_complete so a retried request proceeds
            # immediately (it is the oldest waiter); deferred requests
            # replay afterwards, preserving per-line FIFO order.
            line_obj.meta["blocked_mask"] = \
                self._blocked_mask(line_obj) & ~txn.mask
            line_obj.unpin()
        txn.on_complete(txn)
        self._replay_deferred(txn.line)

    # ------------------------------------------------------------------
    # request processing (Table III)
    # ------------------------------------------------------------------
    def _process_request(self, msg: Message) -> None:
        line_obj = self.array.lookup(msg.line)
        if line_obj is not None and (self._blocked_mask(line_obj) & msg.mask):
            self._defer(msg)
            return
        if msg.kind == MsgKind.REQ_WB:
            self._handle_reqwb(msg)
            return
        line_obj = self._ensure_resident(msg, line_obj)
        if line_obj is None:
            return
        getattr(self, self._REQ_HANDLERS[msg.kind])(msg, line_obj)

    # -- ReqV ------------------------------------------------------------
    def _handle_reqv(self, msg: Message, line_obj: CacheLine) -> None:
        if self.fault_injector is not None and \
                self.device_protocols.get(msg.src) in \
                self.FORCED_NACK_FAMILIES and \
                self.fault_injector.should_nack(msg):
            # Amplified owner-departed race (§III-C.3): reject the ReqV
            # and let the requestor's retry/escalation path recover.
            self.hstats.incr("forced_nacks")
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("home.nack", self.name, dst=msg.src,
                              line=msg.line, req_id=msg.req_id,
                              info="forced")
            self.network.send(Message(
                MsgKind.NACK, msg.line, msg.mask, src=self.name,
                dst=msg.src, req_id=msg.req_id))
            return
        owned = line_obj.owned & msg.mask
        # Forward word-granularity ReqV per remote owner; the owner
        # responds directly to the requestor (Figure 1c).  No state
        # transition, no blocking.
        self._forward_per_owner(msg, line_obj, owned, MsgKind.REQ_V)
        if msg.mask & ~owned:
            # Respond with every locally-available word of the line:
            # line granularity for GPU requests, and DeNovo responses
            # "may include any available up-to-date data in the line".
            local = FULL_LINE_MASK & ~line_obj.owned
            self._respond(msg, MsgKind.RSP_V, local,
                          line_obj.read_data(local))

    # -- ReqS ------------------------------------------------------------
    def _use_option1(self, line_obj: CacheLine, mask: int) -> bool:
        """ReqS policy (paper §III-B evaluation choice).

        Option (1) — real writer-initiated Shared state — when the
        target is already in S state or owned in a MESI core; option (3)
        — treat as ReqO+data, granting exclusivity like MESI's E — in
        all other situations.  The choice is made per line so a MESI
        requestor ends with a single coherent line state.
        """
        if self.reqs_policy != "auto":
            return self.reqs_policy == "option1"
        if line_obj.state == HomeState.S:
            return True
        for index in iter_mask(mask & line_obj.owned):
            if self.device_protocols.get(line_obj.owner[index]) == "MESI":
                return True
        return False

    def _handle_reqs(self, msg: Message, line_obj: CacheLine) -> None:
        if not self._use_option1(line_obj, msg.mask):
            self._grant_exclusive(msg, line_obj, msg.mask)
            return
        owned = line_obj.owned & msg.mask
        plain = msg.mask & ~owned
        if plain:
            # Words up to date at the LLC: respond, record the sharer.
            self._sharers(line_obj).add(msg.src)
            if line_obj.state != HomeState.S:
                line_obj.state = HomeState.S
                tracer = self.engine.tracer
                if tracer is not None:
                    tracer.record("home.state", self.name, None, line_obj.line,
                                  None, None, 0, None, "V->S share")
            self._respond(msg, MsgKind.RSP_S, plain,
                          line_obj.read_data(plain))
        if owned:
            # Owned words: blocking — forward ReqS, wait for the owner's
            # writeback (RspRvkO), then the words become S.
            by_owner = self._group_by_owner(line_obj, owned)
            for owner, owner_mask in sorted(by_owner.items()):
                def complete(txn: HomeTxn, m=msg, lo=line_obj,
                             prev=owner) -> None:
                    lo.state = HomeState.S
                    self._sharers(lo).add(m.src)
                    if self.device_protocols.get(prev) == "MESI":
                        # a MESI owner keeps a Shared copy (M -> S)
                        self._sharers(lo).add(prev)
                txn = self._new_txn(msg.line, owner_mask, f"reqs:{owner}",
                              complete)
                txn.data_mask = owner_mask
                self._txns[txn.txn_id] = txn
                self._block_words(line_obj, owner_mask)
                self._set_owners(line_obj, owner_mask, None)
                self.network.send(Message(
                    MsgKind.REQ_S, msg.line, owner_mask, src=self.name,
                    dst=owner, req_id=msg.req_id, requestor=msg.src,
                    meta={"txn_id": txn.txn_id}))

    def _grant_exclusive(self, msg: Message, line_obj: CacheLine,
                         mask: int) -> None:
        """ReqS option (3): treat like ReqO+data (exclusive grant)."""
        owned = line_obj.owned & mask
        self._forward_per_owner(msg, line_obj, owned, MsgKind.REQ_O_DATA,
                                grant_s=True)
        self._set_owners(line_obj, mask, msg.src)
        local = mask & ~owned
        if local:
            data = line_obj.read_data(local)
            self._respond(msg, MsgKind.RSP_S, local, data,
                          meta={"granted": "O"})

    # -- write-class requests (ReqWT / ReqO / ReqO+data) -------------------
    def _handle_write(self, msg: Message, line_obj: CacheLine) -> None:
        if line_obj.state == HomeState.S and self._sharers(line_obj):
            # Writer-invalidation overhead: Inv sharers, collect Acks,
            # then retry this request (blocking transient).
            txn = self._new_txn(msg.line, msg.mask, "write-inv",
                          lambda t: self._process_request(msg))
            self._begin_invalidate(line_obj, msg.mask, {msg.src}, txn)
            return
        if line_obj.state == HomeState.S:
            line_obj.state = HomeState.V
        self._backing_grant_write(
            msg.line, lambda: self._perform_write(msg, line_obj))

    def _perform_write(self, msg: Message, line_obj: CacheLine) -> None:
        owned = line_obj.owned & msg.mask
        foreign = owned & ~self._owned_by(line_obj, owned, msg.src)
        if msg.kind == MsgKind.REQ_WT:
            # Immediate update + per-owner forwarded write-through; the
            # previous owner answers the requestor (Figure 1d).
            line_obj.write_data(msg.mask, msg.data)
            self._mark_dirty(line_obj, msg.mask)
            self._forward_per_owner(msg, line_obj, foreign, MsgKind.REQ_WT)
            self._set_owners(line_obj, msg.mask, None)
            local = msg.mask & ~foreign
            if local:
                self._respond(msg, MsgKind.RSP_WT, local, {})
            return
        # ReqO / ReqO+data: non-blocking ownership transfer.
        fwd_kind = (MsgKind.REQ_O if msg.kind == MsgKind.REQ_O
                    else MsgKind.REQ_O_DATA)
        self._forward_per_owner(msg, line_obj, foreign, fwd_kind)
        local = msg.mask & ~foreign
        data = line_obj.read_data(local) \
            if msg.kind == MsgKind.REQ_O_DATA else {}
        self._set_owners(line_obj, msg.mask, msg.src)
        if local:
            rsp = (MsgKind.RSP_O if msg.kind == MsgKind.REQ_O
                   else MsgKind.RSP_O_DATA)
            self._respond(msg, rsp, local, data)

    # -- ReqWTfwd (forwarding write-through, policy layer) ------------------
    def _handle_wtfwd(self, msg: Message, line_obj: CacheLine) -> None:
        if line_obj.state == HomeState.S and self._sharers(line_obj):
            txn = self._new_txn(msg.line, msg.mask, "wtfwd-inv",
                          lambda t: self._process_request(msg))
            self._begin_invalidate(line_obj, msg.mask, {msg.src}, txn)
            return
        if line_obj.state == HomeState.S:
            line_obj.state = HomeState.V
        self._backing_grant_write(
            msg.line, lambda: self._perform_wtfwd(msg, line_obj))

    def _perform_wtfwd(self, msg: Message, line_obj: CacheLine) -> None:
        """Write through at the home and push the data to the owners.

        Unlike ReqWT, the owners keep ownership — the push lands the
        producer's data directly in the consumer's cache.  The words
        stay blocked until every owner acknowledges the push: the
        requestor's completion (its release fence) must imply that no
        cache still serves the old values, and a racing ReqO for the
        same words must serialize after the push (it would otherwise
        transfer ownership while stale data is still being replaced).
        Owners that already evicted the words report them in the Ack's
        ``wtfwd_released`` mask and the home drops their ownership —
        their in-flight write-back is stale and will be discarded.
        """
        line_obj.write_data(msg.mask, msg.data)
        self._mark_dirty(line_obj, msg.mask)
        owned = line_obj.owned & msg.mask
        # Words the writer itself still owns (the policy demoted an
        # owned-word store): reclaim silently — the request data IS
        # the owner's newest value, pushing it back would be circular.
        mine = self._owned_by(line_obj, owned, msg.src)
        self._set_owners(line_obj, mine, None)
        owned &= ~mine
        if not owned:
            self._respond(msg, MsgKind.RSP_WT_FWD, msg.mask, {})
            return
        by_owner = self._group_by_owner(line_obj, owned)
        txn = self._new_txn(
            msg.line, owned, "wtfwd",
            lambda t, m=msg: self._respond(m, MsgKind.RSP_WT_FWD,
                                           m.mask, {}))
        txn.acks_needed = len(by_owner)
        self._txns[txn.txn_id] = txn
        self._block_words(line_obj, owned)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.txn.begin", self.name, line=msg.line,
                          req_id=txn.txn_id,
                          info=f"wtfwd owners={len(by_owner)}")
        for owner, owner_mask in sorted(by_owner.items()):
            self.hstats.incr("forwards")
            self.hstats.incr("wtfwd_pushes")
            if tracer is not None:
                tracer.record("home.fwd", self.name, dst=owner,
                              line=msg.line, req_id=txn.txn_id,
                              info=f"FwdWTData for {msg.src}")
            data = {i: msg.data[i] for i in iter_mask(owner_mask)
                    if i in msg.data}
            self.network.send(Message(
                MsgKind.FWD_WT_DATA, msg.line, owner_mask, src=self.name,
                dst=owner, req_id=txn.txn_id, requestor=msg.src,
                data=data))

    # -- ReqWT+data (atomics performed at the LLC) -------------------------
    def _handle_atomic(self, msg: Message, line_obj: CacheLine) -> None:
        if line_obj.state == HomeState.S and self._sharers(line_obj):
            txn = self._new_txn(msg.line, msg.mask, "atomic-inv",
                          lambda t: self._process_request(msg))
            self._begin_invalidate(line_obj, msg.mask, {msg.src}, txn)
            return
        if line_obj.state == HomeState.S:
            line_obj.state = HomeState.V
        owned = line_obj.owned & msg.mask
        if owned:
            # Blocking: revoke ownership, wait for the writeback, then
            # retry (Figure 1b).
            txn = self._new_txn(msg.line, owned, "atomic-rvk",
                          lambda t: self._process_request(msg))
            self._begin_revoke(line_obj, owned, txn)
            return
        self._backing_grant_write(
            msg.line, lambda: self._perform_atomic(msg, line_obj))

    def _perform_atomic(self, msg: Message, line_obj: CacheLine) -> None:
        self.hstats.incr("atomics")
        old: Dict[int, int] = {}
        for index in iter_mask(msg.mask):
            old[index] = line_obj.data[index]
            if msg.atomic is not None:
                line_obj.data[index] = msg.atomic.apply(old[index])
            elif index in msg.data:
                line_obj.data[index] = msg.data[index]
        self._mark_dirty(line_obj, msg.mask)
        self._respond(msg, MsgKind.RSP_WT_DATA, msg.mask, old)

    # -- ReqWB --------------------------------------------------------------
    def _handle_reqwb(self, msg: Message) -> None:
        line_obj = self.array.lookup(msg.line)
        applied = 0
        if line_obj is not None:
            applied = self._owned_by(line_obj, msg.mask, msg.src)
            self._set_owners(line_obj, applied, None)
            for index in iter_mask(applied):
                if index in msg.data:
                    line_obj.data[index] = msg.data[index]
            if applied:
                self._mark_dirty(line_obj, applied)
        # A write-back from a non-owner raced with an ownership transfer;
        # ack it and drop the stale data (Table III last row).
        if applied != msg.mask:
            self.hstats.incr("stale_writebacks")
        self._respond(msg, MsgKind.RSP_WB, msg.mask, {})

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _group_by_owner(self, line_obj: CacheLine,
                        mask: int) -> Dict[str, int]:
        owners = line_obj.owner
        by_owner: Dict[str, int] = {}
        for index in iter_mask(mask & line_obj.owned):
            owner = owners[index]
            by_owner[owner] = by_owner.get(owner, 0) | (1 << index)
        return by_owner

    def _forward_per_owner(self, msg: Message, line_obj: CacheLine,
                           mask: int, kind: MsgKind,
                           grant_s: bool = False) -> None:
        if not mask:
            return
        tracer = self.engine.tracer
        for owner, owner_mask in sorted(
                self._group_by_owner(line_obj, mask).items()):
            self.hstats.incr("forwards")
            if tracer is not None:
                tracer.record("home.fwd", self.name, dst=owner,
                              line=msg.line, req_id=msg.req_id,
                              info=f"{KIND_LABELS[kind]} for {msg.src}")
            meta = {"grant_s": True} if grant_s else {}
            data = {}
            if kind == MsgKind.REQ_WT:
                data = {i: msg.data[i] for i in iter_mask(owner_mask)
                        if i in msg.data}
            self.network.send(Message(
                kind, msg.line, owner_mask, src=self.name, dst=owner,
                req_id=msg.req_id, requestor=msg.src, data=data,
                atomic=msg.atomic, meta=meta))

    def _respond(self, msg: Message, kind: MsgKind, mask: int,
                 data: Dict[int, int],
                 meta: Optional[dict] = None) -> None:
        self.network.send(Message(
            kind, msg.line, mask, src=self.name, dst=msg.src,
            req_id=msg.req_id, data=data, meta=meta or {},
            is_line_granularity=msg.is_line_granularity))


def mask_union(by_owner: Dict[str, int]) -> int:
    mask = 0
    for value in by_owner.values():
        mask |= value
    return mask
