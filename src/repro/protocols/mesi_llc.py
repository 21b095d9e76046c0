"""MESI directory LLC — the hierarchical baseline's L3 (paper §II-D).

A line-granularity, read-for-ownership directory modelled on the AMD
APU organization the paper evaluates against: CPU MESI L1s and the GPU
L2 are its clients.  Its defining costs — which Spandex avoids — are
line-granularity blocking transient states on every ownership change,
sharer invalidation on writes, and full-line data transfers.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from ..coherence.addr import FULL_LINE_MASK
from ..coherence.messages import KIND_LABELS, Message, MsgKind
from ..core.home_base import HomeController
from ..mem.cache import CacheLine
from ..mem.dram import MainMemory
from ..network.noc import Network
from ..sim.engine import Engine, SimulationError
from ..sim.stats import StatsRegistry


class DirState(enum.Enum):
    """Directory states; hot-path dict keys, so identity hash."""

    __hash__ = object.__hash__

    I = "I"
    V = "V"     # present, no sharers or owner
    S = "S"     # present, sharer list valid
    M = "M"     # owned by a client (data here stale)


class DirTxn:
    """A blocking directory transient (ids from
    ``HomeController._new_txn``)."""

    __slots__ = ("txn_id", "line", "acks_needed", "want_data",
                 "on_complete")

    def __init__(self, line: int,
                 on_complete: Callable[["DirTxn"], None], txn_id: int):
        self.txn_id = txn_id
        self.line = line
        self.acks_needed = 0
        self.want_data = False
        self.on_complete = on_complete

    @property
    def done(self) -> bool:
        return self.acks_needed == 0 and not self.want_data


class MESIDirectoryLLC(HomeController):
    """Blocking MESI directory with inclusive data array."""

    INVALID = DirState.I
    TXN = DirTxn

    def __init__(self, engine: Engine, network: Network,
                 stats: StatsRegistry, dram: MainMemory,
                 size_bytes: int = 8 * 1024 * 1024, assoc: int = 16,
                 access_latency: int = 12, banks: int = 16,
                 bank_busy_cycles: int = 2, name: str = "l3"):
        super().__init__(engine, name, network, stats, size_bytes, assoc,
                         access_latency, banks, bank_busy_cycles)
        self.dram = dram

    def _backing_fetch(self, line: int,
                       callback: Callable[[Dict[int, int]], None]) -> None:
        self.dram.fetch(line, callback)

    # ------------------------------------------------------------------
    def _dispatch(self, msg: Message) -> None:
        if msg.kind == MsgKind.MESI_INV_ACK or (
                msg.kind == MsgKind.DATA_S and msg.meta.get("to_dir")):
            self._probe_response(msg)
            return
        if msg.kind in (MsgKind.GET_S, MsgKind.GET_M, MsgKind.PUT_M):
            self.hstats.incr_group("requests", KIND_LABELS[msg.kind])
            self._process_request(msg)
            return
        raise SimulationError(f"{self.name}: unexpected {msg}")

    # -- blocking / deferral ----------------------------------------------
    def _blocked(self, line_obj: Optional[CacheLine]) -> bool:
        return bool(line_obj is not None and line_obj.meta.get("blocked"))

    def _block(self, line_obj: CacheLine) -> None:
        line_obj.meta["blocked"] = True
        line_obj.pin()

    def _unblock(self, line: int) -> None:
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is not None:
            line_obj.meta["blocked"] = False
            line_obj.unpin()

    # -- owner pinning ------------------------------------------------------
    def _owner(self, line_obj: CacheLine) -> Optional[str]:
        return line_obj.meta.get("owner")

    def _set_owner(self, line_obj: CacheLine, owner: Optional[str]) -> None:
        had = line_obj.meta.get("owner") is not None
        line_obj.meta["owner"] = owner
        if owner is not None and not had:
            line_obj.pin()      # inclusive: owned lines never evicted
        elif owner is None and had:
            line_obj.unpin()

    # -- residency -----------------------------------------------------------
    def _fill_complete(self, line: int, data: Dict[int, int]) -> None:
        line_obj = self.array.lookup(line)
        if line_obj is None:
            line_obj = self.array.install(line)
        line_obj.state = DirState.V
        line_obj.data = [data.get(i, 0) for i in range(16)]
        line_obj.meta["dirty"] = False
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.state", self.name, None, line, None, None, 0,
                          None, "I->V fill")
        self._fetching.discard(line)
        self._replay_deferred(line)

    def _evict(self, victim: CacheLine, then: Callable[[], None]) -> None:
        self.hstats.incr("evictions")
        sharers = self._sharers(victim)
        if victim.state == DirState.S and sharers:
            txn = self._new_txn(victim.line,
                         lambda t: self._evict_finish(victim, then))
            self._block(victim)
            targets = sorted(sharers)
            txn.acks_needed = len(targets)
            self._txns[txn.txn_id] = txn
            victim.meta["sharers"] = set()
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("home.txn.begin", self.name,
                              line=victim.line, req_id=txn.txn_id,
                              info=f"evict-inv acks={len(targets)}")
            for target in targets:
                self.hstats.incr("invalidations_sent")
                self.network.send(Message(
                    MsgKind.MESI_INV, victim.line, FULL_LINE_MASK,
                    src=self.name, dst=target, req_id=txn.txn_id))
            return
        self._evict_finish(victim, then)

    def _evict_finish(self, victim: CacheLine,
                      then: Callable[[], None]) -> None:
        if victim.meta.get("blocked"):
            victim.meta["blocked"] = False
            victim.unpin()
        if victim.meta.get("dirty"):
            self.dram.writeback(victim.line, FULL_LINE_MASK,
                                victim.read_data(FULL_LINE_MASK))
        self.array.evict(victim.line)
        then()

    # -- probe responses ------------------------------------------------------
    def _probe_response(self, msg: Message) -> None:
        txn = self._txns.get(msg.req_id)
        if txn is None:
            raise SimulationError(f"{self.name}: orphan {msg}")
        if msg.kind == MsgKind.MESI_INV_ACK:
            if txn.acks_needed:
                txn.acks_needed -= 1
            else:
                txn.want_data = False
        else:  # DATA_S to_dir: the owner's writeback for a FwdGetS
            line_obj = self.array.lookup(msg.line, touch=False)
            if line_obj is not None:
                for index, value in msg.data.items():
                    line_obj.data[index] = value
                line_obj.meta["dirty"] = True
            txn.want_data = False
        if txn.done:
            self._txns.pop(txn.txn_id, None)
            self._unblock(txn.line)
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("home.txn.end", self.name, line=txn.line,
                              req_id=txn.txn_id)
            txn.on_complete(txn)
            self._replay_deferred(txn.line)

    # -- request processing ------------------------------------------------
    def _process_request(self, msg: Message) -> None:
        line_obj = self.array.lookup(msg.line)
        if self._blocked(line_obj):
            self._defer(msg)
            return
        if msg.kind == MsgKind.PUT_M:
            self._handle_putm(msg)
            return
        line_obj = self._ensure_resident(msg, line_obj)
        if line_obj is None:
            return
        if msg.kind == MsgKind.GET_S:
            self._handle_gets(msg, line_obj)
        else:
            self._handle_getm(msg, line_obj)

    def _handle_gets(self, msg: Message, line_obj: CacheLine) -> None:
        tracer = self.engine.tracer
        if line_obj.state == DirState.V:
            # exclusive grant when no other copies exist (MESI E)
            self._set_owner(line_obj, msg.src)
            line_obj.state = DirState.M
            if tracer is not None:
                tracer.record("home.state", self.name, None, msg.line,
                              msg.req_id, None, 0, None,
                              f"V->M grant E {msg.src}")
            self._respond(msg, MsgKind.DATA_E,
                          line_obj.read_data(FULL_LINE_MASK))
        elif line_obj.state == DirState.S:
            self._sharers(line_obj).add(msg.src)
            if tracer is not None:
                tracer.record("home.state", self.name, None, msg.line,
                              msg.req_id, None, 0, None, f"S share +{msg.src}")
            self._respond(msg, MsgKind.DATA_S,
                          line_obj.read_data(FULL_LINE_MASK))
        else:  # M: blocking forward to the owner
            owner = self._owner(line_obj)
            txn = self._new_txn(msg.line,
                         lambda t: self._gets_owned_done(msg, line_obj,
                                                         owner))
            txn.want_data = True
            self._txns[txn.txn_id] = txn
            self._block(line_obj)
            self.hstats.incr("forwards")
            if tracer is not None:
                tracer.record("home.txn.begin", self.name, line=msg.line,
                              req_id=txn.txn_id,
                              info=f"fwd-gets owner={owner}")
            self.network.send(Message(
                MsgKind.FWD_GET_S, msg.line, FULL_LINE_MASK, src=self.name,
                dst=owner, req_id=msg.req_id, requestor=msg.src,
                meta={"txn_id": txn.txn_id}))

    def _gets_owned_done(self, msg: Message, line_obj: CacheLine,
                         owner: str) -> None:
        self._set_owner(line_obj, None)
        line_obj.state = DirState.S
        self._sharers(line_obj).update({msg.src, owner})
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.state", self.name, None, msg.line, msg.req_id,
                          None, 0, None, "M->S demote")

    def _handle_getm(self, msg: Message, line_obj: CacheLine) -> None:
        if line_obj.state == DirState.V:
            self._grant_m(msg, line_obj)
        elif line_obj.state == DirState.S:
            sharers = self._sharers(line_obj) - {msg.src}
            if not sharers:
                line_obj.meta["sharers"] = set()
                self._grant_m(msg, line_obj)
                return
            txn = self._new_txn(msg.line,
                         lambda t: self._grant_m(msg, line_obj))
            txn.acks_needed = len(sharers)
            self._txns[txn.txn_id] = txn
            self._block(line_obj)
            line_obj.meta["sharers"] = set()
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("home.txn.begin", self.name, line=msg.line,
                              req_id=txn.txn_id,
                              info=f"getm-inv acks={len(sharers)}")
            for target in sorted(sharers):
                self.hstats.incr("invalidations_sent")
                self.network.send(Message(
                    MsgKind.MESI_INV, msg.line, FULL_LINE_MASK,
                    src=self.name, dst=target, req_id=txn.txn_id))
        else:  # M at another client
            owner = self._owner(line_obj)
            if owner == msg.src:
                # should not happen: owners upgrade silently
                raise SimulationError(f"{self.name}: GetM from owner {msg}")
            txn = self._new_txn(msg.line,
                         lambda t: self._getm_owned_done(msg, line_obj))
            txn.acks_needed = 1    # the owner's MESI_INV_ACK
            self._txns[txn.txn_id] = txn
            self._block(line_obj)
            self.hstats.incr("forwards")
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("home.txn.begin", self.name, line=msg.line,
                              req_id=txn.txn_id,
                              info=f"fwd-getm owner={owner}")
            self.network.send(Message(
                MsgKind.FWD_GET_M, msg.line, FULL_LINE_MASK, src=self.name,
                dst=owner, req_id=msg.req_id, requestor=msg.src,
                meta={"txn_id": txn.txn_id}))

    def _grant_m(self, msg: Message, line_obj: CacheLine) -> None:
        if line_obj.meta.get("blocked"):
            # called as a txn completion; already unblocked by caller
            pass
        self._set_owner(line_obj, msg.src)
        line_obj.state = DirState.M
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.state", self.name, None, msg.line, msg.req_id,
                          None, 0, None, f"->M grant {msg.src}")
        self._respond(msg, MsgKind.DATA_M,
                      line_obj.read_data(FULL_LINE_MASK))

    def _getm_owned_done(self, msg: Message, line_obj: CacheLine) -> None:
        # data went owner -> requestor directly
        self._set_owner(line_obj, msg.src)
        line_obj.state = DirState.M
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("home.state", self.name, None, msg.line, msg.req_id,
                          None, 0, None, f"M->M owner={msg.src}")

    def _handle_putm(self, msg: Message) -> None:
        line_obj = self.array.lookup(msg.line)
        if line_obj is not None and self._owner(line_obj) == msg.src:
            for index, value in msg.data.items():
                line_obj.data[index] = value
            line_obj.meta["dirty"] = True
            self._set_owner(line_obj, None)
            line_obj.state = DirState.V
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("home.state", self.name, None, msg.line,
                              msg.req_id, None, 0, None, "M->V putm")
        else:
            self.hstats.incr("stale_writebacks")
        self.network.send(Message(
            MsgKind.WB_ACK, msg.line, msg.mask, src=self.name,
            dst=msg.src, req_id=msg.req_id))

    def _respond(self, msg: Message, kind: MsgKind,
                 data: Dict[int, int]) -> None:
        self.network.send(Message(
            kind, msg.line, FULL_LINE_MASK, src=self.name, dst=msg.src,
            req_id=msg.req_id, data=data, is_line_granularity=True))
