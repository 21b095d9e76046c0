"""GPU intermediate L2 for the hierarchical baseline (paper §II-D, §IV-A).

In the HMG/HMD configurations, GPU L1s interface with each other
through this shared L2, which filters and coalesces their requests and
speaks line-granularity MESI to the directory L3.  It supports GPU
coherence requests (ReqV / ReqWT / ReqWT+data) and DeNovo requests
(adds ReqO / ReqO+data / ReqWB with per-word L1 ownership tracking), so
it reuses the Spandex home machinery downward while acting as a MESI
client upward.

This is where hierarchical indirection costs live: every CPU-GPU
communication crosses this cache, acquiring and surrendering MESI line
ownership with blocking transients at the L3.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..coherence.addr import FULL_LINE_MASK
from ..coherence.messages import KIND_LABELS, Message, MsgKind
from ..core.home import HomeState, SpandexHome
from ..mem.cache import CacheLine
from ..sim.engine import SimulationError


class GPUL2(SpandexHome):
    """Spandex-style home for GPU L1s; MESI client toward the L3."""

    # Hierarchical GPU L1s attach natively (no TU); only DeNovo has a
    # native Nack retry path, so forced Nacks target DeNovo devices.
    FORCED_NACK_FAMILIES = ("DeNovo",)
    #: upstream MsgKind -> handler method name, looked up per message
    #: (see ``SpandexHome._REQ_HANDLERS``)
    _UP_HANDLERS = {
        MsgKind.DATA_S: "_up_data",
        MsgKind.DATA_E: "_up_data",
        MsgKind.DATA_M: "_up_data",
        MsgKind.WB_ACK: "_up_wb_ack",
        MsgKind.FWD_GET_S: "_up_fwd_gets",
        MsgKind.FWD_GET_M: "_up_fwd_getm",
        MsgKind.MESI_INV: "_up_inv",
    }

    def __init__(self, *args, l3_name: str = "l3", **kwargs):
        super().__init__(*args, **kwargs)
        self.l3_name = l3_name
        #: line -> upstream MESI state: 'S' | 'E' | 'M'
        #: (absent line => upstream I; inclusive upward)
        #: line -> pending upstream request bookkeeping
        self._up_pending: Dict[int, Dict[str, object]] = {}
        #: upstream state granted while the line was mid-fill
        self._granted_state: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # upstream MESI state helpers
    # ------------------------------------------------------------------
    def _up_state(self, line_obj: CacheLine) -> str:
        return str(line_obj.meta.get("up_state", "I"))

    def _set_up_state(self, line_obj: CacheLine, state: str) -> None:
        line_obj.meta["up_state"] = state

    # ------------------------------------------------------------------
    # backing hooks (toward the L3)
    # ------------------------------------------------------------------
    def _backing_fetch(self, line: int,
                       callback: Callable[[Dict[int, int]], None]) -> None:
        self._up_request(line, "fetch", callback)

    def _backing_grant_write(self, line: int,
                             callback: Callable[[], None]) -> None:
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is None:
            raise SimulationError(f"{self.name}: grant for absent line")
        up = self._up_state(line_obj)
        if up == "M":
            callback()
            return
        if up == "E":
            self._set_up_state(line_obj, "M")
            callback()
            return
        self._up_request(line, "write", lambda _data: callback())

    def _backing_writeback(self, line: int, mask: int,
                           values: Dict[int, int]) -> None:
        # dirty data leaves only via eviction; handled in _evict_finish
        pass

    def _up_request(self, line: int, purpose: str,
                    callback: Callable[[Dict[int, int]], None]) -> None:
        pending = self._up_pending.get(line)
        if pending is not None:
            if pending["purpose"] == "write" or purpose == "fetch":
                pending["waiters"].append(callback)
                return
            # A fetch is in flight but we now need write permission:
            # queue behind it, then re-evaluate — the fetch may grant
            # Exclusive, which upgrades to M silently.
            pending["waiters"].append(
                lambda _data: self._backing_grant_write(
                    line, lambda: callback({})))
            return
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is not None:
            line_obj.pin()      # keep resident while upstream pending
        kind = MsgKind.GET_S if purpose == "fetch" else MsgKind.GET_M
        msg = Message(kind, line, FULL_LINE_MASK, src=self.name,
                      dst=self.l3_name, is_line_granularity=True)
        self._up_pending[line] = {
            "purpose": purpose, "waiters": [callback],
            "req_id": msg.req_id, "invalidated": False,
        }
        self.hstats.incr(f"upstream_{purpose}")
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l2.up_req", self.name, dst=self.l3_name,
                          line=line, req_id=msg.req_id,
                          info=f"{KIND_LABELS[msg.kind]} {purpose}")
        self.network.send(msg)

    # ------------------------------------------------------------------
    # upstream responses and probes
    # ------------------------------------------------------------------
    def _dispatch_other(self, msg: Message) -> None:
        handler = self._UP_HANDLERS.get(msg.kind)
        if handler is None:
            raise SimulationError(f"{self.name}: unexpected {msg}")
        getattr(self, handler)(msg)

    def _up_data(self, msg: Message) -> None:
        pending = self._up_pending.pop(msg.line, None)
        if pending is None or pending["req_id"] != msg.req_id:
            raise SimulationError(f"{self.name}: orphan upstream {msg}")
        line_obj = self.array.lookup(msg.line, touch=False)
        state = {MsgKind.DATA_S: "S", MsgKind.DATA_E: "E",
                 MsgKind.DATA_M: "M"}[msg.kind]
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l2.up_state", self.name, line=msg.line,
                          req_id=msg.req_id, info=f"->{state} grant")
        if line_obj is not None:
            self._set_up_state(line_obj, state)
            # refresh words that are neither L1-owned nor locally dirty
            protect = line_obj.owned | self._dirty_mask(line_obj)
            if pending["invalidated"]:
                protect = line_obj.owned
                line_obj.meta["dirty_mask"] = 0
            for index, value in msg.data.items():
                if not (protect >> index) & 1:
                    line_obj.data[index] = value
            if line_obj.state == HomeState.I:
                # invalidated while our upgrade was queued at the
                # directory; the fresh grant revalidates the line
                line_obj.state = HomeState.V
            line_obj.unpin()
        else:
            # the line installs inside the fetch waiter (_fill_complete);
            # it must pick the granted upstream state up there, before
            # deferred requests replay
            self._granted_state[msg.line] = state
        for waiter in pending["waiters"]:
            waiter(dict(msg.data))
        if pending["invalidated"] and msg.kind == MsgKind.DATA_S:
            # IS_D_I: an Inv overtook this grant (the owner's data took a
            # slower link) and was acked, so the directory no longer
            # counts us as a sharer.  The waiters above had their one
            # use of the data; drop the copy now or it stays stale for
            # good.  Words L1s own keep the line (their data is theirs).
            self._drop_invalidated(msg.line)

    def _drop_invalidated(self, line: int) -> None:
        line_obj = self.array.lookup(line, touch=False)
        if line_obj is None or line_obj.owned:
            return
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("l2.up_state", self.name, line=line,
                          info="S->I inv-after-grant")
        self._drop_line(line_obj)

    def _drop_line(self, line_obj: CacheLine) -> None:
        """Give up the line upward: a pinned line (requests are pending
        on it) keeps its frame but drops its contents to I, clean and
        upstream state I; an unpinned line is evicted."""
        if line_obj.pinned:
            line_obj.state = HomeState.I
            line_obj.meta["dirty_mask"] = 0
            self._set_up_state(line_obj, "I")
        else:
            self.array.evict(line_obj.line)

    def _fill_complete(self, line: int, data) -> None:
        line_obj = self.array.lookup(line)
        if line_obj is None:
            line_obj = self.array.install(line)
        granted = self._granted_state.pop(line, None)
        if granted is not None:
            self._set_up_state(line_obj, granted)
        super()._fill_complete(line, data)

    def _up_wb_ack(self, msg: Message) -> None:
        self.hstats.incr("upstream_wb_acks")

    def _recall_then(self, line_obj: CacheLine, kind: str,
                     then: Callable[[], None]) -> None:
        """Revoke all L1-owned words in the line, then continue.

        The *entire* line blocks for the duration: a new ownership
        grant issued mid-recall would be stranded when the line is
        surrendered upstream.
        """
        owned = line_obj.owned
        if not owned:
            then()      # synchronous: nothing can interleave
            return
        txn = self._new_txn(line_obj.line, FULL_LINE_MASK, kind,
                            lambda t: then())
        self._begin_revoke(line_obj, FULL_LINE_MASK, txn)

    def _up_fwd_gets(self, msg: Message) -> None:
        line_obj = self.array.lookup(msg.line, touch=False)
        if line_obj is None:
            raise SimulationError(f"{self.name}: FwdGetS for absent line")

        def respond() -> None:
            data = line_obj.read_data(FULL_LINE_MASK)
            self._set_up_state(line_obj, "S")
            line_obj.meta["dirty_mask"] = 0
            self.network.send(Message(
                MsgKind.DATA_S, msg.line, FULL_LINE_MASK, src=self.name,
                dst=msg.requestor, req_id=msg.req_id, data=data,
                is_line_granularity=True))
            self.network.send(Message(
                MsgKind.DATA_S, msg.line, FULL_LINE_MASK, src=self.name,
                dst=msg.src, req_id=msg.meta["txn_id"], data=data,
                is_line_granularity=True, meta={"to_dir": True}))
        self._recall_then(line_obj, "up-gets", respond)

    def _up_fwd_getm(self, msg: Message) -> None:
        line_obj = self.array.lookup(msg.line, touch=False)
        if line_obj is None:
            raise SimulationError(f"{self.name}: FwdGetM for absent line")

        def respond() -> None:
            data = line_obj.read_data(FULL_LINE_MASK)
            self.network.send(Message(
                MsgKind.DATA_M, msg.line, FULL_LINE_MASK, src=self.name,
                dst=msg.requestor, req_id=msg.req_id, data=data,
                is_line_granularity=True))
            self.network.send(Message(
                MsgKind.MESI_INV_ACK, msg.line, FULL_LINE_MASK,
                src=self.name, dst=msg.src, req_id=msg.meta["txn_id"]))
            self._drop_line(line_obj)
        self._recall_then(line_obj, "up-getm", respond)

    def _up_inv(self, msg: Message) -> None:
        line_obj = self.array.lookup(msg.line, touch=False)
        pending = self._up_pending.get(msg.line)
        if pending is not None:
            # an SM-style race: our GetM is queued at the directory
            pending["invalidated"] = True
        if line_obj is not None:
            self._drop_line(line_obj)
        self.network.send(Message(
            MsgKind.MESI_INV_ACK, msg.line, FULL_LINE_MASK, src=self.name,
            dst=msg.src, req_id=msg.req_id))

    # ------------------------------------------------------------------
    # eviction: surrender upstream state
    # ------------------------------------------------------------------
    def _evict_finish(self, victim: CacheLine,
                      then: Callable[[], None]) -> None:
        up = self._up_state(victim)
        if up in ("M", "E"):
            self.hstats.incr("putm")
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("l2.up_state", self.name, dst=self.l3_name,
                              line=victim.line, info=f"{up}->I putm")
            self.network.send(Message(
                MsgKind.PUT_M, victim.line, FULL_LINE_MASK, src=self.name,
                dst=self.l3_name, data=victim.read_data(FULL_LINE_MASK),
                is_line_granularity=True))
        self.array.evict(victim.line)
        then()
