"""The mutant catalog: seeded protocol bugs the corpus must kill.

Each mutant patches one protocol-class method with a subtly broken
variant (a dropped fix, a skipped bookkeeping step), runs the litmus
corpus, and must be *killed* — at least one scenario/schedule fails
with an invariant violation, deadlock, simulation error, memory
mismatch or value-legality violation.  A surviving mutant means the
suite has a blind spot.

Patches are class-level and reverted on exit, so mutants compose with
any explorer; ``kill_hints`` names scenarios known to kill the mutant
quickly (the smoke tests use them — the nightly run uses the full
corpus).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..coherence.addr import FULL_LINE_MASK, iter_mask
from ..coherence.messages import Message, MsgKind
from ..core.home import SpandexHome
from ..protocols.denovo import DeNovoL1, DnState
from ..protocols.gpu_coherence import GPUCoherenceL1
from ..protocols.mesi import MESIL1, MesiState


# ---------------------------------------------------------------------
# mutated method bodies
# ---------------------------------------------------------------------
def _mesi_fwd_gets_no_defer(self, msg: Message) -> None:
    """PR 2's IM/IS defer removed: a forward hitting a transient state
    answers from whatever (stale, partial) data is at hand."""
    state = self.probe_state(msg.line)
    if state in ("IM", "IS"):
        line_obj = self.array.lookup(msg.line, touch=False)
        data = (line_obj.read_data(FULL_LINE_MASK)
                if line_obj is not None else {})
    elif state in ("M", "E"):
        line_obj = self.array.lookup(msg.line, touch=False)
        line_obj.state = MesiState.S
        data = line_obj.read_data(FULL_LINE_MASK)
    elif state == "WB":
        data = dict(self._pending_wb[msg.line])
    else:
        from ..sim.engine import SimulationError
        raise SimulationError(f"{self.name}: FwdGetS in {state}")
    self.send(Message(MsgKind.DATA_S, msg.line, FULL_LINE_MASK,
                      src=self.name, dst=msg.requestor,
                      req_id=msg.req_id, data=data,
                      is_line_granularity=True))
    self.send(Message(MsgKind.DATA_S, msg.line, FULL_LINE_MASK,
                      src=self.name, dst=msg.src,
                      req_id=msg.meta["txn_id"], data=data,
                      is_line_granularity=True, meta={"to_dir": True}))


def _mesi_fwd_getm_no_defer(self, msg: Message) -> None:
    state = self.probe_state(msg.line)
    if state in ("IM", "IS"):
        line_obj = self.array.lookup(msg.line, touch=False)
        data = (line_obj.read_data(FULL_LINE_MASK)
                if line_obj is not None else {})
    elif state in ("M", "E"):
        line_obj = self.array.lookup(msg.line, touch=False)
        data = line_obj.read_data(FULL_LINE_MASK)
        self.array.evict(msg.line)
    elif state == "WB":
        data = dict(self._pending_wb[msg.line])
    else:
        from ..sim.engine import SimulationError
        raise SimulationError(f"{self.name}: FwdGetM in {state}")
    self.send(Message(MsgKind.DATA_M, msg.line, FULL_LINE_MASK,
                      src=self.name, dst=msg.requestor,
                      req_id=msg.req_id, data=data,
                      is_line_granularity=True))
    self.send(Message(MsgKind.MESI_INV_ACK, msg.line, FULL_LINE_MASK,
                      src=self.name, dst=msg.src,
                      req_id=msg.meta["txn_id"]))


def _home_probe_response_keeps_owner(self, msg: Message) -> None:
    """RspRvkO applies the revoked data but forgets to clear the owner."""
    from ..sim.engine import SimulationError
    txn = self._txns.get(msg.req_id)
    if txn is None:
        raise SimulationError(f"{self.name}: orphan probe response {msg}")
    if msg.kind == MsgKind.ACK:
        txn.acks_needed -= 1
    else:
        line_obj = self.array.lookup(msg.line, touch=False)
        if line_obj is not None:
            for index in iter_mask(msg.mask & txn.data_mask):
                if index in msg.data:
                    line_obj.data[index] = msg.data[index]
                    self._mark_dirty(line_obj, 1 << index)
                # BUG: owner entry survives the revocation
        txn.data_mask &= ~msg.mask
    if txn.done:
        self._finish_txn(txn)


def _home_reqwb_applies_stale(self, msg: Message) -> None:
    """ReqWB data applied even when the writer no longer owns the word
    (Table III's last row ignored): a raced write-back resurrects old
    data over the new owner's values."""
    line_obj = self.array.lookup(msg.line)
    if line_obj is not None:
        self._set_owners(line_obj, self._owned_by(
            line_obj, msg.mask, msg.src), None)
        for index in iter_mask(msg.mask):
            if index in msg.data:
                line_obj.data[index] = msg.data[index]
        self._mark_dirty(line_obj, msg.mask)
    self._respond(msg, MsgKind.RSP_WB, msg.mask, {})


def _gpu_self_invalidate_noop(self, regions=None) -> None:
    """Acquire-side flash invalidation dropped: stale Valid words
    survive synchronization."""
    self.count("flash_invalidations")


def _denovo_reqo_keeps_owner(self, msg: Message) -> None:
    """A forwarded ReqO is granted without downgrading the local copy:
    two caches now believe they own the word, and the old owner's hits
    serve data from a dead generation."""
    pending = self._pending_grant_mask(msg.line) & msg.mask
    if pending:
        self._downgraded_pending[msg.line] = \
            self._downgraded_pending.get(msg.line, 0) | pending
    # BUG: the Owned words are never dropped (_downgrade_words)
    self.send(Message(MsgKind.RSP_O, msg.line, msg.mask,
                      src=self.name, dst=msg.requestor or msg.src,
                      req_id=msg.req_id))


def _home_wtfwd_no_push(self, msg: Message, line_obj) -> None:
    """WTfwd applied at the home only: the data push to surviving
    owners (and the blocking ack round) is skipped, so an owning
    consumer keeps serving its stale copy after the producer's
    completion — the requestor's release no longer implies global
    visibility."""
    line_obj.write_data(msg.mask, msg.data)
    self._mark_dirty(line_obj, msg.mask)
    self._respond(msg, MsgKind.RSP_WT_FWD, msg.mask, {})


def _denovo_reqv_serves_valid(self, msg: Message):
    """External ReqV served from Valid words too: a (mis)predicted
    direct read can then observe a copy the true owner has silently
    overwritten, instead of the Nack that forces the home fallback."""
    line_obj = self.array.lookup(msg.line, touch=False)
    values = {}
    wb = self._pending_wb.get(msg.line, {})
    for index in iter_mask(msg.mask):
        if line_obj is not None and line_obj.word_states[index] in (
                DnState.O, DnState.V):   # BUG: V words are not coherent
            values[index] = line_obj.data[index]
        elif index in wb:
            values[index] = wb[index]
        else:
            return None
    return values


def _home_invalidate_skips_sharers(self, line_obj, mask, exclude,
                                   txn) -> None:
    """Sharer invalidation forgotten: the home clears its sharer list
    and unblocks immediately, leaving stale Shared copies live."""
    from ..core.home import HomeState
    self._txns[txn.txn_id] = txn
    self._block_words(line_obj, mask)
    line_obj.meta["sharers"] = set()
    if line_obj.state == HomeState.S:
        line_obj.state = HomeState.V
    if txn.done:
        self._finish_txn(txn)


# ---------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class Mutant:
    name: str
    doc: str
    #: (class, attribute, replacement) triples applied together
    patches: Tuple[Tuple[type, str, Callable], ...]
    #: scenario names known to kill this mutant fast (smoke tests);
    #: configs where the mutated code is actually reachable
    kill_hints: Tuple[str, ...] = ()
    configs: Tuple[str, ...] = ()

    @contextmanager
    def applied(self):
        saved = [(cls, attr, cls.__dict__[attr])
                 for cls, attr, _fn in self.patches]
        try:
            for cls, attr, fn in self.patches:
                setattr(cls, attr, fn)
            yield self
        finally:
            for cls, attr, original in saved:
                setattr(cls, attr, original)


MUTANTS: List[Mutant] = [
    Mutant(
        name="mesi-fwd-defer-drop",
        doc="MESI L1 answers FwdGetS/FwdGetM in IM/IS instead of "
            "stalling until its own grant lands (drops the PR 2 fix)",
        patches=((MESIL1, "_ext_fwd_gets", _mesi_fwd_gets_no_defer),
                 (MESIL1, "_ext_fwd_getm", _mesi_fwd_getm_no_defer)),
        kill_hints=("fwd-getm-in-im", "fwd-gets-in-im"),
        configs=("HMG", "HMD"),
    ),
    Mutant(
        name="home-rvko-keeps-owner",
        doc="Spandex home applies RspRvkO data but leaves the revoked "
            "word's owner entry in place",
        patches=((SpandexHome, "_handle_probe_response",
                  _home_probe_response_keeps_owner),),
        kill_hints=("atomic-rvko", "rvko-vs-wb", "gpu-ownership-handoff"),
        configs=("SMG", "SMD", "SDG", "SDD"),
    ),
    Mutant(
        name="home-stale-wb-applies",
        doc="Spandex home applies ReqWB data from a non-owner (raced "
            "write-back resurrects stale data)",
        patches=((SpandexHome, "_handle_reqwb",
                  _home_reqwb_applies_stale),),
        kill_hints=("wb-races-reqwt", "wb-races-fwd-reqo",
                    "ownership-pingpong"),
        configs=("SMG", "SMD", "SDG", "SDD"),
    ),
    Mutant(
        name="gpu-acquire-no-flash",
        doc="GPU-coherence L1 skips the acquire-side flash "
            "self-invalidation, so stale Valid words survive sync",
        patches=((GPUCoherenceL1, "self_invalidate",
                  _gpu_self_invalidate_noop),),
        kill_hints=("read-snapshot-reqv", "spin-reload-staleness",
                    "mp-flag-handoff"),
        configs=("SMG", "SDG", "HMG"),
    ),
    Mutant(
        name="denovo-reqo-keeps-owner",
        doc="DeNovo L1 grants a forwarded ReqO without downgrading its "
            "own copy, leaving two owners of one word",
        patches=((DeNovoL1, "_ext_reqo", _denovo_reqo_keeps_owner),),
        kill_hints=("ownership-pingpong", "gpu-ownership-handoff"),
        configs=("SDG", "SDD", "SMD", "HMD"),
    ),
    Mutant(
        name="home-wtfwd-no-push",
        doc="Spandex home applies a ReqWTfwd locally but never pushes "
            "FwdWTData to the surviving owners (nor blocks for their "
            "acks); owning consumers keep stale data past the "
            "producer's release",
        patches=((SpandexHome, "_perform_wtfwd", _home_wtfwd_no_push),),
        kill_hints=("wtfwd-racing-reqo", "xshard-wtfwd-handoff"),
        configs=("SDD", "SDG", "SMD", "SMG"),
    ),
    Mutant(
        name="denovo-reqv-serves-valid",
        doc="DeNovo L1 answers an external ReqV from Valid (not just "
            "Owned) words, so a predicted direct read observes a "
            "silently-overwritten stale copy instead of Nacking into "
            "the home fallback",
        patches=((DeNovoL1, "_owned_data", _denovo_reqv_serves_valid),),
        kill_hints=("pred-stale-valid-reload",),
        configs=("SDD", "SDG"),
    ),
    Mutant(
        name="home-inv-skips-sharers",
        doc="Spandex home forgets to send Inv probes when a write hits "
            "a Shared line; stale Shared copies stay live",
        patches=((SpandexHome, "_begin_invalidate",
                  _home_invalidate_skips_sharers),),
        kill_hints=("inv-vs-reqs", "reqs-option1-owned"),
        configs=("SMG", "SMD", "SDG", "SDD"),
    ),
]


def mutant_by_name(name: str) -> Mutant:
    for mutant in MUTANTS:
        if mutant.name == name:
            return mutant
    raise KeyError(f"no mutant named {name!r}")


def kill_matrix(explore: Callable[[str, str], bool]
                ) -> Dict[str, List[Tuple[str, str]]]:
    """Run ``explore(scenario_name, config_name) -> failed?`` for each
    mutant's hinted scenarios; returns the (scenario, config) kills."""
    kills: Dict[str, List[Tuple[str, str]]] = {}
    for mutant in MUTANTS:
        with mutant.applied():
            found: List[Tuple[str, str]] = []
            for scenario_name in mutant.kill_hints:
                for config_name in mutant.configs:
                    if explore(scenario_name, config_name):
                        found.append((scenario_name, config_name))
                        break
                if found:
                    break
            kills[mutant.name] = found
    return kills
