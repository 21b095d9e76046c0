"""Per-device translation units (paper §III-D).

In Spandex configurations every device attaches to the system through a
thin TU (single-cycle lookup, modelled as one cycle each way).  The TU
is the device's network endpoint: it forwards the device cache's
requests outward and fills the gaps between the Spandex interface and
what the cache natively supports:

* **GPU coherence TU** — retries a Nacked ReqV as an ordering-enforcing
  ReqWT+data (GPU coherence alone has no retry path).  Partial-response
  coalescing is handled by the shared reassembly machinery in
  ``L1Controller``.
* **DeNovo TU** — replaces a Nacked ReqV with a ReqO+data after one
  failure (plain DeNovo would retry forever).
* **MESI TU** — adapts word-granularity external requests to the
  line-granularity MESI cache: converts partial downgrades into a line
  downgrade plus a write-back of the non-requested words, answers
  ownership-only requests immediately during pending ownership
  upgrades, and serves requests for lines with a write-back in flight
  from retained data.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict

from ..coherence.addr import FULL_LINE_MASK, iter_mask
from ..coherence.messages import KIND_LABELS, Message, MsgKind
from ..network.noc import Network
from ..protocols.base import L1Controller
from ..protocols.mesi import MESIL1
from ..sim.engine import Component, Engine, SimulationError
from ..sim.stats import StatsRegistry

#: request kinds the policy layer may convert to ReqWTfwd
_CONVERTIBLE_KINDS = (MsgKind.REQ_O, MsgKind.REQ_WT)
#: forwarded read-class requests: the only kinds that train a policy's
#: remote-consumption (producer->consumer) signal
_READ_FORWARD_KINDS = (MsgKind.REQ_V, MsgKind.REQ_S)


class TranslationUnit(Component):
    """Base TU: network endpoint wrapping a device L1.

    Nack handling: up to ``nack_retry_limit`` re-issues of the Nacked
    ReqV with exponential backoff (``backoff_base << attempt``, capped
    at ``backoff_cap``) plus deterministic per-device jitter, then the
    family-specific escalation (:meth:`_escalate`).  Backoff spreads
    retries from many devices hammering the same contended line — the
    previous immediate re-issue amplified exactly the congestion that
    caused the Nack.
    """

    def __init__(self, engine: Engine, network: Network,
                 stats: StatsRegistry, l1: L1Controller, latency: int = 1,
                 nack_retry_limit: int = 0, backoff_base: int = 8,
                 backoff_cap: int = 128, backoff_jitter: int = 0,
                 retry_seed: int = 0, device_class: str = "cpu"):
        super().__init__(engine, l1.name)
        self.network = network
        self.stats = stats
        self.l1 = l1
        self.latency = latency
        self.nack_retry_limit = nack_retry_limit
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        # Deterministic per-device stream: crc32 of the device name
        # (not hash(), which is salted per process) xor the fault seed.
        self._retry_rng = random.Random(
            zlib.crc32(l1.name.encode()) ^ retry_seed)
        self._retries: Dict[int, int] = {}       # req_id -> attempts
        #: per-access request-type policy (repro.core.policy); None is
        #: the fixed Table II baseline and keeps this path bit-identical
        #: to the pre-policy simulator.
        self.policy = None
        #: owner-prediction table (repro.core.policy.OwnerPredictor);
        #: only consulted when a policy wants prediction for a kind.
        self.predictor = None
        #: 'cpu' | 'gpu' — the criticality policy converts only GPU
        #: devices' stores, keyed on the device's role (the builder
        #: passes it), not on the cache's protocol family
        self.device_class = device_class
        self._pred_pending: Dict[int, int] = {}  # req_id -> line
        l1.tu = self
        network.register(self)

    # -- outbound: device -> system ------------------------------------------
    def from_device(self, msg: Message) -> None:
        if self.policy is not None:
            self._apply_policy(msg)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("tu.out", self.name, msg.dst, msg.line, msg.req_id,
                          None, self.latency, None, KIND_LABELS[msg.kind])
        self.schedule(self.latency, self.network.send, (msg,))

    # -- per-access request-type selection (policy layer) --------------------
    def _apply_policy(self, msg: Message) -> None:
        kind = msg.kind
        if kind in _CONVERTIBLE_KINDS:
            if self.predictor is not None:
                # we are about to write: any cached prediction for the
                # line is about to go stale (ownership transfers)
                self.predictor.invalidate(msg.line)
            choice = self.policy.select(kind, msg.line, self)
            if choice is MsgKind.REQ_WT_FWD:
                self._convert_to_wtfwd(msg)
            return
        if kind is MsgKind.REQ_V and self.predictor is not None and \
                self.policy.wants_prediction(kind):
            target = self.predictor.predict(msg.line)
            if target is not None and target != self.name and \
                    target != self.l1.home_for(msg.line):
                msg.dst = target
                self._pred_pending[msg.req_id] = msg.line
                tracer = self.engine.tracer
                if tracer is not None:
                    tracer.record("tu.pred", self.name, dst=target,
                                  line=msg.line, req_id=msg.req_id,
                                  info="predicted owner")

    def demotes_stores(self, line: int) -> bool:
        """True when the policy maps stores of ``line`` to a forwarding
        write-through.  The L1's owned-word store fast path consults
        this: a silent in-place owner write would bypass the policy
        entirely, so a demoted store goes through the store buffer (and
        out as a ReqWTfwd) instead."""
        if self.policy is None:
            return False
        choice = self.policy.select(MsgKind.REQ_O, line, self)
        return choice is MsgKind.REQ_WT_FWD

    def _convert_to_wtfwd(self, msg: Message) -> None:
        """Turn a write request into a forwarding write-through.

        The base conversion covers requests that already carry their
        store data (GPU ReqWT); ownership requests without data are
        handled by family overrides.
        """
        if not msg.data:
            return
        self._count_wtfwd(msg)
        msg.kind = MsgKind.REQ_WT_FWD

    def _count_wtfwd(self, msg: Message) -> None:
        self.stats.incr("tu.fwd_direct")
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("tu.fwd", self.name, dst=msg.dst,
                          line=msg.line, req_id=msg.req_id,
                          info=f"{KIND_LABELS[msg.kind]}->ReqWTfwd")

    # -- inbound: system -> device ------------------------------------------
    def receive(self, msg: Message) -> None:
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("tu.in", self.name, None, msg.line, msg.req_id, None,
                          self.latency, None, KIND_LABELS[msg.kind])
        self.schedule(self.latency, self._handle, (msg,))

    def _handle(self, msg: Message) -> None:
        if msg.kind == MsgKind.NACK:
            if msg.req_id in self._pred_pending:
                self._pred_fallback(msg)
                return
            self._handle_nack(msg)
            return
        if self._pred_pending and msg.req_id in self._pred_pending:
            line = self._pred_pending.pop(msg.req_id)
            self.stats.incr("tu.pred_hit")
            if self.predictor is not None:
                self.predictor.train(line, msg.src)
        elif self.predictor is not None and msg.kind == MsgKind.RSP_V \
                and msg.src != self.l1.home_for(msg.line):
            # a home-forwarded ReqV was answered by its owner directly:
            # learn the owner for the next read of this line
            self.predictor.train(msg.line, msg.src)
        if self.policy is not None and msg.requestor is not None and \
                msg.kind in _READ_FORWARD_KINDS:
            # a forwarded *read* names a remote consumer of our data;
            # write-class forwards (RvkO, FwdWTData) name a remote
            # writer and must not train the producer->consumer signal
            self.policy.observe_forward(msg.line, msg.requestor)
        self._retries.pop(msg.req_id, None)
        self.l1.receive(msg)

    def _pred_fallback(self, msg: Message) -> None:
        """Mispredict: the predicted owner Nacked; retry at the home.

        This is not a protocol Nack (the home never saw the request),
        so it neither burns the bounded retry budget nor escalates —
        the home always has a correct serving path for ReqV.
        """
        self._pred_pending.pop(msg.req_id, None)
        self.stats.incr("tu.pred_miss")
        if self.predictor is not None:
            self.predictor.mispredict(msg.line)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("tu.pred_miss", self.name, line=msg.line,
                          req_id=msg.req_id, info=f"nack from {msg.src}")
        self.network.send(Message(
            MsgKind.REQ_V, msg.line, msg.mask, src=self.name,
            dst=self.l1.home_for(msg.line), req_id=msg.req_id))

    def _handle_nack(self, msg: Message) -> None:
        attempts = self._retries.get(msg.req_id, 0)
        if attempts < self.nack_retry_limit:
            self._retries[msg.req_id] = attempts + 1
            delay = min(self.backoff_cap, self.backoff_base << attempts)
            if self.backoff_jitter > 0:
                delay += self._retry_rng.randrange(self.backoff_jitter + 1)
            self.stats.incr("tu.nack_retries")
            self.stats.incr("tu.backoff_cycles", delay)
            self.stats.incr_group("tu.retries_by_device", self.name)
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("tu.retry", self.name, line=msg.line,
                              req_id=msg.req_id, dur=delay,
                              info=f"attempt={attempts + 1}")
            self.schedule(delay, lambda: self.network.send(Message(
                MsgKind.REQ_V, msg.line, msg.mask, src=self.name,
                dst=self.l1.home_for(msg.line), req_id=msg.req_id)))
            return
        self._retries.pop(msg.req_id, None)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("tu.escalate", self.name, line=msg.line,
                          req_id=msg.req_id,
                          info=f"after {attempts} retries")
        self._escalate(msg)

    def _escalate(self, msg: Message) -> None:
        raise SimulationError(f"{self.name}: unexpected Nack {msg}")


class GPUCoherenceTU(TranslationUnit):
    """TU for GPU coherence caches: ReqV retry via LLC-side atomic."""

    def _escalate(self, msg: Message) -> None:
        # Replace the failed ReqV with a ReqWT+data that performs an
        # identity update at the LLC: it enforces a global order with
        # racing ownership requests and returns the current value.
        self.stats.incr("tu.escalations")
        self.network.send(Message(
            MsgKind.REQ_WT_DATA, msg.line, msg.mask, src=self.name,
            dst=self.l1.home_for(msg.line), req_id=msg.req_id))


class DeNovoTU(TranslationUnit):
    """TU for DeNovo caches: escalate a Nacked ReqV to ReqO+data."""

    def _escalate(self, msg: Message) -> None:
        self.stats.incr("tu.escalations")
        self.network.send(Message(
            MsgKind.REQ_O_DATA, msg.line, msg.mask, src=self.name,
            dst=self.l1.home_for(msg.line), req_id=msg.req_id))

    def _convert_to_wtfwd(self, msg: Message) -> None:
        # A DeNovo ReqO carries no data (the store overwrites); the
        # forwarding write-through needs the buffered store values, and
        # the completion must not install the words as Owned.  The L1
        # tracks the in-flight record only after ``request`` returns,
        # so the no-ownership flag rides on the message meta and is
        # copied into the record by ``DeNovoL1._issue_writes``.
        if msg.kind is not MsgKind.REQ_O:
            super()._convert_to_wtfwd(msg)
            return
        values = self.l1.store_buffer.forward(msg.line, msg.mask)
        if values is None:
            return    # not a plain store-buffer ReqO: leave it alone
        self._count_wtfwd(msg)
        msg.kind = MsgKind.REQ_WT_FWD
        msg.data = values
        msg.meta["wtfwd"] = True


class MESITU(TranslationUnit):
    """TU adapting word-granularity Spandex requests to a MESI cache."""

    EXTERNAL_KINDS = (MsgKind.REQ_V, MsgKind.REQ_O, MsgKind.REQ_WT,
                      MsgKind.REQ_O_DATA, MsgKind.REQ_S, MsgKind.RVK_O)

    def __init__(self, engine: Engine, network: Network,
                 stats: StatsRegistry, l1: MESIL1, latency: int = 1,
                 **kwargs):
        super().__init__(engine, network, stats, l1, latency, **kwargs)
        #: line -> {word: value}: data retained for TU-issued partial
        #: write-backs until the LLC acknowledges them
        self._tu_wb: Dict[int, Dict[int, int]] = {}
        self._own_req_lines: Dict[int, int] = {}   # req_id -> line

    # -- inbound dispatch -----------------------------------------------------
    def _handle(self, msg: Message) -> None:
        if msg.kind == MsgKind.RSP_WB and msg.req_id in self._own_req_lines:
            self._tu_wb_complete(msg)
            return
        if msg.kind == MsgKind.INV:
            self.l1.receive(msg)          # native MESI capability
            return
        if msg.kind == MsgKind.FWD_WT_DATA:
            self._fwd_wt_data(msg)
            return
        if msg.kind in self.EXTERNAL_KINDS:
            self._handle_external(msg)
            return
        super()._handle(msg)

    # -- WTfwd data pushed into an owning MESI line ---------------------------
    def _fwd_wt_data(self, msg: Message) -> None:
        """A producer wrote through words this MESI core owns.

        Stable M/E: apply the pushed words in place and keep the line
        (the producer->consumer payoff — the consumer's next load
        hits).  Pending upgrade (IM/IS): the grant data predates the
        write-through, so apply after the grant lands; the grant is
        already in flight (the home set us as owner before this push
        was processed), so no deadlock.  Any other state means the
        words left this cache: release them so the home clears our
        ownership.
        """
        state = self.l1.probe_state(msg.line)
        covered = self._wb_covered_mask(msg.line, msg.mask)
        if covered == msg.mask or state not in ("M", "E", "IM", "IS"):
            self.network.send(Message(
                MsgKind.ACK, msg.line, msg.mask, src=self.name,
                dst=msg.src, req_id=msg.req_id,
                meta={"wtfwd_released": msg.mask}))
            return
        if state in ("IM", "IS"):
            data = dict(msg.data)
            self.l1.probe_after_grant(
                msg.line, lambda: self.l1.probe_write(msg.line, data))
        else:
            self.l1.probe_write(msg.line, msg.data)
        self.network.send(Message(
            MsgKind.ACK, msg.line, msg.mask, src=self.name,
            dst=msg.src, req_id=msg.req_id))

    # -- external word-granularity requests (§III-D cases 1-3) ---------------
    def _wb_covered_mask(self, line: int, mask: int) -> int:
        """Words of ``mask`` whose data is retained by a pending
        write-back (the L1's full-line WB or a TU partial WB)."""
        if self.l1.probe_state(line) == "WB":
            return mask
        retained = self._tu_wb.get(line)
        if not retained:
            return 0
        covered = 0
        for index in iter_mask(mask):
            if index in retained:
                covered |= 1 << index
        return covered

    def _handle_external(self, msg: Message) -> None:
        if self.policy is not None and msg.requestor is not None and \
                msg.kind in _READ_FORWARD_KINDS:
            # external requests bypass the base _handle path, so the
            # adaptive policy's remote-consumption signal is fed here
            # (read-class forwards only — see TranslationUnit._handle)
            self.policy.observe_forward(msg.line, msg.requestor)
        # Words covered by a pending write-back belong to an ownership
        # epoch we already surrendered: answer from retained data first.
        # (Deciding by the IM/IS transient instead would deadlock — the
        # grant we'd wait for may be deferred at the home behind the
        # very transaction that sent this request.)
        covered = self._wb_covered_mask(msg.line, msg.mask)
        if covered == msg.mask:
            self._external_during_wb(msg)
            return
        if covered:
            # mixed epochs in one forward: split; the requestor's
            # reassembly accepts partial responses per word
            wb_part = Message(msg.kind, msg.line, covered, src=msg.src,
                              dst=msg.dst, req_id=msg.req_id,
                              requestor=msg.requestor,
                              data=dict(msg.data), atomic=msg.atomic,
                              meta=dict(msg.meta))
            self._external_during_wb(wb_part)
            msg.mask &= ~covered
        state = self.l1.probe_state(msg.line)
        if state in ("IM", "IS"):
            # IM: pending ownership upgrade.  IS: a ReqS whose grant may
            # be exclusive (the home treated it as option 3 and already
            # records us as owner) — same §III-C case 1 handling.
            self._external_during_pending_o(msg)
        elif state in ("M", "E"):
            self._external_stable_o(msg)
        elif msg.kind == MsgKind.REQ_V:
            # stable state other than expected: Nack, requestor retries
            self.stats.incr("tu.nacks_sent")
            tracer = self.engine.tracer
            if tracer is not None:
                tracer.record("tu.nack", self.name,
                              dst=msg.requestor or msg.src,
                              line=msg.line, req_id=msg.req_id,
                              info=f"owner departed ({state})")
            self.network.send(Message(
                MsgKind.NACK, msg.line, msg.mask, src=self.name,
                dst=msg.requestor or msg.src, req_id=msg.req_id))
        else:
            raise SimulationError(
                f"{self.name}: external {msg.kind.value} in state {state}")

    def _external_stable_o(self, msg: Message) -> None:
        line, mask = msg.line, msg.mask
        rest = FULL_LINE_MASK & ~mask
        if msg.kind == MsgKind.REQ_V:
            # ReqV needs no ordering or downgrade: serve a snapshot.
            data = self.l1.probe_read(line)
            self._respond(msg, MsgKind.RSP_V, mask, data)
            return
        if msg.kind in (MsgKind.REQ_O, MsgKind.REQ_WT):
            data = self.l1.probe_downgrade(line, "I")
            rsp = (MsgKind.RSP_O if msg.kind == MsgKind.REQ_O
                   else MsgKind.RSP_WT)
            self._respond(msg, rsp, mask, {})
            self._tu_writeback(line, rest, data)
        elif msg.kind == MsgKind.REQ_O_DATA:
            data = self.l1.probe_downgrade(line, "I")
            self._respond(msg, MsgKind.RSP_O_DATA, mask, data)
            self._tu_writeback(line, rest, data)
        elif msg.kind == MsgKind.RVK_O:
            data = self.l1.probe_downgrade(line, "I")
            self._to_home(msg, MsgKind.RSP_RVK_O, mask, data,
                          req_id=msg.req_id)
            self._tu_writeback(line, rest, data)
        elif msg.kind == MsgKind.REQ_S:
            # M -> S: data to the requestor and a write-back to the LLC
            data = self.l1.probe_downgrade(line, "S")
            self._respond(msg, MsgKind.RSP_S, mask, data)
            self._to_home(msg, MsgKind.RSP_RVK_O, mask, data,
                          req_id=msg.meta["txn_id"])
            self._tu_writeback(line, rest, data)

    def _external_during_pending_o(self, msg: Message) -> None:
        """§III-D case 2: a pending ownership request for the line."""
        if msg.kind in (MsgKind.REQ_O, MsgKind.REQ_WT):
            # ownership-only: respond immediately; after the grant lands
            # the line transitions to I and untouched words write back.
            rsp = (MsgKind.RSP_O if msg.kind == MsgKind.REQ_O
                   else MsgKind.RSP_WT)
            self._respond(msg, rsp, msg.mask, {})
            self.l1.probe_after_grant(
                msg.line, lambda: self._late_downgrade(msg.line, msg.mask))
            return
        # data-needing requests are delayed until the grant completes
        self.l1.probe_after_grant(
            msg.line, lambda: self._handle_external(msg))

    def _late_downgrade(self, line: int, answered_mask: int) -> None:
        if self.l1.probe_state(line) not in ("M", "E"):
            return    # an earlier queued action already downgraded it
        data = self.l1.probe_downgrade(line, "I")
        self._tu_writeback(line, FULL_LINE_MASK & ~answered_mask, data)

    def _external_during_wb(self, msg: Message) -> None:
        """§III-D case 3: the line has a write-back in flight; serve
        from the retained copy, no further transitions."""
        data = self.l1.probe_wb_data(msg.line)
        if data is None:
            data = dict(self._tu_wb.get(msg.line, {}))
        kind_map = {
            MsgKind.REQ_V: MsgKind.RSP_V,
            MsgKind.REQ_O: MsgKind.RSP_O,
            MsgKind.REQ_WT: MsgKind.RSP_WT,
            MsgKind.REQ_O_DATA: MsgKind.RSP_O_DATA,
            MsgKind.REQ_S: MsgKind.RSP_S,
        }
        if msg.kind == MsgKind.RVK_O:
            self._to_home(msg, MsgKind.RSP_RVK_O, msg.mask, data,
                          req_id=msg.req_id)
            return
        carry = msg.kind in (MsgKind.REQ_V, MsgKind.REQ_O_DATA,
                             MsgKind.REQ_S)
        self._respond(msg, kind_map[msg.kind], msg.mask,
                      data if carry else {})
        if msg.kind == MsgKind.REQ_S:
            self._to_home(msg, MsgKind.RSP_RVK_O, msg.mask, data,
                          req_id=msg.meta["txn_id"])

    # -- TU-issued partial write-backs ----------------------------------------
    def _tu_writeback(self, line: int, mask: int,
                      data: Dict[int, int]) -> None:
        if not mask:
            return
        values = {index: data[index] for index in iter_mask(mask)
                  if index in data}
        self._tu_wb.setdefault(line, {}).update(values)
        home = self.l1.home_for(line)
        msg = Message(MsgKind.REQ_WB, line, mask, src=self.name,
                      dst=home, data=values)
        self._own_req_lines[msg.req_id] = line
        self.stats.incr("tu.partial_writebacks")
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("tu.wb", self.name, dst=home,
                          line=line, req_id=msg.req_id,
                          info=f"mask=0x{mask:04x}")
        self.network.send(msg)

    def _tu_wb_complete(self, msg: Message) -> None:
        line = self._own_req_lines.pop(msg.req_id)
        retained = self._tu_wb.get(line)
        if retained is not None:
            still_out = any(other == line
                            for other in self._own_req_lines.values())
            if not still_out:
                self._tu_wb.pop(line, None)

    # -- response helpers -----------------------------------------------------
    def _respond(self, msg: Message, kind: MsgKind, mask: int,
                 data: Dict[int, int]) -> None:
        payload = {index: data[index] for index in iter_mask(mask)
                   if index in data}
        self.network.send(Message(
            kind, msg.line, mask, src=self.name,
            dst=msg.requestor or msg.src, req_id=msg.req_id,
            data=payload, meta=dict(msg.meta)))

    def _to_home(self, msg: Message, kind: MsgKind, mask: int,
                 data: Dict[int, int], req_id: int) -> None:
        payload = {index: data[index] for index in iter_mask(mask)
                   if index in data}
        self.network.send(Message(
            kind, msg.line, mask, src=self.name, dst=msg.src,
            req_id=req_id, data=payload))


def make_tu(engine: Engine, network: Network, stats: StatsRegistry,
            l1: L1Controller, latency: int = 1,
            **kwargs) -> TranslationUnit:
    """Build the TU matching the wrapped cache's protocol family.

    ``kwargs``: ``device_class`` (the device's role, 'cpu' by default)
    and the bounded Nack retry/backoff knobs (``nack_retry_limit``,
    ``backoff_base``, ``backoff_cap``, ``backoff_jitter``,
    ``retry_seed``); by default retries are off and a Nack escalates
    immediately.
    """
    family = getattr(l1, "PROTOCOL_FAMILY", "GPU")
    cls = {"GPU": GPUCoherenceTU, "DeNovo": DeNovoTU, "MESI": MESITU}[family]
    return cls(engine, network, stats, l1, latency, **kwargs)
