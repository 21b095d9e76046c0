"""Coherence message vocabulary (paper §III-A, §III-B).

Spandex defines seven device request types (ReqV, ReqS, ReqWT, ReqO,
ReqWT+data, ReqO+data, ReqWB), a response per request, two LLC-initiated
probes (RvkO, Inv with responses RspRvkO, Ack), and a Nack used when a
forwarded ReqV misses a departed owner.  The hierarchical MESI baseline
reuses the same carrier with MESI-flavoured kinds (GetS/GetM/PutM and
their responses) so both systems share one network and one traffic
accountant.

Every message carries a line address and a 16-bit word mask; ``data``
maps word index -> value for the masked words it carries.  Functional
values flow with the messages so tests can check coherence end to end.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, Optional

from .addr import FULL_LINE_MASK, popcount


class MsgKind(enum.Enum):
    """All message kinds crossing the network.

    Kinds key every hot dispatch table in the simulator (traffic
    classes, response pairing, per-protocol handlers), so hashing goes
    through the C identity hash instead of ``Enum.__hash__``'s
    Python-level name hash — members are singletons, making the two
    equivalent, and dict/iteration order never depends on hash values
    within a process.
    """

    __hash__ = object.__hash__

    # -- Spandex device requests (Table II) --
    REQ_V = "ReqV"
    REQ_S = "ReqS"
    REQ_WT = "ReqWT"
    REQ_O = "ReqO"
    REQ_WT_DATA = "ReqWT+data"
    REQ_O_DATA = "ReqO+data"
    REQ_WB = "ReqWB"

    # -- Spandex responses --
    RSP_V = "RspV"
    RSP_S = "RspS"
    RSP_WT = "RspWT"
    RSP_O = "RspO"
    RSP_WT_DATA = "RspWT+data"
    RSP_O_DATA = "RspO+data"
    RSP_WB = "RspWB"
    NACK = "Nack"

    # -- LLC-initiated probes --
    RVK_O = "RvkO"
    RSP_RVK_O = "RspRvkO"
    INV = "Inv"
    ACK = "Ack"

    # -- WTfwd producer->consumer forwarding (hpvm-spandex extension) --
    REQ_WT_FWD = "ReqWTfwd"      # write-through that preserves remote owners
    FWD_WT_DATA = "FwdWTData"    # home -> owner data push for owned words
    RSP_WT_FWD = "RspWTfwd"      # home -> requestor completion

    # -- MESI baseline protocol (hierarchical configurations) --
    GET_S = "GetS"
    GET_M = "GetM"
    PUT_M = "PutM"
    DATA_S = "DataS"       # data response granting Shared
    DATA_E = "DataE"       # data response granting Exclusive (no sharers)
    DATA_M = "DataM"       # data response granting Modified
    WB_ACK = "WBAck"
    FWD_GET_S = "FwdGetS"
    FWD_GET_M = "FwdGetM"
    MESI_INV = "MESIInv"
    MESI_INV_ACK = "MESIInvAck"

    # -- reliable-transport sublayer (repro.network.reliable) --
    REL_ACK = "RelAck"


#: Kind -> its wire name (``MsgKind.value`` is a property: hot paths that
#: label counters read this table instead).
KIND_LABELS: Dict["MsgKind", str] = {kind: kind.value for kind in MsgKind}

#: Requests a Spandex device may issue (order matches Table II rows).
DEVICE_REQUESTS = (
    MsgKind.REQ_V, MsgKind.REQ_S, MsgKind.REQ_WT, MsgKind.REQ_O,
    MsgKind.REQ_WT_DATA, MsgKind.REQ_O_DATA, MsgKind.REQ_WB,
)

#: Response kind paired with each request kind.
RESPONSE_OF = {
    MsgKind.REQ_V: MsgKind.RSP_V,
    MsgKind.REQ_S: MsgKind.RSP_S,
    MsgKind.REQ_WT: MsgKind.RSP_WT,
    MsgKind.REQ_O: MsgKind.RSP_O,
    MsgKind.REQ_WT_DATA: MsgKind.RSP_WT_DATA,
    MsgKind.REQ_O_DATA: MsgKind.RSP_O_DATA,
    MsgKind.REQ_WB: MsgKind.RSP_WB,
    MsgKind.RVK_O: MsgKind.RSP_RVK_O,
    MsgKind.INV: MsgKind.ACK,
    MsgKind.REQ_WT_FWD: MsgKind.RSP_WT_FWD,
    MsgKind.FWD_WT_DATA: MsgKind.ACK,
}

#: Traffic class used for Figures 2/3 stacks.  Each request class also
#: accounts its responses; Inv and RvkO (and their responses) form the
#: "Probe" class, exactly as the paper describes.
TRAFFIC_CLASS = {
    MsgKind.REQ_V: "ReqV", MsgKind.RSP_V: "ReqV", MsgKind.NACK: "ReqV",
    MsgKind.REQ_S: "ReqS", MsgKind.RSP_S: "ReqS",
    MsgKind.REQ_WT: "ReqWT", MsgKind.RSP_WT: "ReqWT",
    MsgKind.REQ_O: "ReqO", MsgKind.RSP_O: "ReqO",
    MsgKind.REQ_WT_DATA: "ReqWT+data", MsgKind.RSP_WT_DATA: "ReqWT+data",
    MsgKind.REQ_O_DATA: "ReqO+data", MsgKind.RSP_O_DATA: "ReqO+data",
    MsgKind.REQ_WB: "ReqWB", MsgKind.RSP_WB: "ReqWB",
    MsgKind.RVK_O: "Probe", MsgKind.RSP_RVK_O: "Probe",
    MsgKind.INV: "Probe", MsgKind.ACK: "Probe",
    MsgKind.REQ_WT_FWD: "ReqWT", MsgKind.RSP_WT_FWD: "ReqWT",
    MsgKind.FWD_WT_DATA: "ReqWT",
    MsgKind.GET_S: "ReqS", MsgKind.DATA_S: "ReqS", MsgKind.DATA_E: "ReqS",
    MsgKind.GET_M: "ReqO+data", MsgKind.DATA_M: "ReqO+data",
    MsgKind.PUT_M: "ReqWB", MsgKind.WB_ACK: "ReqWB",
    MsgKind.FWD_GET_S: "Probe", MsgKind.FWD_GET_M: "Probe",
    MsgKind.MESI_INV: "Probe", MsgKind.MESI_INV_ACK: "Probe",
    MsgKind.REL_ACK: "Transport",
}

#: Message sizing in bytes: a control header plus any data payload.
CONTROL_BYTES = 8
ADDR_BYTES = 8
MASK_BYTES = 2


def wire_bytes(mask: int, data_words: int) -> int:
    """On-wire size: header + mask (if partial) + data payload."""
    if mask and mask != FULL_LINE_MASK:
        return CONTROL_BYTES + ADDR_BYTES + MASK_BYTES + 4 * data_words
    return CONTROL_BYTES + ADDR_BYTES + 4 * data_words


class AtomicOp:
    """A read-modify-write operation carried by ReqWT+data / ReqO+data.

    ``fn`` maps (old value, operand) -> new value.  The response carries
    the old value (paper: "RspWT+data ... carries the value of the data
    before the update was performed").
    """

    _counter = itertools.count()

    def __init__(self, name: str, fn: Callable[[int, int], int],
                 operand: int = 0):
        self.name = name
        self.fn = fn
        self.operand = operand
        self.uid = next(AtomicOp._counter)

    def apply(self, old: int) -> int:
        return self.fn(old, self.operand)

    def __repr__(self) -> str:
        return f"AtomicOp({self.name}, operand={self.operand})"


def atomic_add(operand: int = 1) -> AtomicOp:
    return AtomicOp("add", lambda old, n: old + n, operand)


def atomic_max(operand: int) -> AtomicOp:
    return AtomicOp("max", lambda old, n: max(old, n), operand)


def atomic_exch(operand: int) -> AtomicOp:
    return AtomicOp("exch", lambda old, n: n, operand)


def atomic_cas(expected: int, new: int) -> AtomicOp:
    return AtomicOp(
        "cas", lambda old, n: new if old == expected else old, expected)


class Message:
    """One network message.

    Attributes:
        kind: the :class:`MsgKind`.
        line: line-aligned byte address.
        mask: 16-bit word mask the message targets/carries.
        src / dst: component ids on the network.
        req_id: correlates responses with the originating request.
        requestor: for forwarded requests, the id the owner must respond
            to directly (paper Figure 1c/1d: owner responds to requestor).
        data: word index -> value for words the message carries.
        atomic: optional RMW operation (ReqWT+data / ReqO+data).
        is_line_granularity: True when the device issued a line request
            (affects response sizing and MESI TU behaviour).
        meta: free-form protocol bookkeeping (never serialized).
        sent_at: cycle of the latest wire send, stamped by the network
            (unset until the first send; diagnostics age in-flight
            messages by it).
    """

    __slots__ = ("kind", "line", "mask", "src", "dst", "req_id", "requestor",
                 "data", "atomic", "is_line_granularity", "meta", "sent_at")

    _req_ids = itertools.count(1)

    def __init__(self, kind: MsgKind, line: int, mask: int, src: str,
                 dst: str, req_id: Optional[int] = None,
                 requestor: Optional[str] = None,
                 data: Optional[Dict[int, int]] = None,
                 atomic: Optional[AtomicOp] = None,
                 is_line_granularity: bool = False,
                 meta: Optional[dict] = None):
        self.kind = kind
        self.line = line
        self.mask = mask
        self.src = src
        self.dst = dst
        self.req_id = req_id if req_id is not None else next(Message._req_ids)
        self.requestor = requestor
        self.data = data if data is not None else {}
        self.atomic = atomic
        self.is_line_granularity = is_line_granularity
        self.meta = meta if meta is not None else {}

    @property
    def traffic_class(self) -> str:
        return TRAFFIC_CLASS[self.kind]

    def size_bytes(self) -> int:
        """On-wire size (:func:`wire_bytes`)."""
        return wire_bytes(self.mask, len(self.data))

    def carries_data(self) -> bool:
        return bool(self.data)

    def words(self):
        """Word indices targeted by this message."""
        from .addr import iter_mask
        return iter_mask(self.mask)

    def word_count(self) -> int:
        return popcount(self.mask)

    def __repr__(self) -> str:
        gran = "line" if self.is_line_granularity else "word"
        return (f"<{self.kind.value} line=0x{self.line:x} mask=0x{self.mask:04x} "
                f"{self.src}->{self.dst} id={self.req_id} {gran}"
                f"{' +data' if self.data else ''}>")


def clone(msg: Message) -> Message:
    """An independent copy for retransmission / wire duplication.

    Receivers mutate delivered messages in place, so anything that may
    be delivered twice (a retransmit, a dup fault) must be a fresh
    object.  ``data`` and ``meta`` are shallow-copied: protocols store
    only scalars there (word values, txn ids), and ``atomic`` is shared
    deliberately — ``AtomicOp.uid`` identity is what dedupe keys on.
    Arguments go by position: a keyword call costs this per-message
    path more than half again.
    """
    return Message(msg.kind, msg.line, msg.mask, msg.src, msg.dst,
                   msg.req_id, msg.requestor, dict(msg.data), msg.atomic,
                   msg.is_line_granularity, dict(msg.meta))
