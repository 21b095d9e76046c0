"""Per-access request-type specialization policies (ROADMAP: adaptive axis).

The Spandex paper fixes each device family's request-type mapping
(Table II): GPU L1s issue ReqV/ReqWT, DeNovo L1s issue ReqV/ReqO.
Follow-on work ("A Case for Fine-grain Coherence Specialization in
Heterogeneous Systems" and the hpvm-spandex compiler pass) shows that
choosing the request type *per access* — write-through for
producer->consumer data, ownership for reused data — with owner
prediction beats any fixed mapping.

This module supplies that selection layer.  A :class:`RequestPolicy`
is attached to a :class:`~repro.core.tu.TranslationUnit` and consulted
once per device request leaving the TU.  It may

* leave the request untouched (the *fixed* baseline — in fact the
  fixed baseline attaches no policy object at all, so the hot path is
  bit-identical to the pre-policy simulator),
* convert an ownership store (ReqO) into a forwarding write-through
  (ReqWTfwd) so the home pushes the data to the current owner instead
  of revoking it (producer->consumer forwarding), or
* redirect a ReqV directly at a predicted owner TU, skipping the home
  indirection when the prediction hits.

Policies are deterministic pure functions of (access kind, line,
observed history); they never mutate protocol state, so every policy
produces the same final memory image — only latency and traffic
differ.  ``tests/property/test_policy_equivalence.py`` pins this.

Owner prediction
----------------
:class:`OwnerPredictor` is a small tagged, direct-mapped table of
last-known writers with 2-bit saturating confidence counters, indexed
by line address.  The TU trains it from traffic it observes (forwarded
requests name the requestor; responses with owner metadata name the
granting owner).  A prediction is only *used* above a confidence
threshold; a mispredict (Nack from the predicted owner) falls back to
the home and decays the entry.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..coherence.messages import MsgKind

#: Policy names accepted by SystemConfig.request_policy / --policy.
POLICY_NAMES = ("fixed", "criticality", "adaptive")


class OwnerPredictor:
    """Tagged direct-mapped last-writer table with confidence counters.

    ``sets`` entries, each holding (tag, owner id, confidence).  The
    index is ``(line // line_bytes) % sets`` and the tag is the full
    line address, so aliasing lines evict each other (tested in
    tests/unit/test_policy.py).  Confidence is a saturating counter in
    [0, max_confidence]; predictions are offered only at or above
    ``threshold``.  Training on a conflicting owner replaces the entry
    at confidence 1 rather than fighting the counter down.
    """

    def __init__(self, sets: int = 64, threshold: int = 2,
                 max_confidence: int = 3, line_bytes: int = 64):
        if sets <= 0:
            raise ValueError("predictor needs at least one set")
        self.sets = sets
        self.threshold = threshold
        self.max_confidence = max_confidence
        self.line_bytes = line_bytes
        # index -> (tag, owner, confidence)
        self._table: Dict[int, Tuple[int, str, int]] = {}

    def _index(self, line: int) -> int:
        return (line // self.line_bytes) % self.sets

    def train(self, line: int, owner: str) -> None:
        """Record that ``owner`` was last seen writing/owning ``line``."""
        idx = self._index(line)
        entry = self._table.get(idx)
        if entry is not None and entry[0] == line and entry[1] == owner:
            conf = min(entry[2] + 1, self.max_confidence)
            self._table[idx] = (line, owner, conf)
        else:
            # Alias eviction or owner change: start over at low trust.
            self._table[idx] = (line, owner, 1)

    def predict(self, line: int) -> Optional[str]:
        """Predicted owner for ``line``, or None below threshold."""
        entry = self._table.get(self._index(line))
        if entry is None or entry[0] != line:
            return None
        if entry[2] < self.threshold:
            return None
        return entry[1]

    def mispredict(self, line: int) -> None:
        """Decay confidence after a Nack from the predicted owner."""
        idx = self._index(line)
        entry = self._table.get(idx)
        if entry is not None and entry[0] == line:
            conf = entry[2] - 1
            if conf <= 0:
                del self._table[idx]
            else:
                self._table[idx] = (line, entry[1], conf)

    def invalidate(self, line: int) -> None:
        """Drop any entry for ``line`` (ownership transferred away)."""
        idx = self._index(line)
        entry = self._table.get(idx)
        if entry is not None and entry[0] == line:
            del self._table[idx]

    def lookup(self, line: int):
        """(owner, confidence) regardless of threshold — for tests."""
        entry = self._table.get(self._index(line))
        if entry is None or entry[0] != line:
            return None
        return entry[1], entry[2]


class RequestPolicy:
    """Base policy: per-access request-type selection hooks.

    ``select`` may return a replacement :class:`MsgKind` for an
    outgoing device request (currently only ReqO -> ReqWTfwd and
    ReqWT -> ReqWTfwd conversions are meaningful); returning the
    original kind (or None) leaves the request untouched.

    ``wants_prediction`` gates owner-predicted ReqV redirection.
    """

    name = "base"

    def select(self, kind: MsgKind, line: int, tu) -> Optional[MsgKind]:
        return None

    def wants_prediction(self, kind: MsgKind) -> bool:
        return False

    def observe_forward(self, line: int, requestor: str) -> None:
        """A forwarded request for ``line`` named ``requestor``."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class CriticalityPolicy(RequestPolicy):
    """Static heuristic after the hpvm-spandex criticality pass.

    A GPU device's stores (ReqO or ReqWT) are producer data the writer
    will not reuse, so they become forwarding write-throughs; a CPU
    device's stores keep the fixed ownership mapping.  The role is the
    issuing device's (``tu.device_class``), not the cache's protocol
    family: an SDD GPU runs a DeNovo L1 but still hides latency like a
    GPU.  hpvm-spandex weighs every store 1.0 and converts them all;
    keeping CPU stores on ownership is this repo's own deviation (the
    adaptive policy can still learn to forward them).  Loads use owner
    prediction to skip the home hop.
    """

    name = "criticality"

    def select(self, kind, line, tu):
        if kind in (MsgKind.REQ_O, MsgKind.REQ_WT) and \
                tu.device_class == "gpu":
            return MsgKind.REQ_WT_FWD
        return None

    def wants_prediction(self, kind):
        return kind is MsgKind.REQ_V


class AdaptivePolicy(RequestPolicy):
    """Table-driven adaptive policy.

    Tracks, per line-region, how often written data was consumed
    remotely (the home forwarded a request naming another requestor)
    versus reused locally.  Regions observed to be producer->consumer
    switch stores to ReqWTfwd; regions with local reuse keep the fixed
    mapping.  Loads use owner prediction once a region is known to
    have a stable remote writer.
    """

    name = "adaptive"

    def __init__(self, region_lines: int = 4, line_bytes: int = 64,
                 remote_threshold: int = 1):
        self.region_shift = line_bytes * region_lines
        self.remote_threshold = remote_threshold
        # region -> count of remote consumptions observed
        self._remote_reads: Dict[int, int] = {}

    def _region(self, line: int) -> int:
        return line // self.region_shift

    def observe_forward(self, line: int, requestor: str) -> None:
        region = self._region(line)
        self._remote_reads[region] = self._remote_reads.get(region, 0) + 1

    def select(self, kind, line, tu):
        if kind in (MsgKind.REQ_O, MsgKind.REQ_WT):
            if (self._remote_reads.get(self._region(line), 0)
                    >= self.remote_threshold):
                return MsgKind.REQ_WT_FWD
        return None

    def wants_prediction(self, kind):
        return kind is MsgKind.REQ_V


def make_policy(name: str) -> Optional[RequestPolicy]:
    """Policy instance for a config name; None for the fixed baseline.

    The fixed baseline (the paper's Table II mapping) has no policy
    object: with none attached, the TU's ``from_device`` takes its
    early-exit path, which keeps the baseline bit-identical.
    """
    if name in (None, "fixed"):
        return None
    if name == "criticality":
        return CriticalityPolicy()
    if name == "adaptive":
        return AdaptivePolicy()
    raise ValueError(
        f"unknown request policy {name!r}; expected one of {POLICY_NAMES}")
