"""Deterministic seeded fault injector.

Two fault families (full taxonomy in ROBUSTNESS.md):

* **Timing faults** perturb *when* messages arrive: extra per-message
  delay jitter, periodic burst congestion windows, and forced Nacks for
  ReqV at a Spandex home.  All are legal protocol behaviors (a slow
  link, a congested switch, an owner that departed before a forwarded
  request arrived), so the raw protocols absorb them unaided.

* **Delivery faults** break the fabric's delivery contract: per-link
  message drop, duplication, cross-message reordering past the FIFO
  clamp, scheduled link-down windows, and full socket partitions.  The
  :class:`repro.network.reliable.ReliableNetwork` sublayer must
  re-establish exactly-once FIFO delivery above them.

Either way a correct system produces byte-identical final memory under
any seed — only cycle counts may move.

Determinism: draws come from private :class:`random.Random` streams
(one per fault kind, so network and home consultations never interleave
draws), and the discrete-event engine orders consultations identically
given the same seed and configuration.  Burst / link-down / partition
windows are pure functions of the cycle counter and need no randomness
at all.

FIFO preservation: extra delay is folded into the link latency *before*
:class:`~repro.network.noc.Network` applies its per-link monotonic
delivery clamp, so point-to-point FIFO ordering — a correctness
assumption of every controller — survives any jitter.  Reorder skew is
deliberately applied *after* the clamp: breaking FIFO is the fault.
"""

from __future__ import annotations

import random
from collections import defaultdict
from fnmatch import fnmatchcase
from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..coherence.messages import Message
    from ..sim.stats import StatsRegistry
    from ..system.config import FaultConfig


class FaultInjector:
    """Seeded fault source consulted by the network and homes."""

    def __init__(self, config: "FaultConfig",
                 stats: Optional["StatsRegistry"] = None):
        self.config = config
        # Independent streams per fault kind: the network and the home
        # consult the injector in interleaved but deterministic order,
        # and separate streams keep each kind's sequence stable even if
        # another kind is reconfigured.  Constructing a Random draws
        # nothing, so adding streams never shifts existing sequences.
        self._delay_rng = random.Random(config.seed)
        self._nack_rng = random.Random(config.seed ^ 0x5DEECE66D)
        self._drop_rng = random.Random(config.seed ^ 0x9E3779B9)
        self._dup_rng = random.Random(config.seed ^ 0x7F4A7C15)
        self._reorder_rng = random.Random(config.seed ^ 0x2545F491)
        #: live counter dict: the registry's, or a private one
        self._counters = (stats.raw_counters() if stats is not None
                          else defaultdict(float))
        #: cached so Network.send pays one attribute test, not a chain
        self.unreliable = config.unreliable
        #: endpoint name -> socket index; installed by the builder from
        #: ``Topology.sockets`` (empty on single-socket fabrics, so
        #: partitions silently never match — matching the hardware:
        #: you cannot partition a fabric with one socket)
        self.sockets: Dict[str, int] = {}
        # Which fault kinds are armed is decided once here: a kind left
        # unarmed costs ``wire_fate`` one false test and no draw.
        self._link_down = tuple(
            (window.start, window.start + window.length, window.src,
             window.dst) for window in config.link_down)
        self._partitions = tuple(
            (window.start, window.start + window.length, window.socket)
            for window in config.partitions)
        self._delayed = (
            (config.burst_period > 0 and config.burst_length > 0
             and config.burst_extra > 0)
            or (config.delay_prob > 0 and config.max_extra_delay > 0))

    # ------------------------------------------------------------------
    def in_burst(self, now: int) -> bool:
        """Is ``now`` inside a congestion burst window?"""
        period = self.config.burst_period
        if period <= 0 or self.config.burst_length <= 0:
            return False
        return (now % period) < self.config.burst_length

    def extra_delay(self, msg: "Message", now: int) -> int:
        """Extra link cycles to charge this send (possibly zero)."""
        extra = 0
        counters = self._counters
        if self.in_burst(now) and self.config.burst_extra > 0:
            extra += self.config.burst_extra
            counters["faults.burst_delayed"] += 1
        classes = self.config.classes
        if self.config.delay_prob > 0 and self.config.max_extra_delay > 0 \
                and (not classes or msg.traffic_class in classes) \
                and self._delay_rng.random() < self.config.delay_prob:
            extra += self._delay_rng.randint(1, self.config.max_extra_delay)
            counters["faults.jitter_delayed"] += 1
        if extra:
            counters["faults.extra_delay_cycles"] += extra
        return extra

    def should_nack(self, msg: "Message") -> bool:
        """Should the home reject this ReqV with a forced Nack?

        Emulates the owner-departed race of §III-C.3 on demand; the
        requestor's Nack path (TU retry/escalation or the DeNovo native
        retry) must recover with the correct value.  The builder hands
        homes the injector only when ``nack_prob`` is set.
        """
        hit = self._nack_rng.random() < self.config.nack_prob
        if hit:
            self._counters["faults.forced_nacks"] += 1
        return hit

    # -- delivery faults (ReliableNetwork territory) -------------------
    def wire_fate(self, msg: "Message", now: int
                  ) -> Tuple[Optional[str], int, int, bool]:
        """Decide one unreliable send: ``(drop reason or None, extra
        delay, reorder skew, duplicate?)``.

        Kinds are consulted in a fixed order: link-down windows, socket
        partitions, the drop draw, then (for a send that survives)
        extra delay, reorder skew and duplication.  The deterministic
        window checks run before any draw, so scheduled outages never
        consume RNG state: rewiring a link-down window leaves the drop
        stream untouched.  A dropped send draws nothing further.
        """
        config = self.config
        counters = self._counters
        for start, end, src, dst in self._link_down:
            if start <= now < end and fnmatchcase(msg.src, src) \
                    and fnmatchcase(msg.dst, dst):
                counters["faults.link_down_dropped"] += 1
                counters["faults.dropped"] += 1
                return "link_down", 0, 0, False
        if self._partitions and self.sockets:
            src_socket = self.sockets.get(msg.src)
            dst_socket = self.sockets.get(msg.dst)
            if src_socket is not None and dst_socket is not None \
                    and src_socket != dst_socket:
                for start, end, socket in self._partitions:
                    if start <= now < end \
                            and socket in (src_socket, dst_socket):
                        counters["faults.partition_dropped"] += 1
                        counters["faults.dropped"] += 1
                        return "partition", 0, 0, False
        if config.drop_prob and self._drop_rng.random() < config.drop_prob:
            counters["faults.dropped"] += 1
            return "drop", 0, 0, False
        extra = self.extra_delay(msg, now) if self._delayed else 0
        skew = 0
        # (validation guarantees a reorder window when the prob is set)
        if config.reorder_prob \
                and self._reorder_rng.random() < config.reorder_prob:
            skew = self._reorder_rng.randint(1, config.reorder_window)
            counters["faults.reordered"] += 1
        dup = bool(config.dup_prob) \
            and self._dup_rng.random() < config.dup_prob
        if dup:
            counters["faults.duplicated"] += 1
        return None, extra, skew, dup
