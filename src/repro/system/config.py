"""System configurations (paper Tables V and VI).

Six memory configurations, named by LLC protocol / CPU L1 protocol /
GPU L1 protocol:

====  ==========  ======  =============
name  LLC         CPU L1  GPU L1
====  ==========  ======  =============
HMG   H-MESI      MESI    GPU coherence
HMD   H-MESI      MESI    DeNovo
SMG   Spandex     MESI    GPU coherence
SMD   Spandex     MESI    DeNovo
SDG   Spandex     DeNovo  GPU coherence
SDD   Spandex     DeNovo  DeNovo
====  ==========  ======  =============

Hierarchical (H-MESI) configurations route GPU L1s through a shared
GPU L2 which speaks MESI to a directory L3; Spandex configurations
attach every L1 directly to the Spandex LLC through a translation unit.

In SDG the CPU DeNovo caches perform atomics at the LLC (ReqWT+data
rather than ReqO+data), matching the GPU strategy to avoid blocking
states on inter-device synchronization (paper §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..coherence.messages import TRAFFIC_CLASS
from ..core.policy import POLICY_NAMES
from ..core.shard import INTERLEAVINGS
from ..network.topology import TOPOLOGIES

KB = 1024
MB = 1024 * KB

#: reorder skew bound used when only a reorder probability is given
REORDER_WINDOW = 64
#: health-monitor scrape period when monitoring is on but no period
#: is given
MONITOR_INTERVAL = 5000


@dataclass(frozen=True)
class LinkWindow:
    """A scheduled link outage (``repro.faults``): every message that
    enters a matching ``src -> dst`` link during
    ``[start, start + length)`` is silently dropped on the wire.
    ``src`` / ``dst`` are :mod:`fnmatch` patterns over endpoint names
    (``"*"`` matches everything, ``"llc*"`` every home shard)."""

    start: int
    length: int
    src: str = "*"
    dst: str = "*"

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise ValueError(
                f"LinkWindow needs start >= 0 and length > 0, got "
                f"start={self.start} length={self.length}")


@dataclass(frozen=True)
class PartitionWindow:
    """A full socket partition (``repro.faults``): during
    ``[start, start + length)`` every message crossing into or out of
    ``socket`` (per ``Topology.sockets``) is dropped — the CXL-style
    "cable pulled" failure.  Intra-socket traffic is unaffected."""

    start: int
    length: int
    socket: int = 1

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise ValueError(
                f"PartitionWindow needs start >= 0 and length > 0, got "
                f"start={self.start} length={self.length}")
        if self.socket < 0:
            raise ValueError(
                f"PartitionWindow.socket must be >= 0, got {self.socket}")


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection parameters (``repro.faults``).

    Two fault families (see ROBUSTNESS.md):

    * **timing faults** (delay jitter, burst congestion, forced Nacks)
      perturb *when* messages arrive but keep exactly-once FIFO
      delivery, so the raw protocols absorb them unaided;
    * **delivery faults** (drop, duplication, reordering, link-down
      windows, socket partitions) break the fabric's delivery contract
      and require the ``repro.network.reliable`` transport sublayer to
      re-establish it.

    Either way, a correct system yields byte-identical final memory for
    any seed — only cycle counts may move.
    """

    seed: int = 0
    #: per-message probability of extra delay, and its max magnitude
    delay_prob: float = 0.0
    max_extra_delay: int = 0
    #: periodic congestion bursts: every ``burst_period`` cycles, the
    #: first ``burst_length`` cycles charge ``burst_extra`` per message
    burst_period: int = 0
    burst_length: int = 0
    burst_extra: int = 0
    #: probability a Spandex home force-Nacks an incoming ReqV
    nack_prob: float = 0.0
    #: traffic classes eligible for delay jitter (empty = all)
    classes: Tuple[str, ...] = ()

    # -- delivery faults (require the reliable transport sublayer) -----
    #: per-message probability the wire silently drops it
    drop_prob: float = 0.0
    #: per-message probability the wire delivers it twice
    dup_prob: float = 0.0
    #: per-message probability of cross-message reordering, and the max
    #: extra skew (cycles) past the per-link FIFO clamp
    reorder_prob: float = 0.0
    reorder_window: int = 0
    #: scheduled link outages (every matching send is dropped)
    link_down: Tuple[LinkWindow, ...] = ()
    #: scheduled socket partitions (multi_socket topologies)
    partitions: Tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"FaultConfig.seed must be >= 0, got "
                             f"{self.seed}")
        for name in ("delay_prob", "nack_prob", "drop_prob", "dup_prob",
                     "reorder_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"FaultConfig.{name} must be in [0, 1], got {value}")
        for name in ("max_extra_delay", "burst_period", "burst_length",
                     "burst_extra", "reorder_window"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(
                    f"FaultConfig.{name} must be >= 0, got {value}")
        if self.burst_period > 0 and self.burst_length > self.burst_period:
            raise ValueError(
                f"FaultConfig.burst_length ({self.burst_length}) cannot "
                f"exceed burst_period ({self.burst_period}): the burst "
                f"window would cover every cycle")
        names = set(TRAFFIC_CLASS.values())
        if isinstance(self.classes, str) \
                or not names.issuperset(self.classes):
            raise ValueError(
                f"FaultConfig.classes must be a tuple of traffic class "
                f"names from {sorted(names)}, got {self.classes!r}")
        if self.reorder_prob > 0 and self.reorder_window <= 0:
            raise ValueError(
                "FaultConfig.reorder_prob > 0 needs reorder_window > 0")
        if self.drop_prob >= 1.0:
            raise ValueError(
                "FaultConfig.drop_prob = 1.0 drops every message: no "
                "retransmit strategy can terminate")

    @property
    def unreliable(self) -> bool:
        """Does any delivery-fault class fire?  When True the builder
        interposes :class:`repro.network.reliable.ReliableNetwork`."""
        return (self.drop_prob > 0 or self.dup_prob > 0
                or (self.reorder_prob > 0 and self.reorder_window > 0)
                or bool(self.link_down) or bool(self.partitions))

    @property
    def active(self) -> bool:
        return (self.delay_prob > 0 or self.nack_prob > 0
                or (self.burst_period > 0 and self.burst_length > 0)
                or self.unreliable)

    @classmethod
    def stress(cls, seed: int = 0) -> "FaultConfig":
        """The standing timing-fault stress profile used by tests/CI."""
        return cls(seed=seed, delay_prob=0.05, max_extra_delay=40,
                   burst_period=4000, burst_length=250, burst_extra=25,
                   nack_prob=0.02)

    @classmethod
    def unreliable_stress(cls, seed: int = 0) -> "FaultConfig":
        """The standing delivery-fault stress profile: moderate loss,
        duplication and reordering on every link, plus a one-shot link
        outage early in the run.  Intensities are chosen so a healthy
        transport converges quickly (drop_prob well below 1, skew well
        under the retransmit timeout)."""
        return cls(seed=seed, drop_prob=0.02, dup_prob=0.02,
                   reorder_prob=0.05, reorder_window=REORDER_WINDOW,
                   link_down=(LinkWindow(start=2_000, length=1_500),))


def parse_link_down(spec: str) -> LinkWindow:
    """Parse a CLI ``--link-down`` spec: ``START:LENGTH[:SRC[:DST]]``
    (e.g. ``2000:1500`` or ``2000:1500:c0:llc*``)."""
    parts = spec.split(":")
    if len(parts) < 2 or len(parts) > 4:
        raise ValueError(
            f"link-down spec must be START:LENGTH[:SRC[:DST]], "
            f"got {spec!r}")
    try:
        start, length = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"link-down START and LENGTH must be integers, got {spec!r}")
    src = parts[2] if len(parts) > 2 else "*"
    dst = parts[3] if len(parts) > 3 else "*"
    return LinkWindow(start=start, length=length, src=src, dst=dst)


@dataclass(frozen=True)
class TraceConfig:
    """Observability parameters (``repro.obs``).

    Tracing is passive: the recorder never schedules engine events, so
    enabling it changes no cycle counts, event counts, or memory state.
    """

    #: ring-buffer capacity (events retained for export / diagnostics)
    capacity: int = 262_144
    #: ``addr=0x…`` / ``dev=name`` / ``class=kind`` retention filters
    #: (see :meth:`repro.obs.TraceFilter.parse`); empty = keep all
    filters: Tuple[str, ...] = ()
    #: health-monitor scrape period in cycles (each scrape also
    #: snapshots the StatsRegistry counters); 0 disables the monitor
    monitor_interval: int = 0
    #: rows shown in top-K health rollups (contended lines / shards /
    #: links, hottest queues)
    health_top_k: int = 8


@dataclass(frozen=True)
class WatchdogConfig:
    """Liveness watchdog parameters (``repro.faults.watchdog``)."""

    enabled: bool = True
    #: cycles a request / MSHR entry may stay outstanding
    stall_cycles: int = 400_000
    #: audit period; 0 = ``stall_cycles // 4``
    period: int = 0


@dataclass(frozen=True)
class SystemConfig:
    """One simulated memory system (a Table V row + Table VI numbers)."""

    name: str
    llc_style: str                    # 'spandex' | 'hierarchical'
    cpu_protocol: str                 # 'MESI' | 'DeNovo'
    gpu_protocol: str                 # 'GPU' | 'DeNovo'
    cpu_atomic_policy: str = "own"    # 'own' | 'llc' (DeNovo CPUs only)

    num_cpus: int = 8
    num_gpus: int = 16
    cpu_issue_period: int = 1         # 2 GHz reference clock
    gpu_issue_period: int = 3         # ~700 MHz in CPU cycles

    l1_size: int = 32 * KB
    l1_assoc: int = 8
    l1_mshrs: int = 128
    store_buffer_words: int = 128

    llc_size: int = 8 * MB            # Spandex L2 (Table VI)
    gpu_l2_size: int = 4 * MB         # hierarchical intermediate L2
    l3_size: int = 8 * MB             # hierarchical L3
    llc_banks: int = 16
    llc_assoc: int = 16

    #: Spandex home shards: ``llc_size`` splits evenly across
    #: ``llc_shards`` address-interleaved homes (``llc0 … llcN-1``); 1
    #: keeps the historical single home named ``llc`` and is
    #: bit-identical to the pre-shard build.  Hierarchical
    #: configurations have a directory L3 and ignore extra shards.
    llc_shards: int = 1
    #: line->shard function: 'line' = (line >> 6) % N striping,
    #: 'hash' = multiplicative hash before the modulo
    shard_interleave: str = "line"

    llc_access_latency: int = 10
    l3_access_latency: int = 12
    gpu_l2_access_latency: int = 10
    dram_latency: int = 160

    net_cpu_llc: int = 10
    net_gpu_llc: int = 12
    net_gpu_l2: int = 8
    net_l2_l3: int = 10
    net_default: int = 12
    link_bytes_per_cycle: int = 32

    #: fabric shape (repro.network.topology): 'p2p' is the historical
    #: star wiring; 'mesh' / 'switch' / 'multi_socket' derive every
    #: pair latency from hop routes
    topology: str = "p2p"
    num_sockets: int = 2              # multi_socket partitions
    mesh_hop_latency: int = 4         # per Manhattan hop
    switch_latency: int = 6           # central switch traversal
    #: asymmetric cross-socket link (CXL/NVLink-C2C style): requests
    #: toward a higher-numbered socket vs the return direction
    cross_socket_latency: int = 40
    cross_socket_return_latency: int = 60

    tu_latency: int = 1

    #: per-access request-type policy at the Spandex TUs
    #: (repro.core.policy): 'fixed' is the paper's Table II mapping and
    #: attaches no policy object at all — bit-identical to the
    #: pre-policy build; 'criticality' and 'adaptive' may convert
    #: stores to forwarding write-throughs (ReqWTfwd).  Hierarchical
    #: configurations have no Spandex TUs and ignore the setting.
    request_policy: str = "fixed"
    #: arm the TU owner-prediction table (direct owner-predicted ReqV
    #: with Nack fallback); only meaningful with a non-fixed policy
    owner_pred: bool = False

    #: reliable-transport sublayer (repro.network.reliable), armed only
    #: when ``faults`` enables a delivery-fault class: initial
    #: retransmission timeout, its exponential-backoff cap, and how
    #: long a channel may sit with unacked traffic before the watchdog
    #: escalates a TransportError (dead-link deadline)
    transport_rto: int = 400
    transport_rto_cap: int = 6400
    transport_dead_cycles: int = 200_000

    #: TU Nack handling: bounded ReqV retries with exponential backoff
    #: plus deterministic per-device jitter before escalating
    tu_nack_retry_limit: int = 2
    tu_backoff_base: int = 8
    tu_backoff_cap: int = 128
    tu_backoff_jitter: int = 7

    #: optional fault injection (None = fault-free run)
    faults: Optional[FaultConfig] = None
    #: liveness watchdog (on by default; a hang becomes DeadlockError)
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)
    #: optional observability (None = no tracing / profiling)
    trace: Optional[TraceConfig] = None

    def __post_init__(self) -> None:
        if self.llc_shards < 1:
            raise ValueError(
                f"llc_shards must be >= 1, got {self.llc_shards}")
        for what, value, names in (
                ("topology", self.topology, TOPOLOGIES),
                ("shard interleave", self.shard_interleave, INTERLEAVINGS),
                ("request policy", self.request_policy, POLICY_NAMES)):
            if value not in names:
                raise ValueError(f"unknown {what} {value!r}; expected "
                                 f"one of {names}")

    @property
    def hierarchical(self) -> bool:
        return self.llc_style == "hierarchical"

    def describe(self) -> str:
        llc = "H-MESI" if self.hierarchical else "Spandex"
        gpu = "GPU coherence" if self.gpu_protocol == "GPU" else "DeNovo"
        return (f"{self.name}: LLC={llc} CPU L1={self.cpu_protocol} "
                f"GPU L1={gpu}")


#: Table V — the six evaluated cache configurations.
CONFIGS: Dict[str, SystemConfig] = {
    "HMG": SystemConfig("HMG", "hierarchical", "MESI", "GPU"),
    "HMD": SystemConfig("HMD", "hierarchical", "MESI", "DeNovo"),
    "SMG": SystemConfig("SMG", "spandex", "MESI", "GPU"),
    "SMD": SystemConfig("SMD", "spandex", "MESI", "DeNovo"),
    "SDG": SystemConfig("SDG", "spandex", "DeNovo", "GPU",
                        cpu_atomic_policy="llc"),
    "SDD": SystemConfig("SDD", "spandex", "DeNovo", "DeNovo"),
}

CONFIG_ORDER: Tuple[str, ...] = ("HMG", "HMD", "SMG", "SMD", "SDG", "SDD")

HIERARCHICAL_CONFIGS: Tuple[str, ...] = ("HMG", "HMD")
SPANDEX_CONFIGS: Tuple[str, ...] = ("SMG", "SMD", "SDG", "SDD")


def scaled_config(name: str, num_cpus: int, num_gpus: int,
                  **overrides) -> SystemConfig:
    """A Table V configuration scaled down (used to keep trace-driven
    runs tractable while preserving the CPU:GPU ratio)."""
    base = CONFIGS[name]
    from dataclasses import replace
    return replace(base, num_cpus=num_cpus, num_gpus=num_gpus, **overrides)
