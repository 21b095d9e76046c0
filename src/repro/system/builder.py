"""System builder: wires a full simulated machine from a SystemConfig.

Spandex configurations::

    CPU cores --- MESI/DeNovo L1 --- TU ---+
                                           +--- network --- Spandex LLC --- DRAM
    GPU CUs  --- GPU-coh/DeNovo L1 - TU ---+

Hierarchical configurations::

    CPU cores --- MESI L1 ------------------+
                                            +--- network --- MESI dir L3 --- DRAM
    GPU CUs --- GPU-coh/DeNovo L1 - GPU L2 -+
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.llc import SpandexLLC
from ..core.policy import OwnerPredictor, make_policy
from ..core.shard import HomeMap, shard_names, shard_size
from ..core.tu import make_tu
from ..devices.cpu import CPUCore
from ..devices.gpu import GPUCU
from ..faults import FaultInjector, LivenessWatchdog
from ..mem.dram import MainMemory
from ..network.noc import LatencyModel, Network
from ..network.reliable import ReliableNetwork
from ..network.topology import Attachment, TopoEndpoint, build_topology
from ..obs import (HealthMonitor, MetricsRegistry, SpanCollector,
                   TraceFilter, TraceRecorder)
from ..protocols.base import L1Controller
from ..protocols.denovo import DeNovoL1
from ..protocols.gpu_coherence import GPUCoherenceL1
from ..protocols.gpu_l2 import GPUL2
from ..protocols.mesi import MESIL1
from ..protocols.mesi_llc import MESIDirectoryLLC
from ..sim.engine import Engine
from ..sim.lifetime import gc_paused
from ..sim.stats import StatsRegistry
from .config import SystemConfig
from .readback import CoherentReader


class System:
    """A fully wired machine ready to execute a workload.

    Subclass hooks: :meth:`_devices`, :meth:`_make_network` and
    :meth:`_l1_kwargs` (see :class:`repro.verify.systems.VerifySystem`).

    Every consumer that walks the machine (diagnostics, invariants,
    watchdog, health monitor, coherent reads, FSM coverage) reads
    :attr:`l1s` and :attr:`homes`.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.engine = Engine()
        self.stats = StatsRegistry()
        self.latency_model = LatencyModel(default=config.net_default)
        self.network = self._make_network()
        self.dram = MainMemory(self.engine, self.stats,
                               latency=config.dram_latency,
                               banks=config.llc_banks)
        self.cpus: List[CPUCore] = []
        self.gpus: List[GPUCU] = []
        #: every device L1 by name, in build order
        self.l1s: Dict[str, L1Controller] = {}
        self.llc = None           # SpandexLLC or MESIDirectoryLLC
        #: every Spandex home shard (== [self.llc] for 1-shard and
        #: hierarchical builds); consumers that audit home state
        #: iterate this instead of assuming a single LLC
        self.llcs: List = []
        self.home_map: Optional[HomeMap] = None
        self.topology = None      # installed network.topology.Topology
        self.gpu_l2: Optional[GPUL2] = None
        #: set by the litmus explorer ({"scenario":…, "config":…, …})
        #: so diagnostics identify the failing schedule
        self.verify_context: Optional[Dict[str, object]] = None
        self._reader: Optional[CoherentReader] = None
        #: endpoint / star-edge records the topology builder consumes
        self._topo_endpoints: List[TopoEndpoint] = []
        self._topo_attachments: List[Attachment] = []
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults is not None and config.faults.active:
            self.fault_injector = FaultInjector(config.faults, self.stats)
            self.network.fault_injector = self.fault_injector
        self.watchdog: Optional[LivenessWatchdog] = None
        if config.watchdog.enabled:
            self.watchdog = LivenessWatchdog(
                self, stall_cycles=config.watchdog.stall_cycles,
                period=config.watchdog.period)
            self.engine.stall_check = self.watchdog.quiescence_check
        # Observability must exist before _build(): L1 controllers copy
        # engine.tracer into their MSHR files at construction time.
        self.tracer: Optional[TraceRecorder] = None
        self.registry: Optional[MetricsRegistry] = None
        self.spans: Optional[SpanCollector] = None
        self.monitor: Optional[HealthMonitor] = None
        if config.trace is not None:
            self.tracer = TraceRecorder(
                self.engine, capacity=config.trace.capacity,
                filter=TraceFilter.parse(config.trace.filters))
            self.engine.tracer = self.tracer
            # the recorder dispatches each event of a span kind
            # straight to the collector's handler for it
            self.spans = SpanCollector(top_k=config.trace.health_top_k)
            self.tracer.handlers.update(self.spans.handlers())
        self._build()
        # the cycles among the parts, cut once the System is freed
        # (DESIGN.md "Object lifetime")
        weakref.finalize(self, _detach, self.network, self.engine,
                         list(self.l1s.values()))
        #: every home: the GPU L2 first, then each LLC shard (or the
        #: L3), the order CoherentReader probes home copies in
        self.homes: List = ([self.gpu_l2] if self.gpu_l2 is not None
                            else []) + self.llcs
        self.topology = build_topology(config, self._topo_endpoints,
                                       self._topo_attachments)
        self.topology.install(self.latency_model)
        if self.fault_injector is not None:
            # partition faults key off the topology's socket map
            # (empty on single-socket fabrics, so they never fire)
            self.fault_injector.sockets = \
                dict(getattr(self.topology, "sockets", {}) or {})
        if self.tracer is not None:
            for home in self.homes:
                self.tracer.homes.add(home.name)
        # The health monitor hooks in after the topology is built (it
        # enumerates live homes / L1s / links); the recorder runs its
        # interval check on every event.  Passive — runs stay
        # bit-identical.
        if self.tracer is not None and config.trace.monitor_interval > 0:
            self.registry = MetricsRegistry()
            self.monitor = HealthMonitor(
                self, self.registry, config.trace.monitor_interval,
                top_k=config.trace.health_top_k)
            self.tracer.monitor = self.monitor

    # ------------------------------------------------------------------
    def _make_network(self) -> Network:
        config = self.config
        # Passthrough: the reliable-transport sublayer is only
        # interposed when a delivery-fault class is armed; every other
        # run keeps the plain Network and never enters the transport.
        if config.faults is not None and config.faults.unreliable:
            network = ReliableNetwork(
                self.engine, self.stats, self.latency_model,
                config.link_bytes_per_cycle,
                rto=config.transport_rto,
                rto_cap=config.transport_rto_cap,
                dead_cycles=config.transport_dead_cycles)
            network.diagnostic_source = self
            return network
        return Network(self.engine, self.stats, self.latency_model,
                       config.link_bytes_per_cycle)

    def _build(self) -> None:
        config = self.config
        if config.hierarchical:
            self._build_hierarchical()
        else:
            self._build_spandex()

    def _l1_kwargs(self) -> Dict[str, object]:
        config = self.config
        return dict(size_bytes=config.l1_size, assoc=config.l1_assoc)

    def _base_kwargs(self, home: str) -> Dict[str, object]:
        config = self.config
        return dict(network=self.network, stats=self.stats, home=home,
                    mshr_entries=config.l1_mshrs,
                    store_buffer_words=config.store_buffer_words)

    def _tu_kwargs(self) -> Dict[str, object]:
        config = self.config
        return dict(
            nack_retry_limit=config.tu_nack_retry_limit,
            backoff_base=config.tu_backoff_base,
            backoff_cap=config.tu_backoff_cap,
            backoff_jitter=config.tu_backoff_jitter,
            retry_seed=(config.faults.seed
                        if config.faults is not None else 0))

    def _attach_policy(self, tu) -> None:
        """Arm the per-access request-type policy on a Spandex TU.

        The 'fixed' baseline attaches nothing: ``tu.policy`` stays
        None and the TU hot path is bit-identical to the pre-policy
        build (pinned by tests/property/test_policy_equivalence.py).
        """
        config = self.config
        policy = make_policy(config.request_policy)
        if policy is None:
            return
        tu.policy = policy
        if config.owner_pred:
            tu.predictor = OwnerPredictor()

    def _devices(self) -> List[Tuple[str, str, str]]:
        """``(L1 name, protocol, role)`` per device, in build order.

        ``protocol`` ('MESI' | 'GPU' | 'DeNovo') picks the L1
        controller; ``role`` ('cpu' | 'gpu') picks the core model that
        drives it, its network latency class, its TU's device class
        and, for a DeNovo L1, its atomic policy.
        """
        config = self.config
        return ([(f"cpu{i}.l1", config.cpu_protocol, "cpu")
                 for i in range(config.num_cpus)]
                + [(f"gpu{i}.l1", config.gpu_protocol, "gpu")
                   for i in range(config.num_gpus)])

    def _make_l1(self, name: str, protocol: str, role: str,
                 home: str) -> L1Controller:
        """One device's L1 controller, sending its requests to ``home``."""
        config = self.config
        flat = not config.hierarchical
        kwargs = dict(self._base_kwargs(home), **self._l1_kwargs())
        if flat:
            kwargs["register_on_network"] = False   # its TU registers
        if protocol == "MESI":
            return MESIL1(self.engine, name,
                          dialect="spandex" if flat else "mesi", **kwargs)
        if protocol == "DeNovo":
            # behind a TU the TU escalates Nacks; behind the GPU L2
            # the L1 retries them itself
            return DeNovoL1(self.engine, name,
                            atomic_policy=(config.cpu_atomic_policy
                                           if role == "cpu" else "own"),
                            nack_retry_limit=0 if flat else 3, **kwargs)
        if protocol == "GPU":
            return GPUCoherenceL1(self.engine, name, **kwargs)
        raise ValueError(f"unknown L1 protocol {protocol!r} for {name}")

    def _add_device(self, name: str, role: str, l1: L1Controller) -> None:
        """Record a wired L1 and the core model of its role."""
        config = self.config
        self.l1s[name] = l1
        self._topo_endpoints.append(TopoEndpoint(name, role))
        if role == "cpu":
            self.cpus.append(CPUCore(
                self.engine, f"cpu{len(self.cpus)}", l1, self.stats,
                issue_period=config.cpu_issue_period))
        else:
            self.gpus.append(GPUCU(
                self.engine, f"gpu{len(self.gpus)}", l1, self.stats,
                issue_period=config.gpu_issue_period))

    def _build_spandex(self) -> None:
        config = self.config
        names = shard_names(config.llc_shards)
        self.home_map = HomeMap(names, config.shard_interleave)
        sharded = len(names) > 1
        for shard_name in names:
            shard = SpandexLLC(
                self.engine, self.network, self.stats, self.dram,
                size_bytes=shard_size(config.llc_size, len(names),
                                      config.llc_assoc),
                assoc=config.llc_assoc,
                access_latency=config.llc_access_latency,
                banks=config.llc_banks, name=shard_name)
            shard.fault_injector = self._nack_injector()
            if sharded:
                # misroutes fail loudly; bank index keys on the
                # within-shard line so striping fills all banks
                shard.home_map = self.home_map
                if config.shard_interleave == "line":
                    shard.bank_stride = len(names)
            self.llcs.append(shard)
            self._topo_endpoints.append(TopoEndpoint(shard_name, "home"))
        self.llc = self.llcs[0]
        for name, protocol, role in self._devices():
            l1 = self._make_l1(name, protocol, role, names[0])
            l1.home_map = self.home_map
            tu = make_tu(self.engine, self.network, self.stats, l1,
                         config.tu_latency, device_class=role,
                         **self._tu_kwargs())
            self._attach_policy(tu)
            latency = config.net_cpu_llc if role == "cpu" \
                else config.net_gpu_llc
            for shard in self.llcs:
                shard.device_protocols[name] = l1.PROTOCOL_FAMILY
                self._topo_attachments.append(
                    Attachment(name, shard.name, latency))
            self._add_device(name, role, l1)

    def _nack_injector(self) -> Optional[FaultInjector]:
        """What a home asks for forced Nacks: None when the injector
        cannot Nack, so a ReqV then costs the home no call."""
        faults = self.config.faults
        return self.fault_injector if faults and faults.nack_prob else None

    def _build_hierarchical(self) -> None:
        config = self.config
        self.llc = MESIDirectoryLLC(
            self.engine, self.network, self.stats, self.dram,
            size_bytes=config.l3_size, assoc=config.llc_assoc,
            access_latency=config.l3_access_latency,
            banks=config.llc_banks)
        self.gpu_l2 = GPUL2(
            self.engine, "gpu_l2", self.network, self.stats,
            size_bytes=config.gpu_l2_size, assoc=config.llc_assoc,
            access_latency=config.gpu_l2_access_latency,
            banks=config.llc_banks, l3_name="l3")
        self.gpu_l2.fault_injector = self._nack_injector()
        self.llcs.append(self.llc)
        self._topo_endpoints.append(TopoEndpoint("l3", "home"))
        self._topo_endpoints.append(TopoEndpoint("gpu_l2", "gpu_l2"))
        self._topo_attachments.append(
            Attachment("gpu_l2", "l3", config.net_l2_l3))
        for name, protocol, role in self._devices():
            # MESI L1s talk to the directory; the others to the GPU L2
            if protocol == "MESI":
                home, latency = "l3", config.net_cpu_llc
            else:
                home, latency = "gpu_l2", config.net_gpu_l2
            l1 = self._make_l1(name, protocol, role, home)
            if home == "gpu_l2":
                self.gpu_l2.device_protocols[name] = l1.PROTOCOL_FAMILY
            self._topo_attachments.append(Attachment(name, home, latency))
            self._add_device(name, role, l1)

    # ------------------------------------------------------------------
    def load_workload(self, workload) -> None:
        """Assign traces and initialize memory from a Workload.

        A workload may use fewer devices than the system has, but never
        more: a trace without a device would silently never run.
        """
        cpu_traces, gpu_traces = workload.cpu_traces, workload.gpu_traces
        if len(cpu_traces) > len(self.cpus) \
                or len(gpu_traces) > len(self.gpus):
            raise ValueError(
                f"workload {workload.name!r} has {len(cpu_traces)} CPU "
                f"traces and {len(gpu_traces)} CUs, but the system has "
                f"only {len(self.cpus)} CPUs and {len(self.gpus)} CUs")
        for addr, value in workload.initial_memory.items():
            line = addr & ~63
            self.dram.poke(line, {(addr >> 2) & 15: value})
        from ..devices.gpu import Warp
        for core, trace in zip(self.cpus, cpu_traces):
            core.trace = trace
        for cu, warp_traces in zip(self.gpus, gpu_traces):
            cu.warps = [Warp(t) for t in warp_traces]

    def read_coherent(self, addr: int) -> int:
        """Owner-aware functional read for post-run validation.

        Looks for the word in (priority order) an owning L1, the
        home-level caches, then DRAM (:class:`CoherentReader`).
        """
        if self._reader is None:
            self._reader = CoherentReader(self)
        return self._reader.read(addr)

    def count_mismatches(self, image: Mapping[int, int]) -> int:
        """How many words of ``image`` (address -> value, e.g. the DRF
        reference executor's final memory) :meth:`read_coherent` reads
        differently."""
        return sum(1 for addr, value in image.items()
                   if self.read_coherent(addr) != value)

    def run(self, max_events: Optional[int] = 50_000_000,
            max_cycles: Optional[int] = None):
        """:meth:`simulate`, then record ``execution.cycles``, take the
        monitor's final scrape and return a :class:`RunResult`."""
        cycles = self.simulate(max_events, max_cycles)
        self.stats.set("execution.cycles", cycles)
        if self.monitor is not None:
            self.monitor.finalize(self.engine.now)
        return RunResult(self.config.name, cycles, self.stats, self.dram)

    @gc_paused
    def simulate(self, max_events: Optional[int] = 50_000_000,
                 max_cycles: Optional[int] = None) -> int:
        """Start every device and run to quiescence; returns the cycle
        the last device finished.

        Runs with cyclic garbage collection paused: a run makes no
        cyclic garbage, so a collection would only walk live objects.

        ``max_events`` / ``max_cycles`` bound the simulation; exceeding
        either raises :class:`~repro.sim.engine.SimulationError`.  When
        the watchdog is enabled a hung protocol raises
        :class:`~repro.faults.DeadlockError` with a structured dump
        instead of burning the full budget.
        """
        for core in self.cpus:
            if core.trace:
                core.start()
        for cu in self.gpus:
            if cu.warps:
                cu.start()
        if self.watchdog is not None:
            self.watchdog.arm()
        self.engine.run(max_events=max_events, max_cycles=max_cycles)
        finished = [device.finished_at
                    for device in self.cpus + self.gpus if device.done]
        return max(finished) if finished else self.engine.now


def _detach(network: Network, engine: Engine,
            l1s: List[L1Controller]) -> None:
    """A freed System's finalizer: unhook the endpoints from the fabric
    and each TU from its L1 (both refer back), and the tracer from the
    engine."""
    network.detach_endpoints()
    for l1 in l1s:
        l1.tu = None
    engine.tracer = None


class RunResult:
    """Outcome of one workload execution on one configuration."""

    def __init__(self, config_name: str, cycles: int,
                 stats: StatsRegistry, dram: MainMemory):
        self.config_name = config_name
        self.cycles = cycles
        self.stats = stats
        self.dram = dram

    @property
    def network_bytes(self) -> float:
        return self.stats.get("network.bytes")

    def mean_load_latency(self, device: str = "cpu") -> float:
        """Average observed load latency in cycles ('cpu' or 'gpu')."""
        count = self.stats.get(f"{device}.load_count")
        if not count:
            return 0.0
        return self.stats.get(f"{device}.load_latency_total") / count

    def traffic_by_class(self) -> Dict[str, float]:
        return self.stats.group("traffic.bytes")

    def read_word(self, addr: int) -> int:
        """Functional value in DRAM (coherent state is written back by
        quiescence only for evicted data; use System.read_coherent for
        an owner-aware read)."""
        return self.dram.peek(addr & ~63)[(addr >> 2) & 15]


def build_system(config: SystemConfig) -> System:
    return System(config)
