"""Miniature Table V systems for schedule exploration.

A :class:`VerifySystem` wires the same components the full builder
uses — Spandex LLC + TUs, or directory L3 + GPU L2 — but with two CPU
and two GPU L1s and tiny caches, so a litmus scenario's interleaving
space stays tractable.  The network class is injectable: the explorer
substitutes :class:`repro.verify.explorer.ControlledNetwork` to take
over delivery ordering.

The object duck-types what the invariant checker and the diagnostic
collector expect (``cpu_l1s`` / ``gpu_l1s`` / ``llc`` / ``gpu_l2`` /
``network`` / ``engine``) and shares the builder's ``read_coherent``
so explored schedules can be checked against the sequential reference
memory image.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.llc import SpandexLLC
from ..core.policy import OwnerPredictor, make_policy
from ..core.shard import HomeMap, shard_names, shard_size
from ..core.tu import make_tu
from ..mem.dram import MainMemory
from ..network.noc import LatencyModel, Network
from ..protocols.denovo import DeNovoL1
from ..protocols.gpu_coherence import GPUCoherenceL1
from ..protocols.gpu_l2 import GPUL2
from ..protocols.mesi import MESIL1
from ..protocols.mesi_llc import MESIDirectoryLLC
from ..sim.engine import Engine
from ..sim.stats import StatsRegistry
from ..system.config import CONFIGS
from ..system.readback import CoherentReader

#: thread roles exposed to litmus scenarios, in trace order
THREAD_NAMES = ("c0", "c1", "g0", "g1")


class VerifySystem:
    """One Table V configuration at litmus scale (2 CPUs + 2 GPUs)."""

    def __init__(self, config_name: str, network_cls=Network,
                 l1_size: int = 8 * 1024, l1_assoc: int = 8,
                 llc_size: int = 64 * 1024,
                 coalesce_delay: int = 1, trace: bool = False,
                 llc_shards: int = 1, shard_interleave: str = "line",
                 request_policy: str = "fixed", owner_pred: bool = False):
        config = CONFIGS[config_name]
        self.config_name = config_name
        self.config = config
        self.llc_shards = llc_shards if not config.hierarchical else 1
        self.shard_interleave = shard_interleave
        #: per-access request-type policy + owner prediction (ignored in
        #: hierarchical configurations, which have no Spandex TUs)
        self.request_policy = request_policy
        self.owner_pred = owner_pred
        self.engine = Engine()
        self.tracer = None
        if trace:
            # must exist before _build: controllers latch engine.tracer
            from ..obs import TraceRecorder
            self.tracer = TraceRecorder(self.engine, capacity=65_536)
            self.engine.tracer = self.tracer
        self.stats = StatsRegistry()
        self.network = network_cls(self.engine, self.stats,
                                   LatencyModel(default=5))
        self.dram = MainMemory(self.engine, self.stats, latency=20)
        self.cpu_l1s: List = []
        self.gpu_l1s: List = []
        self.tus: Dict[str, object] = {}
        self.gpu_l2: Optional[GPUL2] = None
        self.l3: Optional[MESIDirectoryLLC] = None
        self.llcs: List = []
        self.home_map: Optional[HomeMap] = None
        self._reader: Optional[CoherentReader] = None
        #: attached by the explorer: {"scenario":…, "config":…, …} so
        #: diagnostics identify the failing schedule (see repro.faults)
        self.verify_context: Optional[Dict[str, object]] = None
        if config.hierarchical:
            self._build_hierarchical(config, l1_size, l1_assoc,
                                     llc_size, coalesce_delay)
        else:
            self._build_spandex(config, l1_size, l1_assoc, llc_size,
                                coalesce_delay)
        self.l1s: Dict[str, object] = {
            l1.name: l1 for l1 in self.cpu_l1s + self.gpu_l1s}
        if self.tracer is not None:
            for shard in self.llcs:
                self.tracer.homes.add(shard.name)
            if self.gpu_l2 is not None:
                self.tracer.homes.add(self.gpu_l2.name)

    # ------------------------------------------------------------------
    def _build_spandex(self, config, l1_size, l1_assoc, llc_size,
                       coalesce_delay):
        names = shard_names(self.llc_shards)
        self.home_map = HomeMap(names, self.shard_interleave)
        sharded = len(names) > 1
        self.llcs = []
        for shard_name in names:
            shard = SpandexLLC(self.engine, self.network, self.stats,
                               self.dram,
                               size_bytes=shard_size(llc_size,
                                                     len(names), 16),
                               access_latency=3, name=shard_name)
            if sharded:
                shard.home_map = self.home_map
                if self.shard_interleave == "line":
                    shard.bank_stride = len(names)
            self.llcs.append(shard)
        self.llc = self.llcs[0]
        for i in range(2):
            name = f"c{i}"
            if config.cpu_protocol == "MESI":
                l1 = MESIL1(self.engine, name, self.network, self.stats,
                            home=names[0], dialect="spandex",
                            size_bytes=l1_size, assoc=l1_assoc,
                            coalesce_delay=coalesce_delay,
                            register_on_network=False)
            else:
                l1 = DeNovoL1(self.engine, name, self.network, self.stats,
                              home=names[0],
                              atomic_policy=config.cpu_atomic_policy,
                              size_bytes=l1_size, assoc=l1_assoc,
                              coalesce_delay=coalesce_delay,
                              nack_retry_limit=0,
                              register_on_network=False)
            l1.home_map = self.home_map
            tu = self.tus[name] = make_tu(self.engine, self.network,
                                          self.stats, l1)
            self._attach_policy(tu)
            for shard in self.llcs:
                shard.device_protocols[name] = l1.PROTOCOL_FAMILY
            self.cpu_l1s.append(l1)
        for i in range(2):
            name = f"g{i}"
            if config.gpu_protocol == "GPU":
                l1 = GPUCoherenceL1(self.engine, name, self.network,
                                    self.stats, home=names[0],
                                    size_bytes=l1_size, assoc=l1_assoc,
                                    coalesce_delay=coalesce_delay,
                                    register_on_network=False)
            else:
                l1 = DeNovoL1(self.engine, name, self.network, self.stats,
                              home=names[0], size_bytes=l1_size,
                              assoc=l1_assoc,
                              coalesce_delay=coalesce_delay,
                              nack_retry_limit=0,
                              register_on_network=False)
            l1.home_map = self.home_map
            tu = self.tus[name] = make_tu(self.engine, self.network,
                                          self.stats, l1)
            self._attach_policy(tu)
            for shard in self.llcs:
                shard.device_protocols[name] = l1.PROTOCOL_FAMILY
            self.gpu_l1s.append(l1)

    def _attach_policy(self, tu) -> None:
        policy = make_policy(self.request_policy)
        if policy is None:
            return
        tu.policy = policy
        if self.owner_pred:
            tu.predictor = OwnerPredictor()

    def _build_hierarchical(self, config, l1_size, l1_assoc, llc_size,
                            coalesce_delay):
        self.l3 = MESIDirectoryLLC(self.engine, self.network, self.stats,
                                   self.dram, size_bytes=llc_size,
                                   access_latency=3)
        self.llc = self.l3
        self.llcs = [self.l3]
        self.gpu_l2 = GPUL2(self.engine, "gpu_l2", self.network,
                            self.stats, size_bytes=llc_size // 2,
                            access_latency=2, l3_name="l3")
        for i in range(2):
            name = f"c{i}"
            l1 = MESIL1(self.engine, name, self.network, self.stats,
                        home="l3", dialect="mesi", size_bytes=l1_size, assoc=l1_assoc,
                        coalesce_delay=coalesce_delay)
            self.cpu_l1s.append(l1)
        for i in range(2):
            name = f"g{i}"
            if config.gpu_protocol == "GPU":
                l1 = GPUCoherenceL1(self.engine, name, self.network,
                                    self.stats, home="gpu_l2",
                                    size_bytes=l1_size, assoc=l1_assoc,
                                    coalesce_delay=coalesce_delay)
            else:
                l1 = DeNovoL1(self.engine, name, self.network, self.stats,
                              home="gpu_l2", size_bytes=l1_size, assoc=l1_assoc,
                              coalesce_delay=coalesce_delay,
                              nack_retry_limit=3)
            self.gpu_l2.device_protocols[name] = l1.PROTOCOL_FAMILY
            self.gpu_l1s.append(l1)

    # ------------------------------------------------------------------
    def seed(self, line: int, values: Dict[int, int]) -> None:
        self.dram.poke(line, values)

    def homes(self) -> List:
        """The Spandex-style homes (the ones with per-word owners)."""
        homes = []
        if self.gpu_l2 is not None:
            homes.append(self.gpu_l2)
        for shard in self.llcs:
            if hasattr(shard, "_owned_mask"):
                homes.append(shard)
        return homes

    def read_coherent(self, addr: int) -> int:
        """Owner-aware functional read (the same
        :class:`~repro.system.readback.CoherentReader` as
        ``System.read_coherent``)."""
        if self._reader is None:
            self._reader = CoherentReader(self)
        return self._reader.read(addr)
