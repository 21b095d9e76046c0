"""Table V systems at litmus scale for schedule exploration.

A :class:`VerifySystem` *is* a :class:`~repro.system.builder.System`,
built by the same wiring code from a litmus-scale ``SystemConfig``
(:data:`LITMUS_SCALE`: two CPUs, two GPUs, tiny caches, short
latencies), so a litmus scenario's interleaving space stays tractable
and every builder field — shards, request policy, topology, faults —
reaches the explorer without a second copy of the wiring.  It overrides
the builder's three hooks:

* ``_make_network`` builds the injectable network class (the explorer
  substitutes :class:`repro.verify.explorer.ControlledNetwork` to take
  over delivery ordering);
* ``CPU_L1_NAME`` / ``GPU_L1_NAME`` name the L1s after the litmus
  threads (``c0 c1 g0 g1``);
* ``_l1_kwargs`` adds a one-cycle store coalescing delay.

The builder's cores and CUs are never started; litmus drivers issue
straight into the L1s.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..network.noc import Network
from ..system.builder import System
from ..system.config import KB, TraceConfig, WatchdogConfig, scaled_config

#: thread roles exposed to litmus scenarios, in trace order
THREAD_NAMES = ("c0", "c1", "g0", "g1")

#: ``SystemConfig`` fields every litmus system starts from; the TU
#: retry knobs match ``make_tu``'s no-retry defaults, and the watchdog
#: stays off because the explorer drives the engine itself
LITMUS_SCALE: Dict[str, object] = dict(
    l1_size=8 * KB, llc_size=64 * KB, l3_size=64 * KB,
    gpu_l2_size=32 * KB, llc_access_latency=3, l3_access_latency=3,
    gpu_l2_access_latency=2, dram_latency=20,
    net_cpu_llc=5, net_gpu_llc=5, net_gpu_l2=5, net_l2_l3=5,
    net_default=5, tu_nack_retry_limit=0, tu_backoff_jitter=0,
    watchdog=WatchdogConfig(enabled=False))


class VerifySystem(System):
    """One Table V configuration at litmus scale (2 CPUs + 2 GPUs).

    ``overrides`` are ``SystemConfig`` fields layered over
    :data:`LITMUS_SCALE` (e.g. ``llc_shards=2``,
    ``request_policy="adaptive"``).
    """

    CPU_L1_NAME = "c{}"
    GPU_L1_NAME = "g{}"

    def __init__(self, config_name: str, network_cls=Network,
                 trace: bool = False, **overrides):
        self._network_cls = network_cls
        if trace:
            overrides["trace"] = TraceConfig(capacity=65_536)
        super().__init__(scaled_config(config_name, 2, 2,
                                       **{**LITMUS_SCALE, **overrides}))
        self.l1s: Dict[str, object] = {
            l1.name: l1 for l1 in self.cpu_l1s + self.gpu_l1s}
        #: attached by the explorer: {"scenario":…, "config":…, …} so
        #: diagnostics identify the failing schedule (see repro.faults)
        self.verify_context: Optional[Dict[str, object]] = None

    def _make_network(self) -> Network:
        return self._network_cls(self.engine, self.stats,
                                 self.latency_model,
                                 self.config.link_bytes_per_cycle)

    def _l1_kwargs(self) -> Dict[str, object]:
        return dict(super()._l1_kwargs(), coalesce_delay=1)

    # ------------------------------------------------------------------
    def seed(self, line: int, values: Dict[int, int]) -> None:
        self.dram.poke(line, values)

    def homes(self) -> List:
        """The Spandex-style homes (the ones with per-word owners)."""
        homes = [self.gpu_l2] if self.gpu_l2 is not None else []
        return homes + [shard for shard in self.llcs
                        if hasattr(shard, "_owned_mask")]
