"""Table V systems at litmus scale for schedule exploration.

A :class:`VerifySystem` *is* a :class:`~repro.system.builder.System`,
built by the same wiring code from a litmus-scale ``SystemConfig``
(:data:`LITMUS_SCALE`: two CPUs, two GPUs, tiny caches, short
latencies), so a litmus scenario's interleaving space stays tractable
and every builder field — shards, request policy, topology, faults —
reaches the explorer without a second copy of the wiring.  It overrides
the builder's three hooks:

* ``_devices`` names the L1s after the litmus threads (``c0 c1 g0 g1``);
* ``_make_network`` builds the injectable network class (the explorer
  substitutes :class:`repro.verify.explorer.ControlledNetwork` to take
  over delivery ordering);
* ``_l1_kwargs`` adds a one-cycle store coalescing delay.

The builder's cores and CUs are never started; the explorer's litmus
threads, parking :class:`~repro.devices.cpu.CPUCore` subclasses, issue
straight into the L1s.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from ..network.noc import Network
from ..system.builder import System
from ..system.config import CONFIGS, KB, TraceConfig, WatchdogConfig

#: thread roles exposed to litmus scenarios, in trace order
THREAD_NAMES = ("c0", "c1", "g0", "g1")

#: ``SystemConfig`` fields every litmus system starts from; the TU
#: retry knobs match ``make_tu``'s no-retry defaults, and the watchdog
#: stays off because the explorer drives the engine itself
LITMUS_SCALE: Dict[str, object] = dict(
    num_cpus=2, num_gpus=2, l1_size=8 * KB, llc_size=64 * KB,
    l3_size=64 * KB, gpu_l2_size=32 * KB, llc_access_latency=3,
    l3_access_latency=3, gpu_l2_access_latency=2, dram_latency=20,
    net_cpu_llc=5, net_gpu_llc=5, net_gpu_l2=5, net_l2_l3=5,
    net_default=5, tu_nack_retry_limit=0, tu_backoff_jitter=0,
    watchdog=WatchdogConfig(enabled=False))


class VerifySystem(System):
    """One Table V configuration at litmus scale (2 CPUs + 2 GPUs).

    ``overrides`` are ``SystemConfig`` fields layered over
    :data:`LITMUS_SCALE` (e.g. ``llc_shards=2``,
    ``request_policy="adaptive"``).
    """

    def __init__(self, config_name: str, network_cls=Network,
                 trace: bool = False, **overrides):
        self._network_cls = network_cls
        if trace:
            overrides["trace"] = TraceConfig(capacity=65_536)
        super().__init__(replace(CONFIGS[config_name],
                                 **{**LITMUS_SCALE, **overrides}))

    def _devices(self) -> List[Tuple[str, str, str]]:
        config = self.config
        return ([(f"c{i}", config.cpu_protocol, "cpu")
                 for i in range(config.num_cpus)]
                + [(f"g{i}", config.gpu_protocol, "gpu")
                   for i in range(config.num_gpus)])

    def _make_network(self) -> Network:
        return self._network_cls(self.engine, self.stats,
                                 self.latency_model,
                                 self.config.link_bytes_per_cycle)

    def _l1_kwargs(self) -> Dict[str, object]:
        return dict(super()._l1_kwargs(), coalesce_delay=1)

    # ------------------------------------------------------------------
    def seed(self, line: int, values: Dict[int, int]) -> None:
        self.dram.poke(line, values)
