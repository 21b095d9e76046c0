"""Device models: latency-sensitive CPU cores, throughput GPU CUs."""
from .cpu import CPUCore
from .gpu import GPUCU, Warp

__all__ = ["CPUCore", "GPUCU", "Warp"]
