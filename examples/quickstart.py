#!/usr/bin/env python
"""Quickstart: build a Spandex system, run a workload, read the stats.

This walks the public API end to end:

1. generate a collaborative CPU-GPU workload (BC, the Pannotia
   betweenness-centrality pattern);
2. build an SDD machine — Spandex LLC with DeNovo caches on both the
   CPU cores and the GPU CUs;
3. run to completion and print execution time, network traffic by
   request class, and a correctness check against the sequential
   DRF reference executor.

Run:  python examples/quickstart.py
"""

from repro.system import CONFIGS, build_system, scaled_config
from repro.workloads import make_bc


def main() -> None:
    # A scaled-down BC instance: 2 CPU cores and 4 CUs of 2 warps
    # collaboratively update vertex centralities with atomics.
    workload = make_bc(num_cpus=2, num_gpus=4, warps_per_cu=2)
    print(f"workload: {workload.name} "
          f"({workload.total_ops():,} operations, "
          f"{workload.meta.parameters})")

    # DRF-certify the traces and compute the expected final memory.
    reference = workload.reference()
    print(f"reference: DRF certified, "
          f"{len(reference.memory):,} words written")

    # Build the machine.  CONFIGS holds the paper's six Table V
    # configurations at full scale; scaled_config shrinks the device
    # count while keeping every protocol parameter.
    config = scaled_config("SDD", num_cpus=2, num_gpus=4)
    print(f"config: {config.describe()}")
    system = build_system(config)
    system.load_workload(workload)

    result = system.run()
    print(f"\nexecution time: {result.cycles:,} cycles")
    print(f"network traffic: {result.network_bytes:,.0f} bytes")
    print("traffic by request class:")
    for cls, nbytes in sorted(result.traffic_by_class().items()):
        print(f"  {cls:<12} {nbytes:>12,.0f} B")

    mismatches = system.count_mismatches(reference.memory)
    print(f"\nmemory check: {mismatches} mismatches out of "
          f"{len(reference.memory):,} words")
    assert mismatches == 0

    home_stats = {k: v for k, v in result.stats.counters().items()
                  if k.startswith("home.")}
    print("\nLLC (home.<shard>.*) protocol activity:")
    for key, value in sorted(home_stats.items()):
        print(f"  {key:<28} {value:>10,.0f}")


if __name__ == "__main__":
    main()
