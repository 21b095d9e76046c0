#!/usr/bin/env python
"""Graph analytics on heterogeneous coherence: choosing a GPU protocol.

BC (betweenness centrality) pushes atomic updates to graph neighbours,
and community hubs absorb most of them — high temporal locality in
atomics.  This example shows why the *flexibility* Spandex provides
matters: the same application, on the same Spandex LLC, runs very
differently depending on the GPU cache's coherence strategy:

* GPU coherence (SMG/SDG): every atomic is a round trip to the LLC;
* DeNovo (SMD/SDD): atomics obtain word ownership once and then hit
  locally, turning hub updates into L1 hits.

It also verifies the computed centralities against the sequential
reference, and prints the atomic hit rates that explain the gap.

Run:  python examples/graph_analytics.py
"""

from repro.analysis import grid_specs, run_sweep
from repro.system import build_system, scaled_config
from repro.workloads import make_bc


def main() -> None:
    print(__doc__)
    (result,) = run_sweep(grid_specs(
        ["BC"], ("SMG", "SMD", "SDG", "SDD"),
        dict(num_cpus=2, num_gpus=4, warps_per_cu=2))).workload_results()

    print(f"{'config':<8}{'GPU L1':<10}{'cycles':>12}{'bytes':>14}"
          f"{'atomic L1 hits':>16}")
    for name, config_result in result.results.items():
        gpu_l1 = "DeNovo" if name.endswith("D") else "GPU-coh"
        hits = config_result.counters.get("l1.atomic_hits", 0)
        print(f"{name:<8}{gpu_l1:<10}{config_result.cycles:>12,}"
              f"{config_result.network_bytes:>14,.0f}{hits:>16,.0f}")

    smg = result.results["SMG"]
    smd = result.results["SMD"]
    print(f"\nDeNovo GPU caches vs GPU coherence (MESI CPUs): "
          f"{1 - smd.cycles / smg.cycles:.0%} less time, "
          f"{1 - smd.network_bytes / smg.network_bytes:.0%} "
          f"less traffic")

    # independently verify the centrality values on the best config
    best = result.sbest()
    workload = make_bc(num_cpus=2, num_gpus=4, warps_per_cu=2)
    reference = workload.reference()
    system = build_system(scaled_config(best, 2, 4))
    system.load_workload(workload)
    system.run()
    mismatches = system.count_mismatches(reference.memory)
    print(f"centralities verified on {best}: "
          f"{len(reference.memory):,} words, {mismatches} mismatches")
    assert mismatches == 0


if __name__ == "__main__":
    main()
