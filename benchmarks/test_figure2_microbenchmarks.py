"""Figure 2 — synthetic microbenchmarks across all configurations.

Regenerates the figure's two series (execution time and network
traffic, normalized to HMG, traffic broken down by request class) for
Indirection, ReuseO and ReuseS, and asserts the qualitative shape the
paper reports for each (paper §V-A):

* Indirection: hierarchical configurations suffer from indirection;
  DeNovo CPUs move less data than MESI CPUs.
* ReuseO: ownership at the GPU (DeNovo) exploits reuse in written
  data, cutting traffic sharply.
* ReuseS: only writer-invalidated Shared state (MESI CPUs) preserves
  read reuse; hierarchy is not a handicap here.
"""

from repro.analysis import format_figure, format_traffic_stack

MICRO = ["Indirection", "ReuseO", "ReuseS"]


def run_micro(experiments):
    return [experiments.get(name) for name in MICRO]


def test_figure2_microbenchmarks(benchmark, experiments):
    results = benchmark.pedantic(run_micro, args=(experiments,),
                                 rounds=1, iterations=1)
    print("\n" + format_figure(results, "Figure 2: microbenchmarks"))
    for workload_result in results:
        print(format_traffic_stack(workload_result))
        for config_result in workload_result.results.values():
            assert config_result.memory_ok, (
                workload_result.workload, config_result.config)
    experiments.dump("figure2.json", results)

    indirection, reuse_o, reuse_s = results

    # -- Indirection: flat Spandex beats hierarchical on both axes ----
    time = indirection.normalized_time()
    traffic = indirection.normalized_traffic()
    for spandex in ("SMG", "SMD", "SDG", "SDD"):
        for hier in ("HMG", "HMD"):
            assert time[spandex] < time[hier], (spandex, hier)
            assert traffic[spandex] < traffic[hier]
    # DeNovo at the CPU moves owned words, not lines
    assert traffic["SMD"] < traffic["SMG"]
    assert traffic["SDD"] < traffic["SMG"]

    # -- ReuseO: GPU ownership slashes traffic -------------------------
    traffic = reuse_o.normalized_traffic()
    assert traffic["HMD"] < traffic["HMG"]
    assert traffic["SMD"] < 0.6 * traffic["SMG"]
    assert traffic["SDD"] < 0.6 * traffic["SDG"]

    # -- ReuseS: MESI CPUs exploit Shared-state reuse -------------------
    time = reuse_s.normalized_time()
    assert time["SDD"] > time["SMD"]
    assert time["SDG"] > time["SMG"]
    # hierarchy is not a handicap for this pattern
    assert time["HMG"] <= 1.15 * min(time["SMG"], time["SMD"])

    # -- aggregate: the paper's microbenchmark headline -----------------
    reductions = [r.sbest_vs_hbest() for r in results]
    avg_time = sum(r["time_reduction"] for r in reductions) / 3
    avg_traffic = sum(r["traffic_reduction"] for r in reductions) / 3
    print(f"\nSbest vs Hbest (micro): time -{avg_time:.0%}, "
          f"traffic -{avg_traffic:.0%} "
          f"(paper: -18% time, -40% traffic)")
    assert 0.05 <= avg_time <= 0.40
    assert 0.15 <= avg_traffic <= 0.60
