"""Figure 3 — collaborative applications across all configurations.

Regenerates the figure's series for BC, PR, HSTI, TRNS, RSCT and TQH,
asserting the per-application claims of paper §V-B:

* BC: DeNovo GPU caches exploit atomic locality — large wins.
* PR: memory-throughput bound; the flat Spandex LLC reduces read cost.
* HSTI / TRNS: flat Spandex reduces indirection for low-locality data
  and benefits from non-blocking ownership transfer.
* RSCT: hierarchical sharing is the baseline's best case.
* TQH: minimal hierarchical sharing; Spandex cuts traffic.
"""

from repro.analysis import format_figure, format_traffic_stack

APP_ORDER = ["BC", "PR", "HSTI", "TRNS", "RSCT", "TQH"]


def run_apps(experiments):
    return [experiments.get(name) for name in APP_ORDER]


def test_figure3_applications(benchmark, experiments):
    results = benchmark.pedantic(run_apps, args=(experiments,),
                                 rounds=1, iterations=1)
    print("\n" + format_figure(results, "Figure 3: applications"))
    by_name = {r.workload: r for r in results}
    for workload_result in results:
        print(format_traffic_stack(workload_result))
        for config_result in workload_result.results.values():
            assert config_result.memory_ok, (
                workload_result.workload, config_result.config)
    experiments.dump("figure3.json", results)

    # -- BC: DeNovo GPU caches dominate (atomic temporal locality) ------
    time = by_name["BC"].normalized_time()
    assert time["HMD"] < time["HMG"]
    assert time["SMD"] < time["SMG"]
    assert time["SDD"] < time["SDG"]
    traffic = by_name["BC"].normalized_traffic()
    assert traffic["SDD"] < 0.6 * traffic["SDG"]

    # -- PR: flat Spandex LLC helps the throughput-bound reads ----------
    time = by_name["PR"].normalized_time()
    assert min(time["SMG"], time["SDG"]) <= time["HMG"]

    # -- HSTI / TRNS: flat Spandex wins -----------------------------------
    for app in ("HSTI", "TRNS"):
        workload_result = by_name[app]
        hbest = workload_result.results[workload_result.hbest()]
        sbest = workload_result.results[workload_result.sbest()]
        assert sbest.cycles < hbest.cycles, app
        assert sbest.network_bytes < hbest.network_bytes, app

    # -- RSCT: the hierarchical baseline's best case ---------------------
    workload_result = by_name["RSCT"]
    hbest = workload_result.results[workload_result.hbest()]
    sbest = workload_result.results[workload_result.sbest()]
    assert hbest.cycles <= 1.10 * sbest.cycles

    # -- TQH: Spandex cuts traffic ----------------------------------------
    workload_result = by_name["TQH"]
    hbest = workload_result.results[workload_result.hbest()]
    sbest = workload_result.results[workload_result.sbest()]
    assert sbest.network_bytes < hbest.network_bytes
