"""The paper's headline claim (abstract / §I / §V).

"On average for the applications studied, Spandex reduces execution
time by 16% (max 29%) and network traffic by 27% (max 58%) relative to
the MESI-based hierarchical solution" — where per workload the best
Spandex configuration (Sbest) is compared against the best
hierarchical configuration (Hbest).

Absolute numbers depend on the substituted substrate, so the assertion
checks direction and rough magnitude: double-digit average reductions
on both axes, with maxima well above the averages.
"""

from repro.analysis import summarize_headline

APP_ORDER = ["BC", "PR", "HSTI", "TRNS", "RSCT", "TQH"]
MICRO_ORDER = ["Indirection", "ReuseO", "ReuseS"]


def run_everything(experiments):
    apps = [experiments.get(name) for name in APP_ORDER]
    micro = [experiments.get(name) for name in MICRO_ORDER]
    return apps, micro


def test_headline_claims(benchmark, experiments):
    apps, micro = benchmark.pedantic(run_everything,
                                     args=(experiments,),
                                     rounds=1, iterations=1)
    app_summary = summarize_headline(apps)
    micro_summary = summarize_headline(micro)
    print("\nHeadline: Sbest vs Hbest")
    print(f"  applications:     time -{app_summary['avg_time_reduction']:.0%} "
          f"(max -{app_summary['max_time_reduction']:.0%}), "
          f"traffic -{app_summary['avg_traffic_reduction']:.0%} "
          f"(max -{app_summary['max_traffic_reduction']:.0%})")
    print("  paper reports:    time -16% (max -29%), "
          "traffic -27% (max -58%)")
    print(f"  microbenchmarks:  time -{micro_summary['avg_time_reduction']:.0%} "
          f"(max -{micro_summary['max_time_reduction']:.0%}), "
          f"traffic -{micro_summary['avg_traffic_reduction']:.0%} "
          f"(max -{micro_summary['max_traffic_reduction']:.0%})")
    print("  paper reports:    time -18% (max -31%), "
          "traffic -40% (max -69%)")

    # applications: double-digit average improvements on both axes
    assert 0.05 <= app_summary["avg_time_reduction"] <= 0.35
    assert 0.10 <= app_summary["avg_traffic_reduction"] <= 0.55
    assert app_summary["max_time_reduction"] >= 0.18
    assert app_summary["max_traffic_reduction"] >= 0.35
    # microbenchmarks
    assert 0.05 <= micro_summary["avg_time_reduction"] <= 0.40
    assert 0.15 <= micro_summary["avg_traffic_reduction"] <= 0.60
    assert micro_summary["max_traffic_reduction"] >= 0.40
