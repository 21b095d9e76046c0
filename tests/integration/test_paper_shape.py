"""Tier-1 smoke test of the paper's §V-A microbenchmark orderings.

A scaled-down run (2 CPUs, 2 CUs x 2 warps) of the two Figure 2
microbenchmarks whose orderings hold at small scale, asserting the
same bounds as ``benchmarks/test_figure2_microbenchmarks.py``.  The
runs use 2 warps per CU because at 1 warp ReuseO's SMD/SMG traffic
ratio is 0.63, above the figure test's 0.6 bound.
"""

from repro.analysis import grid_specs, run_sweep
from repro.system import CONFIG_ORDER

SPANDEX = ("SMG", "SMD", "SDG", "SDD")
HIERARCHICAL = ("HMG", "HMD")


def _run(name):
    (result,) = run_sweep(grid_specs(
        [name], CONFIG_ORDER,
        dict(num_cpus=2, num_gpus=2, warps_per_cu=2))).workload_results()
    for config_result in result.results.values():
        assert config_result.memory_ok, (name, config_result.config)
    return result


def test_indirection_flat_spandex_beats_hierarchy():
    result = _run("Indirection")
    time = result.normalized_time()
    traffic = result.normalized_traffic()
    for spandex in SPANDEX:
        for hier in HIERARCHICAL:
            assert time[spandex] < time[hier], (spandex, hier)
            assert traffic[spandex] < traffic[hier], (spandex, hier)
    # DeNovo at the CPU moves owned words, not lines
    assert traffic["SMD"] < traffic["SMG"]
    assert traffic["SDD"] < traffic["SMG"]


def test_reuse_o_gpu_ownership_cuts_traffic():
    traffic = _run("ReuseO").normalized_traffic()
    assert traffic["HMD"] < traffic["HMG"]
    assert traffic["SMD"] < 0.6 * traffic["SMG"]
    assert traffic["SDD"] < 0.6 * traffic["SDG"]
