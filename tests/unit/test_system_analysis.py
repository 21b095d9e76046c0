"""Unit tests for system configuration, builder and analysis layers."""

import pytest

from repro.analysis import (CellSpec, ConfigResult, TRAFFIC_CLASSES,
                            WorkloadResult, format_figure,
                            format_traffic_stack, run_sweep,
                            summarize_headline)
from repro.system import (CONFIG_ORDER, CONFIGS, HIERARCHICAL_CONFIGS,
                          SPANDEX_CONFIGS, build_system, scaled_config)


# -- config --------------------------------------------------------------------
def test_config_partition():
    assert set(CONFIG_ORDER) == set(HIERARCHICAL_CONFIGS) | \
        set(SPANDEX_CONFIGS)
    assert not set(HIERARCHICAL_CONFIGS) & set(SPANDEX_CONFIGS)


def test_scaled_config_keeps_protocol_choices():
    config = scaled_config("SDG", 2, 4)
    assert config.num_cpus == 2 and config.num_gpus == 4
    assert config.cpu_protocol == "DeNovo"
    assert config.cpu_atomic_policy == "llc"
    assert config.llc_size == CONFIGS["SDG"].llc_size


def test_config_describe():
    text = CONFIGS["HMG"].describe()
    assert "H-MESI" in text and "GPU coherence" in text


def test_configs_are_frozen():
    with pytest.raises(Exception):
        CONFIGS["HMG"].num_cpus = 3


# -- builder -------------------------------------------------------------------
def test_spandex_system_shape():
    system = build_system(scaled_config("SMD", 2, 3))
    assert len(system.cpus) == 2 and len(system.gpus) == 3
    assert system.gpu_l2 is None
    assert system.llc.__class__.__name__ == "SpandexLLC"
    # every device registered its protocol family with the LLC
    assert len(system.llc.device_protocols) == 5
    assert system.llc.device_protocols["cpu0.l1"] == "MESI"
    assert system.llc.device_protocols["gpu0.l1"] == "DeNovo"


def test_hierarchical_system_shape():
    system = build_system(scaled_config("HMD", 2, 2))
    assert system.gpu_l2 is not None
    assert system.llc.__class__.__name__ == "MESIDirectoryLLC"
    assert system.gpu_l2.device_protocols["gpu1.l1"] == "DeNovo"


def test_sdg_cpu_atomics_at_llc():
    system = build_system(scaled_config("SDG", 1, 1))
    assert system.cpus[0].l1.atomic_policy == "llc"
    system2 = build_system(scaled_config("SDD", 1, 1))
    assert system2.cpus[0].l1.atomic_policy == "own"


def test_initial_memory_is_loaded():
    from repro.workloads import Workload
    from repro.workloads.trace import Op
    workload = Workload("t", [[Op.load(0x2000)]], [[]],
                        initial_memory={0x2000: 123})
    system = build_system(scaled_config("SDD", 1, 1))
    system.load_workload(workload)
    assert system.dram.peek(0x2000)[0] == 123
    system.run()
    assert system.read_coherent(0x2000) == 123


def test_load_workload_rejects_more_traces_than_devices():
    from repro.workloads import MICROBENCHMARKS
    system = build_system(scaled_config("SDD", 2, 2))
    workload = MICROBENCHMARKS["ReuseS"](num_cpus=4, num_gpus=4,
                                         warps_per_cu=1)
    with pytest.raises(ValueError, match="4 CPU traces and 4 CUs.*"
                                         "only 2 CPUs and 2 CUs"):
        system.load_workload(workload)
    # fewer traces than devices stays legal
    system = build_system(scaled_config("SDD", 4, 4))
    system.load_workload(MICROBENCHMARKS["ReuseS"](
        num_cpus=2, num_gpus=2, warps_per_cu=1))
    assert system.run().cycles > 0


# -- analysis ------------------------------------------------------------------
def fake_result(name, cycles_by_config, bytes_by_config=None):
    results = {}
    for config, cycles in cycles_by_config.items():
        nbytes = (bytes_by_config or cycles_by_config)[config] * 100.0
        results[config] = ConfigResult(
            config=config, cycles=cycles, network_bytes=nbytes,
            traffic={cls: nbytes / len(TRAFFIC_CLASSES)
                     for cls in TRAFFIC_CLASSES})
    return WorkloadResult(name, results)


def test_normalization():
    wr = fake_result("w", {"HMG": 100, "HMD": 110, "SMG": 80,
                           "SMD": 70, "SDG": 90, "SDD": 60})
    time = wr.normalized_time()
    assert time["HMG"] == 1.0
    assert time["SDD"] == pytest.approx(0.6)


def test_hbest_sbest_selection():
    wr = fake_result("w", {"HMG": 100, "HMD": 95, "SMG": 80,
                           "SMD": 70, "SDG": 90, "SDD": 72})
    assert wr.hbest() == "HMD"
    assert wr.sbest() == "SMD"
    reductions = wr.sbest_vs_hbest()
    assert reductions["time_reduction"] == pytest.approx(1 - 70 / 95)


def test_summarize_headline():
    a = fake_result("a", {"HMG": 100, "HMD": 100, "SMG": 80,
                          "SMD": 80, "SDG": 80, "SDD": 80})
    b = fake_result("b", {"HMG": 100, "HMD": 100, "SMG": 60,
                          "SMD": 60, "SDG": 60, "SDD": 60})
    summary = summarize_headline([a, b])
    assert summary["avg_time_reduction"] == pytest.approx(0.3)
    assert summary["max_time_reduction"] == pytest.approx(0.4)


def test_format_figure_renders_all_rows():
    wr = fake_result("w", {c: 100 for c in CONFIG_ORDER})
    text = format_figure([wr], "title")
    assert "title" in text and "w" in text
    for config in CONFIG_ORDER:
        assert config in text


def test_format_traffic_stack_covers_classes():
    wr = fake_result("w", {c: 100 for c in CONFIG_ORDER})
    text = format_traffic_stack(wr)
    for cls in TRAFFIC_CLASSES:
        assert cls in text


def test_format_figure_empty_results_is_a_message():
    text = format_figure([], "Figure 2")
    assert "no results" in text


def test_format_figure_zero_cycle_base_does_not_crash():
    wr = fake_result("w", {c: 0 for c in CONFIG_ORDER})
    text = format_figure([wr], "title")
    assert "no HMG baseline" in text
    assert "not computable" in text


def test_format_figure_missing_base_config():
    wr = fake_result("w", {"SDD": 100, "SMD": 90})
    text = format_figure([wr], "title")
    assert "no HMG baseline" in text and "not run" in text


def test_format_figure_mixed_good_and_degenerate_rows():
    good = fake_result("good", {c: 100 for c in CONFIG_ORDER})
    degenerate = fake_result("bad", {c: 0 for c in CONFIG_ORDER})
    text = format_figure([good, degenerate], "title")
    assert "good" in text and "no HMG baseline" in text
    assert "Sbest vs Hbest: execution time" in text


def test_format_traffic_stack_zero_base_is_a_message():
    wr = fake_result("w", {c: 0 for c in CONFIG_ORDER})
    text = format_traffic_stack(wr)
    assert "zero bytes" in text


def test_format_traffic_stack_missing_base_is_a_message():
    wr = fake_result("w", {"SDD": 100})
    text = format_traffic_stack(wr)
    assert "was not run" in text


def test_summarize_headline_empty_is_zero():
    summary = summarize_headline([])
    assert summary["avg_time_reduction"] == 0.0
    assert summary["max_traffic_reduction"] == 0.0


def test_experiment_runner_end_to_end_small():
    spec = CellSpec.make("ReuseO", "SDD", dict(
        num_cpus=1, num_gpus=1, warps_per_cu=1, tile_lines=2,
        iterations=2, sparse_reads=1))
    (result,) = run_sweep([spec]).workload_results()
    config_result = result.results["SDD"]
    assert config_result.cycles > 0
    assert config_result.memory_ok is True
    assert sum(config_result.traffic.values()) == pytest.approx(
        config_result.network_bytes)
