"""Tests for the ``python -m repro`` command-line interface."""

import json
import re

import pytest

from repro.cli import main

SMALL = ["--cpus", "2", "--gpus", "2", "--warps", "1"]


@pytest.fixture(autouse=True)
def isolated_sweep_cache(tmp_path, monkeypatch):
    """Keep sweep-backed commands away from the user's real cache."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "sweep-cache"))


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "BC" in out and "ReuseO" in out
    for config in ("HMG", "SDD"):
        assert config in out


def test_run_single_config(capsys):
    code = main(["run", "TQH", "--config", "SDD", "--cpus", "2",
                 "--gpus", "2", "--warps", "1", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "SDD" in out and "memory: OK" in out


def test_run_with_invariants_and_traffic(capsys):
    code = main(["run", "TRNS", "--config", "SMG", "--cpus", "2",
                 "--gpus", "2", "--warps", "1", "--check",
                 "--invariants", "--traffic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "invariants: OK" in out
    assert "ReqO+data" in out or "ReqWT" in out


def test_run_all_configs(capsys):
    code = main(["run", "HSTI", "--config", "all", "--cpus", "2",
                 "--gpus", "2", "--warps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    for config in ("HMG", "HMD", "SMG", "SMD", "SDG", "SDD"):
        assert config in out


def test_headline(capsys):
    code = main(["headline", "--cpus", "2", "--gpus", "2",
                 "--warps", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Sbest vs Hbest" in out and "paper" in out


def _cycles_by_config(out):
    """Parse '  SDD:  1,234 cycles ...' lines from `run` output."""
    return {m.group(1): int(m.group(2).replace(",", ""))
            for m in re.finditer(r"^  (\w+): +([\d,]+) cycles",
                                 out, re.MULTILINE)}


def test_run_all_configs_matches_fresh_single_runs(capsys):
    # Regression: `--config all` used to reuse one mutable Workload
    # object across per-config systems; every config must now match a
    # run that starts from a freshly generated workload.
    assert main(["run", "TQH", "--config", "all"] + SMALL) == 0
    all_cycles = _cycles_by_config(capsys.readouterr().out)
    for config in ("HMD", "SDD"):    # one hierarchical, one Spandex
        assert main(["run", "TQH", "--config", config] + SMALL) == 0
        fresh = _cycles_by_config(capsys.readouterr().out)
        assert all_cycles[config] == fresh[config]


def test_sweep_cold_then_warm_cache(capsys):
    argv = ["sweep", "ReuseS", "--configs", "SDD,HMG"] + SMALL
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "cache hits: 0" in cold and "simulated: 2" in cold
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "cache hits: 2" in warm and "simulated: 0" in warm


def test_sweep_parallel_jobs_match_serial(capsys):
    assert main(["sweep", "ReuseS", "--configs", "SDD,HMG",
                 "--no-cache", "--json"] + SMALL) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(["sweep", "ReuseS", "--configs", "SDD,HMG",
                 "--no-cache", "--json", "--jobs", "2"] + SMALL) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial["cells"] == parallel["cells"] == 2
    for a, b in zip(serial["results"], parallel["results"]):
        assert a["cycles"] == b["cycles"]
        assert a["network_bytes"] == b["network_bytes"]
        assert a["traffic"] == b["traffic"]
        assert a["memory_ok"] is True


def test_sweep_json_records_cache_provenance(capsys):
    argv = ["sweep", "ReuseS", "--configs", "SDD", "--json"] + SMALL
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert cold["results"][0]["from_cache"] is False
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["results"][0]["from_cache"] is True
    assert warm["results"][0]["cycles"] == cold["results"][0]["cycles"]


def test_sweep_clear_cache(capsys):
    assert main(["sweep", "ReuseS", "--configs", "SDD"] + SMALL) == 0
    capsys.readouterr()
    assert main(["sweep", "--clear-cache"]) == 0
    assert "cleared 1 cached cell(s)" in capsys.readouterr().out
    assert main(["sweep", "ReuseS", "--configs", "SDD"] + SMALL) == 0
    assert "cache hits: 0" in capsys.readouterr().out


def test_sweep_rejects_unknown_names(capsys):
    assert main(["sweep", "NotAWorkload"]) == 2
    assert "unknown workload" in capsys.readouterr().err
    assert main(["sweep", "ReuseS", "--configs", "XYZ"]) == 2
    assert "unknown config" in capsys.readouterr().err


def test_figure2_with_jobs_prints_sweep_summary(capsys):
    assert main(["figure2", "--jobs", "2"] + SMALL) == 0
    out = capsys.readouterr().out
    assert "Figure 2" in out
    assert "cache hits:" in out and "wall time:" in out


def test_bad_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "NotAWorkload"])


def test_bad_config_rejected():
    with pytest.raises(SystemExit):
        main(["run", "BC", "--config", "XYZ"])


def test_save_and_replay(tmp_path, capsys):
    path = str(tmp_path / "bc.json")
    assert main(["save", "BC", path, "--cpus", "2", "--gpus", "2",
                 "--warps", "1"]) == 0
    assert main(["replay", path, "--config", "SDD", "--check"]) == 0
    out = capsys.readouterr().out
    assert "saved BC" in out and "memory: OK" in out


def test_replay_reproduces_live_run_cycles(tmp_path, capsys):
    # A saved spin_load/rmw-heavy workload (TQH pops a task queue with
    # atomics and spins on flags) must replay to the exact cycle count
    # of a live-generated run and still pass --check.
    assert main(["run", "TQH", "--config", "SDD"] + SMALL) == 0
    live = _cycles_by_config(capsys.readouterr().out)["SDD"]
    path = str(tmp_path / "tqh.json")
    assert main(["save", "TQH", path] + SMALL) == 0
    capsys.readouterr()
    assert main(["replay", path, "--config", "SDD", "--check"]) == 0
    out = capsys.readouterr().out
    assert "memory: OK" in out
    replayed = int(
        re.search(r"([\d,]+) cycles", out).group(1).replace(",", ""))
    assert replayed == live


@pytest.mark.parametrize("shards", ["1", "2"])
def test_policy_summary_counts_pushes_across_homes(capsys, monkeypatch,
                                                   shards):
    """The summary line's pushes figure sums home.<shard>.wtfwd_pushes
    (a read of a missing name would silently print 0)."""
    import repro.cli as cli
    real_build = cli.build_system
    systems = []

    def build_and_keep(config):
        systems.append(real_build(config))
        return systems[-1]

    monkeypatch.setattr(cli, "build_system", build_and_keep)
    code = main(["run", "ProducerConsumer", "--policy", "adaptive",
                 "--shards", shards] + SMALL)
    out = capsys.readouterr().out
    assert code == 0
    pushes = int(re.search(r"(\d+) pushes", out).group(1))
    (system,) = systems
    counters = system.stats.counters()
    expected = sum(value for name, value in counters.items()
                   if name.startswith("home.")
                   and name.endswith(".wtfwd_pushes"))
    assert pushes > 0 and pushes == expected
