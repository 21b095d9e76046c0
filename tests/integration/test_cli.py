"""Tests for the ``python -m repro`` command-line interface."""

import dataclasses
import itertools
import json
import re

import pytest

from repro.cli import main
from repro.coherence.messages import Message
from repro.obs import load_chrome_trace, validate_chrome_trace
from repro.system import (CONFIG_ORDER, FaultConfig, LinkWindow,
                          TraceConfig, scaled_config)

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


def test_replay_prints_what_run_prints(tmp_path, capsys):
    # replay goes through run's per-configuration loop on a system
    # sized from the saved traces, so checked output matches byte for
    # byte; the scale flags belong to the generator, not to replay
    path = str(tmp_path / "reuse.json")
    assert main(["save", "ReuseS", path] + SMALL) == 0
    capsys.readouterr()
    flags = ["--config", "all", "--check", "--invariants"]
    assert main(["run", "ReuseS"] + flags + SMALL) == 0
    live = capsys.readouterr().out
    assert main(["replay", path] + flags) == 0
    replayed = capsys.readouterr().out
    assert replayed == live
    assert replayed.count("memory: OK  invariants: OK") == 6
    with pytest.raises(SystemExit):
        main(["replay", path, "--cpus", "2"])


def test_sweep_trace_artifacts_match_run_exports(tmp_path, monkeypatch):
    # one telemetry export: a traced sweep cell writes the Prometheus
    # text and health JSON `run --monitor` writes for the same cell,
    # and the same Chrome trace apart from the process name.  Request
    # ids are process-global (the spans carry them), so each command
    # starts from a fresh counter as it would in its own process.
    out = tmp_path / "run"
    out.mkdir()
    monkeypatch.setattr(Message, "_req_ids", itertools.count(1))
    assert main(["run", "ReuseS", "--config", "SDD", "--check",
                 "--monitor", "--prom-out", str(out / "cell.prom"),
                 "--health-json", str(out / "cell.metrics.json"),
                 "--trace-out", str(out / "cell.trace.json")]
                + SMALL) == 0
    monkeypatch.setattr(Message, "_req_ids", itertools.count(1))
    assert main(["sweep", "ReuseS", "--configs", "SDD", "--no-cache",
                 "--trace-artifacts", str(tmp_path / "sweep")]
                + SMALL) == 0
    for suffix in ("prom", "metrics.json"):
        (swept,) = (tmp_path / "sweep").glob(f"*.{suffix}")
        assert swept.read_text() == (out / f"cell.{suffix}").read_text()
    (swept,) = (tmp_path / "sweep").glob("*.trace.json")
    events = [load_chrome_trace(str(path))["traceEvents"]
              for path in (swept, out / "cell.trace.json")]
    assert events[0][0]["args"]["name"] == "ReuseS/SDD"
    assert events[1][0]["args"]["name"] == "SDD"
    assert events[0][1:] == events[1][1:]
    assert any(event["ph"] == "C" for event in events[0])


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


# -- knob routing: every fabric / fault flag lands on one config field --------
class _Captured(Exception):
    """Raised by the capturing stubs so no cell is simulated."""


def _run_config(monkeypatch, flags):
    """The SystemConfig `repro run ReuseS --config SDD` builds."""
    import repro.cli as cli
    built = []

    def capture(config):
        built.append(config)
        raise _Captured

    monkeypatch.setattr(cli, "build_system", capture)
    with pytest.raises(_Captured):
        main(["run", "ReuseS", "--config", "SDD"] + SMALL + flags)
    (config,) = built
    return config


def _grid_configs(monkeypatch, argv):
    """Every cell's SystemConfig a sweep-backed command hands to
    run_sweep."""
    import repro.cli as cli
    specs = []

    def capture(cells, **options):
        specs.extend(cells)
        raise _Captured

    monkeypatch.setattr(cli, "run_sweep", capture)
    with pytest.raises(_Captured):
        main(argv)
    return [spec.system_config() for spec in specs]


def _sweep_config(monkeypatch, flags):
    (config,) = _grid_configs(
        monkeypatch, ["sweep", "ReuseS", "--configs", "SDD"] + SMALL + flags)
    return config


def _field(config, path):
    for name in path.split("."):
        config = getattr(config, name)
    return config


def _exit_code(argv):
    """main()'s exit status, whether returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


KNOBS = [
    (["--shards", "2"], "llc_shards", 2),
    (["--interleave", "hash"], "shard_interleave", "hash"),
    (["--topology", "mesh"], "topology", "mesh"),
    (["--sockets", "3"], "num_sockets", 3),
    (["--policy", "criticality"], "request_policy", "criticality"),
    (["--owner-pred"], "owner_pred", True),
    (["--loss", "0.02"], "faults.drop_prob", 0.02),
    (["--dup", "0.01"], "faults.dup_prob", 0.01),
    (["--reorder-prob", "0.05", "--reorder-window", "32"],
     "faults.reorder_window", 32),
    (["--link-down", "2000:1500:c0:llc*"], "faults.link_down",
     (LinkWindow(2000, 1500, "c0", "llc*"),)),
]


@pytest.mark.parametrize("flags,path,value", KNOBS,
                         ids=[knob[0][0] for knob in KNOBS])
def test_each_knob_reaches_the_same_config_via_run_and_sweep(
        monkeypatch, flags, path, value):
    run = _run_config(monkeypatch, flags)
    assert _field(run, path) == value
    assert run == _sweep_config(monkeypatch, flags)


def test_all_knobs_together_reach_the_same_config_via_run_and_sweep(
        monkeypatch):
    flags = [arg for knob in KNOBS for arg in knob[0]]
    flags += ["--link-down", "100:50"]
    run = _run_config(monkeypatch, flags)
    assert run == _sweep_config(monkeypatch, flags)
    assert (run.llc_shards, run.shard_interleave, run.topology,
            run.num_sockets, run.request_policy, run.owner_pred) == \
        (2, "hash", "mesh", 3, "criticality", True)
    faults = run.faults
    assert (faults.seed, faults.drop_prob, faults.dup_prob,
            faults.reorder_prob, faults.reorder_window) == \
        (0, 0.02, 0.01, 0.05, 32)
    assert [(w.start, w.length, w.src, w.dst) for w in faults.link_down] \
        == [(2000, 1500, "c0", "llc*"), (100, 50, "*", "*")]


def test_no_flags_build_the_plain_scaled_config(monkeypatch):
    assert _run_config(monkeypatch, []) == scaled_config("SDD", 2, 2)
    assert _sweep_config(monkeypatch, []) == scaled_config("SDD", 2, 2)
    configs = _grid_configs(monkeypatch, ["figure2"])
    assert configs
    assert all(config == scaled_config(config.name, 4, 4)
               for config in configs)


def test_reorder_prob_alone_defaults_the_window(monkeypatch):
    for capture in (_run_config, _sweep_config):
        faults = capture(monkeypatch, ["--reorder-prob", "0.1"]).faults
        assert (faults.reorder_prob, faults.reorder_window) == (0.1, 64)


def test_fault_seeds_route_to_the_fault_config(monkeypatch):
    faults = _sweep_config(monkeypatch,
                           ["--loss", "0.02", "--fault-seed", "3"]).faults
    assert (faults.seed, faults.drop_prob) == (3, 0.02)
    faults = _run_config(monkeypatch,
                         ["--faults", "5", "--loss", "0.02"]).faults
    assert faults == dataclasses.replace(FaultConfig.stress(5),
                                         drop_prob=0.02)


@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if a command gets as far as simulating."""
    import repro.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("simulation started on a bad option")

    monkeypatch.setattr(cli, "build_system", never)
    monkeypatch.setattr(cli, "run_sweep", never)


ONE_CELL = {"run": ["run", "ReuseS", "--config", "SDD"] + SMALL,
            "sweep": ["sweep", "ReuseS", "--configs", "SDD"] + SMALL}


@pytest.mark.parametrize("bad", [["--loss", "1.0"],
                                 ["--reorder-prob", "1.5"],
                                 ["--link-down", "bogus"]])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_fault_values_exit_2_before_simulating(no_simulation, command,
                                                   bad):
    assert _exit_code(ONE_CELL[command] + bad) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_zero_shards_exit_2_before_simulating(no_simulation, capsys,
                                              command):
    assert _exit_code(ONE_CELL[command] + ["--shards", "0"]) == 2
    assert "llc_shards must be >= 1" in capsys.readouterr().err


def test_figure2_fabric_flags_reach_every_cell(monkeypatch):
    configs = _grid_configs(monkeypatch, ["figure2", "--shards", "2",
                                          "--topology", "switch"] + SMALL)
    assert {config.name for config in configs} == set(CONFIG_ORDER)
    assert len(configs) % len(CONFIG_ORDER) == 0
    assert all(config.llc_shards == 2 and config.topology == "switch"
               for config in configs)


def test_monitor_flags_build_the_trace_config(monkeypatch):
    assert _run_config(monkeypatch, ["--monitor"]).trace == \
        TraceConfig(monitor_interval=5000)
    trace = _run_config(monkeypatch, ["--monitor", "--top", "3"]).trace
    assert (trace.monitor_interval, trace.health_top_k) == (5000, 3)


def test_trace_out_reports_the_records_it_wrote(capsys, tmp_path):
    path = tmp_path / "t.json"
    code = main(["run", "Indirection", "--config", "all"] + SMALL
                + ["--trace", "--trace-out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    match = re.search(r"wrote ([\d,]+) trace events \(6 process\(es\)\)",
                      out)
    assert match is not None
    payload = load_chrome_trace(str(path))
    assert int(match.group(1).replace(",", "")) == \
        len(payload["traceEvents"])
    assert validate_chrome_trace(payload) == []
