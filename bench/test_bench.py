"""Tests of the benchmark itself (``pytest bench -q``, well under 60 s).

They drive ``bench/run.py`` end to end on single cheap cells.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import cells  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: a time budget so short that a run makes its minimum of repeats
FEWEST_REPEATS = ("--seconds", "0.01")


def declared(kind):
    return [metric["name"] for metric in DECLARED[kind]]


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout.strip().splitlines()


def result(*args):
    code, lines = bench(*args)
    return code, json.loads(lines[-1])


def test_declared_names_are_valid_and_unique():
    workloads = [w["name"] for w in DECLARED["workloads"]]
    names = declared("end_to_end") + declared("per_layer") + workloads
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert workloads == list(cells.WORKLOADS)


def test_timed_cell_prints_declared_metrics_and_matches_figure3():
    code, line = result("--workload", "fig3_apps", "--cells", "TQH/SMG",
                        "--seed", "0", *FEWEST_REPEATS)
    assert code == 0
    assert (line["correct"], line["attempted"], line["failed"]) == \
        (True, 2, 0)
    assert list(line["metrics"]) == declared("end_to_end")
    figure = json.loads((ROOT / "results" / "figure3.json").read_text())
    metrics = line["metrics"]
    assert metrics["sim_cycles"]["value"] == figure["TQH"]["SMG"]["cycles"]
    assert metrics["traffic_bytes"]["value"] == \
        figure["TQH"]["SMG"]["network_bytes"]


def test_traced_shares_sum_to_one_and_counts_repeat_exactly():
    lines = []
    for _ in range(2):
        code, line = result("--workload", "fig3_apps", "--cells", "TQH/SMG",
                            "--seed", "0", "--trace", "1")
        assert code == 0 and line["correct"]
        assert list(line["metrics"]) == declared("per_layer")
        shares = [m["value"] for name, m in line["metrics"].items()
                  if name.endswith(".share")]
        assert abs(sum(shares) - 1) <= 0.01
        lines.append(line["metrics"])
    exact = [name for name, m in lines[0].items()
             if m["unit"] not in run.HOST_UNITS]
    assert any(name.endswith(".calls") for name in exact)
    assert {n: lines[0][n] for n in exact} == {n: lines[1][n] for n in exact}


def test_exhausted_budget_is_a_counted_failure():
    code, line = result("--workload", "lossy_policy", "--cells", "ReuseS/SDD",
                        "--seed", "0", "--max-events", "1000",
                        *FEWEST_REPEATS)
    assert code == 1
    assert (line["correct"], line["attempted"], line["failed"]) == \
        (False, 2, 2)


def test_telemetry_cell_is_passive():
    # the run checks the traced cell against the same cell untraced
    code, line = result("--workload", "fig2_telemetry", "--cells",
                        "ReuseS/SDD", "--seed", "1", *FEWEST_REPEATS)
    assert code == 0
    assert (line["correct"], line["attempted"], line["failed"]) == \
        (True, 3, 0)


def test_check_runs_counts_crashes_and_drift():
    def run_of(*fingerprint, error=None):
        events, cycles, nbytes = fingerprint
        return {"cells": [{"cell": "A/SDD", "error": error, "events": events,
                           "cycles": cycles, "bytes": nbytes}]}

    attempted, failures = run.check_runs(
        [run_of(5, 6, 7), run_of(5, 6, 8), None,
         run_of(0, 0, 0, error="SimulationError: budget")], ["A/SDD"])
    assert attempted == 4
    assert len(failures) == 3
    # a recorded fingerprint beats agreement between the runs
    attempted, failures = run.check_runs(
        [run_of(5, 6, 7), run_of(5, 6, 7)], ["A/SDD"], {"A/SDD": [5, 6, 8]})
    assert (attempted, len(failures)) == (2, 2)


def test_recorded_fingerprints_cover_every_cell():
    expected = json.loads(run.EXPECTED.read_text())
    assert list(expected) == list(cells.WORKLOADS)
    for workload, seeds in expected.items():
        assert "0" in seeds
        for fingerprints in seeds.values():
            assert list(fingerprints) == cells.select_cells(workload, None)
    # telemetry is passive at every recorded seed
    for seed, fingerprints in expected["fig2_telemetry"].items():
        micro = expected["fig2_micro"][seed]
        assert fingerprints == {cell: micro[cell] for cell in fingerprints}


def test_compare_flags_missing_metrics_and_failed_cells(tmp_path, capsys):
    metric = {"unit": "s", "value": 1.0, "q1": 1.0, "q3": 1.0, "n": 2,
              "samples": [1.0, 1.0]}
    good = {"attempted": 2, "failed": 0, "metrics": {"run_s": metric}}
    paths = {}
    for name, workloads in (
            ("a", {"fig3_apps": good}),
            ("same", {"fig3_apps": good}),
            ("empty", {"fig3_apps": dict(good, metrics={})}),
            ("failed", {"fig3_apps": dict(good, failed=1)}),
            ("absent", {})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"workloads": workloads}))

    def compare(b):
        return run.compare(str(paths["a"]), str(paths[b]), DECLARED)

    assert compare("same") == 0
    assert compare("empty") == 1
    assert "MISSING" in capsys.readouterr().out
    assert compare("failed") == 1
    assert "FAILED" in capsys.readouterr().out
    assert compare("absent") == 1


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = bench("--workload", "lossy_policy", "--seed", "0",
                        cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
