"""Benchmark of the Spandex simulator: host speed and modelled results.

Timed set (end-to-end metrics, tracing off)::

    python3 bench/run.py --seed 0                     # 4 workloads x 5 repeats
    python3 bench/run.py --workload fig3_apps --seed 3 --seconds 15

Traced set (per-layer metrics: cProfile per repro.<package>, the
benchmark's own spans, simulated counters)::

    python3 bench/run.py --seed 0 --trace 1

Baselines::

    python3 bench/run.py --seed 0 --json bench/baseline/a.json
    python3 bench/run.py --compare bench/baseline/a.json new.json

Every repeat of a workload runs in a fresh ``bench/cells.py`` process,
one process at a time.  With ``--seconds`` a run makes as many repeats
as fit in that time, and at least two; otherwise five, interleaved
across workloads.  A run reports each metric's median over its
repeats, with quartiles and n.  Host times are divided by the host
slowdown that calibration rounds between cells measure (see
``cells.calibrate``), so other tenants of a shared host move them far
less than they move raw times.

Correctness gates (a failing one counts
its cell in ``failed`` and makes the exit code 1): every cell's final
memory equals ``Workload.reference()``; at seed 0 every figure cell
matches results/figure2.json / figure3.json exactly; at every seed
recorded in bench/expected.json every cell's events, cycles and bytes
equal the recorded ones; events, cycles and bytes repeat exactly
across repeats; the telemetry workload equals the same cells run
without telemetry.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit; keyed by workload
first when several workloads ran).  Metric names, units and regression
bounds are declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from cells import (MAX_EVENTS, OUT, ROOT, SRC, WORKLOADS, select_cells)

DECLARATION = ROOT / "BENCHMARK.json"
#: per-cell (events, cycles, bytes) by workload and seed, written by
#: bench/record_expected.py
EXPECTED = Path(__file__).with_name("expected.json")
#: a repeat that takes longer is killed and all its cells fail; the
#: per-cell event budget already ends a livelock far sooner
CHILD_TIMEOUT_S = 150
#: fewest repeats a --seconds run makes
MIN_REPEATS = 2
#: repeats per workload of a run without --seconds
REPEATS = 5
#: units of host measurements; every other metric is a deterministic
#: count of the simulation and is compared exactly
HOST_UNITS = ("s", "MB", "ops/s", "events/s", "fraction", "x")

#: simulated counters reported unchanged as per-layer metrics
COUNTS = ("sim.events", "devices.spin_iterations",
          "devices.gpu_issue_retries", "l1.hits", "l1.load_misses",
          "l1.flash_invalidations", "l1.sb_conflict_stalls",
          "l1.mshr_stalls", "home.requests", "home.forwards",
          "home.deferred", "home.wtfwd_pushes", "tu.nack_retries",
          "tu.fwd_direct", "network.messages", "transport.retransmits",
          "faults.dropped", "dram.reads", "dram.read_bytes",
          "obs.trace_events", "obs.monitor_scrapes")


def run_child(workload: str, seed: int, max_events: int,
              cells: Sequence[str],
              profile: bool = False,
              no_telemetry: bool = False) -> Optional[dict]:
    """One repeat in a fresh process; None if it crashed or timed out."""
    command = [sys.executable, str(Path(__file__).with_name("cells.py")),
               workload, "--seed", str(seed), "--max-events",
               str(max_events), "--cells", ",".join(cells)]
    if profile:
        command.append("--profile")
    if no_telemetry:
        command.append("--no-telemetry")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} repeat timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run.py: {workload} repeat exited {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def recorded(workload: str, seed: int) -> Dict[str, list]:
    """The bench/expected.json fingerprints of ``workload`` at ``seed``
    (cell -> [events, cycles, bytes]); empty for an unrecorded seed."""
    with open(EXPECTED) as handle:
        return json.load(handle).get(workload, {}).get(str(seed), {})


def check_runs(runs: Sequence[Optional[dict]], cells: Sequence[str],
               fingerprints: Optional[Dict[str, list]] = None
               ) -> Tuple[int, List[str]]:
    """(cells attempted, failures) over ``runs`` of the same cells.

    A cell fails on its own error, in a crashed run, or when its
    (events, cycles, bytes) differ from ``fingerprints[cell]`` or, for a
    cell without one, from its first successful run.
    """
    expected: Dict[str, list] = dict(fingerprints or {})
    failures: List[str] = []
    for index, run in enumerate(runs):
        if run is None:
            failures += [f"run {index} {cell}: no result" for cell in cells]
            continue
        for outcome in run["cells"]:
            cell = outcome["cell"]
            if outcome["error"]:
                failures.append(f"run {index} {cell}: {outcome['error']}")
                continue
            fingerprint = [outcome["events"], outcome["cycles"],
                           outcome["bytes"]]
            want = expected.setdefault(cell, fingerprint)
            if fingerprint != want:
                failures.append(f"run {index} {cell}: events/cycles/bytes "
                                f"{fingerprint} != {want}")
    return len(runs) * len(cells), failures


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def normalized(run: dict) -> Tuple[float, Dict[str, float]]:
    """``run``'s wall_s and phase times at the reference host speed
    (cells.CALIBRATION_REF_S): each divided by the repeat's slowdown."""
    slowdown = run["slowdown"]
    return run["wall_s"] / slowdown, {
        name: seconds / slowdown for name, seconds in run["phases"].items()}


def end_to_end(run: dict) -> Dict[str, float]:
    counts = run["counts"]
    wall_s, phases = normalized(run)
    return {
        "wall_s": wall_s,
        "setup_s": phases["generate"] + phases["build"] + phases["load"],
        "run_s": phases["run"],
        "check_s": phases["reference"] + phases["validate"],
        "sim_ops_per_s": _ratio(counts.get("ops", 0), phases["run"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "sim_cycles": counts.get("execution.cycles", 0),
        "traffic_bytes": counts.get("network.bytes", 0),
    }


def per_layer(untraced: dict, profiled: dict) -> Dict[str, float]:
    """Layer metrics: timings and counters from the untraced repeat,
    self time and calls from the profiled one."""
    _, phases = normalized(untraced)

    def count(name: str) -> float:
        return untraced["counts"].get(name, 0)

    metrics = {
        "workloads.generate_s": phases["generate"],
        "system.build_s": phases["build"],
        "system.load_s": phases["load"],
        "consistency.reference_s": phases["reference"],
        "system.validate_s": phases["validate"],
        "obs.prometheus_s": phases["export.prometheus"],
        "obs.health_json_s": phases["export.health_json"],
        "obs.chrome_export_s": phases["export.chrome"],
    }
    total = sum(self_s for self_s, _ in profiled["profile"].values())
    for layer, (self_s, calls) in profiled["profile"].items():
        metrics[f"prof.{layer}.self_s"] = self_s
        metrics[f"prof.{layer}.share"] = _ratio(self_s, total)
        metrics[f"prof.{layer}.calls"] = calls
    metrics["prof.overhead"] = _ratio(profiled["wall_s"],
                                      untraced["wall_s"])
    metrics["host.slowdown"] = untraced["slowdown"]
    metrics.update((name, count(name)) for name in COUNTS)
    metrics["sim.events_per_op"] = _ratio(count("sim.events"), count("ops"))
    metrics["sim.events_per_s"] = _ratio(count("sim.events"), phases["run"])
    metrics["l1.hit_ratio"] = _ratio(
        count("l1.hits"), count("l1.hits") + count("l1.load_misses"))
    metrics["tu.pred_hit_ratio"] = _ratio(
        count("tu.pred_hit"), count("tu.pred_hit") + count("tu.pred_miss"))
    metrics["network.mean_latency"] = _ratio(
        count("network.latency_cycles"), count("network.messages"))
    metrics["transport.goodput_ratio"] = 1 - _ratio(
        count("transport.retransmits"), count("network.messages"))
    return metrics


def summarize(samples: Sequence[Dict[str, float]],
              declared: Dict[str, dict]) -> Dict[str, dict]:
    """Median ("value"), quartiles and n of every metric, in the order
    BENCHMARK.json declares them."""
    out = {}
    order = list(declared)
    for name in sorted(samples[0] if samples else (), key=order.index):
        values = [sample[name] for sample in samples]
        median = statistics.median(values)
        q1 = q3 = median
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": declared[name]["unit"], "value": median,
                     "q1": q1, "q3": q3, "n": len(values),
                     "samples": values}
    return out


def write_spans(workload: str, records: Sequence[list]) -> None:
    """bench/out/trace-<workload>.json: every span with its self time
    (duration minus the time its children cover), plus self time
    summed per span name."""
    children: Dict[int, float] = {}
    for _, parent, _, start, end in records:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + end - start
    spans, by_name = [], {}
    for ident, parent, name, start, end in records:
        self_s = end - start - children.get(ident, 0.0)
        spans.append({"id": ident, "parent": parent, "name": name,
                      "start": start, "end": end, "self": self_s})
        by_name[name] = by_name.get(name, 0.0) + self_s
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}.json", "w") as handle:
        json.dump({"workload": workload, "self_by_name": by_name,
                   "spans": spans}, handle, indent=1)


def workload_result(workload: str, seed: int,
                    runs: Sequence[Optional[dict]], cells: Sequence[str],
                    samples: Sequence[Dict[str, float]],
                    declared: Dict[str, dict]) -> dict:
    attempted, failures = check_runs(runs, cells, recorded(workload, seed))
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures, "metrics": summarize(samples, declared)}


def timed_set(workloads: Sequence[str], args, declared) -> Dict[str, dict]:
    """End-to-end metrics from untraced repeats."""
    cells = {w: select_cells(w, args.cells) for w in workloads}

    def child(workload: str, **kwargs) -> Optional[dict]:
        return run_child(workload, args.seed, args.max_events,
                         cells[workload], **kwargs)

    # the telemetry workload must equal its cells without telemetry
    runs = {w: [child(w, no_telemetry=True)] if WORKLOADS[w].telemetry
            else [] for w in workloads}
    timed = {w: [] for w in workloads}
    start = time.monotonic()
    while True:
        for w in workloads:
            timed[w].append(child(w))
        rounds = len(timed[workloads[0]])
        if args.seconds:
            # stop unless one more round, at the mean pace, still fits
            elapsed = time.monotonic() - start
            if rounds >= MIN_REPEATS and \
                    elapsed * (rounds + 1) / rounds > args.seconds:
                break
        elif rounds >= REPEATS:
            break
    return {w: workload_result(
                w, args.seed, runs[w] + timed[w], cells[w],
                [end_to_end(run) for run in timed[w] if run is not None],
                declared)
            for w in workloads}


def traced_set(workloads: Sequence[str], args, declared) -> Dict[str, dict]:
    """Per-layer metrics: one untraced and one profiled repeat each."""
    results = {}
    for w in workloads:
        cells = select_cells(w, args.cells)
        untraced = run_child(w, args.seed, args.max_events, cells)
        profiled = run_child(w, args.seed, args.max_events, cells,
                             profile=True)
        samples = []
        if untraced is not None and profiled is not None:
            samples.append(per_layer(untraced, profiled))
            write_spans(w, untraced["spans"])
        results[w] = workload_result(w, args.seed, [untraced, profiled],
                                     cells, samples, declared)
    return results


def format_table(results: Dict[str, dict]) -> str:
    lines = [f"{'workload':<16}{'metric':<28}{'unit':<10}"
             f"{'median':>13}{'q1':>13}{'q3':>13}{'n':>4}"]
    for w, result in results.items():
        for name, m in result["metrics"].items():
            lines.append(f"{w:<16}{name:<28}{m['unit']:<10}"
                         f"{m['value']:>13.6g}{m['q1']:>13.6g}"
                         f"{m['q3']:>13.6g}{m['n']:>4}")
        lines.append(f"{w:<16}{'failed':<28}{'cells':<10}"
                     f"{result['failed']:>13}/{result['attempted']}")
    return "\n".join(lines)


def result_line(results: Dict[str, dict]) -> dict:
    """The final stdout line."""

    def values(result: dict) -> dict:
        return {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()}

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        (only,) = results.values()
        metrics = values(only)
    else:
        metrics = {w: values(r) for w, r in results.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _commit() -> Optional[str]:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def compare(path_a: str, path_b: str, declared: dict) -> int:
    """Print one row per (metric, workload) of B against A.

    Bounded metrics regress when B's value is worse than A's by more
    than the declared bound, and are unresolved when either side's
    quartile spread over its repeats exceeds the bound (unless every B
    repeat beats every A repeat).  Deterministic metrics must match
    exactly.  A metric or workload of A that B lacks is MISSING, and a
    workload with failed cells on either side is FAILED; both count
    as regressions.
    """
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    spec = {m["name"]: m for m in declared["end_to_end"]
            + declared["per_layer"]}
    print(f"{'workload':<16}{'metric':<28}{'A':>14}{'B':>14}{'delta':>9}"
          f"{'bound':>8}{'spread':>8}  status")
    bad = 0
    for w, result_a in a["workloads"].items():
        result_b = b["workloads"].get(w)
        cells_b = "-"
        if result_b is None:
            status = "MISSING"
        else:
            cells_b = f"{result_b['failed']}/{result_b['attempted']}"
            failed = result_a["failed"] or result_b["failed"]
            status = "FAILED" if failed else "ok"
        bad += status != "ok"
        cells_a = f"{result_a['failed']}/{result_a['attempted']}"
        print(f"{w:<16}{'failed cells':<28}{cells_a:>14}{cells_b:>14}"
              f"{'':>9}{'0':>8}{'':>8}  {status}")
        metrics_b = result_b["metrics"] if result_b is not None else {}
        for name, ma in result_a["metrics"].items():
            mb = metrics_b.get(name)
            if mb is None:
                bad += 1
                print(f"{w:<16}{name:<28}{ma['value']:>14.6g}{'-':>14}"
                      f"{'':>9}{'':>8}{'':>8}  MISSING")
                continue
            meta = spec[name]
            delta = _ratio(mb["value"] - ma["value"], abs(ma["value"]))
            worse = delta if meta["better"] == "lower" else -delta
            spread = max(_ratio(m["q3"] - m["q1"], abs(m["value"]))
                         for m in (ma, mb))
            bound = meta.get("bound")
            if meta["unit"] not in HOST_UNITS:
                status = "ok" if mb["value"] == ma["value"] else "CHANGED"
            elif bound is None:
                status = "info"
            else:
                if meta["better"] == "lower":
                    all_better = max(mb["samples"]) < min(ma["samples"])
                else:
                    all_better = min(mb["samples"]) > max(ma["samples"])
                if all_better:
                    status = "ok"
                elif spread > bound:
                    status = "unresolved"
                elif worse > bound:
                    status = "REGRESSED"
                else:
                    status = "ok"
            bad += status in ("CHANGED", "REGRESSED")
            bound_text = "exact" if meta["unit"] not in HOST_UNITS else (
                f"{bound:.0%}" if bound is not None else "-")
            print(f"{w:<16}{name:<28}{ma['value']:>14.6g}"
                  f"{mb['value']:>14.6g}{delta:>+9.2%}{bound_text:>8}"
                  f"{spread:>8.1%}  {status}")
    return 1 if bad else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Spandex simulator benchmark (see bench/README.md)")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed, >= 0 (0 = the committed figures)")
    parser.add_argument("--seconds", type=float, default=0,
                        help="make as many repeats as fit in this time "
                        f"(at least {MIN_REPEATS}; default {REPEATS} "
                        "repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced set: per-layer metrics")
    parser.add_argument("--json", metavar="OUT",
                        help="write every metric with quartiles and n")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --json files and exit")
    parser.add_argument("--max-events", type=int, default=MAX_EVENTS,
                        help="per-cell event budget")
    parser.add_argument("--cells", type=lambda text: text.split(","),
                        help="only these PROGRAM/CONFIG cells (one workload)")
    args = parser.parse_args(argv)
    with open(DECLARATION) as handle:
        declared = json.load(handle)
    if args.compare:
        return compare(*args.compare, declared)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    needed = [SRC / "repro" / "__init__.py",
              ROOT / "results" / "figure2.json",
              ROOT / "results" / "figure3.json"]
    missing = [str(path.relative_to(ROOT)) for path in needed
               if not path.is_file()]
    if missing:
        print(f"run.py: missing {', '.join(missing)}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    if args.cells:
        if len(workloads) != 1:
            parser.error("--cells needs exactly one --workload")
        try:
            select_cells(workloads[0], args.cells)
        except ValueError as exc:
            parser.error(str(exc))
    # SystemExit unwinds subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    kind = "per_layer" if args.trace else "end_to_end"
    measure = traced_set if args.trace else timed_set
    results = measure(workloads, args,
                      {m["name"]: m for m in declared[kind]})
    print(format_table(results))
    for w, result in results.items():
        for failure in result["failures"]:
            print(f"FAILED {w} {failure}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"meta": {"commit": _commit(), "nproc": os.cpu_count(),
                                "python": sys.version.split()[0],
                                "seed": args.seed, "trace": args.trace},
                       "workloads": results}, handle, indent=1)
            handle.write("\n")
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
