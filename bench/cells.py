"""One repeat of one benchmark workload, run in a fresh process.

``bench/run.py`` launches this file once per repeat::

    python3 bench/cells.py WORKLOAD --seed S [--profile] [--no-telemetry]
                           [--max-events N] [--cells PROGRAM/CONFIG,...]

with ``PYTHONPATH`` pointing at the checkout's ``src``.  It simulates
every cell (one program x one Table V configuration) of the workload,
one after another, through the simulator's public API only, and prints
one JSON object on its last stdout line: per-cell fingerprints and
errors, the benchmark's own timing spans, summed simulated counters,
peak RSS, the host slowdown measured by calibration rounds between
cells and, with ``--profile``, cProfile self time and call counts per
``repro.<package>``.

This module imports nothing from ``repro`` at import time, so the
parent can read :data:`WORKLOADS` without loading the simulator.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import inspect
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: the ``small`` scale of benchmarks/conftest.py, which produced
#: results/figure2.json and figure3.json
SCALE = dict(num_cpus=4, num_gpus=4, warps_per_cu=2)
#: ~25x the largest cell, so a livelock is a counted failure within
#: seconds instead of a hang
MAX_EVENTS = 2_000_000
#: FaultConfig seed of the lossy workload at benchmark seed 0
FAULT_SEED = 7
#: health-monitor scrape period of the telemetry workload (cycles)
MONITOR_INTERVAL = 5000

MICRO = ("Indirection", "ReuseO", "ReuseS")
APPS = ("BC", "PR", "HSTI", "TRNS", "RSCT", "TQH")
CONFIGS = ("HMG", "HMD", "SMG", "SMD", "SDG", "SDD")
SPANDEX = ("SMG", "SMD", "SDG", "SDD")
#: one hierarchical, one mixed and one all-DeNovo configuration, so a
#: telemetry repeat (the Chrome export costs as much as the simulation)
#: stays near 9 s
TELEMETRY_CONFIGS = ("HMG", "SMG", "SDD")

#: SystemConfig overrides of the lossy workload (besides its faults)
LOSSY = dict(llc_shards=2, shard_interleave="hash",
             topology="multi_socket", num_sockets=2,
             request_policy="adaptive", owner_pred=True)

#: self time outside these ``repro`` packages (C built-ins, the
#: standard library, this loop) is reported as ``builtins``
PACKAGES = ("sim", "protocols", "devices", "mem", "core", "network",
            "coherence", "workloads", "consistency", "faults", "obs",
            "system")
LAYERS = PACKAGES + ("builtins",)

#: span names summed into each phase total
PHASES = ("generate", "build", "load", "run", "reference", "validate",
          "export.prometheus", "export.health_json", "export.chrome",
          "calibrate")

#: seconds one calibrate() round takes at the host speed all host
#: timings are reported at; a round took 14-16 ms on a quiet 2-vCPU
#: Xeon host under Python 3.11
CALIBRATION_REF_S = 0.015


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value

    def total(self) -> int:
        return self.key + self.value


def calibrate() -> float:
    """Seconds a fixed round of interpreter work takes right now.

    The round does what the simulator's event loop does most: heap
    pushes and pops, small-object construction and method calls, and
    dict updates.  On a shared host, neighbours slowed the simulator and
    this round together (correlation 0.96 over ten repeats of a
    workload), so dividing host timings by the round's slowdown removes
    most of the host's drift from them.
    """
    start = time.perf_counter()
    heap: list = []
    counts: Dict[int, int] = {}
    for i in range(15000):
        heapq.heappush(heap, (i * 7919 % 1000, i, _Item(i, i)))
        counts[i % 509] = counts.get(i % 509, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)[2].total()
    return time.perf_counter() - start


@dataclass(frozen=True)
class BenchWorkload:
    """A set of cells: every program on every configuration."""

    programs: Tuple[str, ...]
    configs: Tuple[str, ...]
    #: sharded multi-socket homes, adaptive request policy with owner
    #: prediction, and the unreliable_stress delivery faults
    lossy: bool = False
    #: tracer, transaction profiler, span collector and health monitor
    #: on, with Prometheus / health JSON / Chrome trace exports per cell
    telemetry: bool = False
    #: results/<figure> that every cell must match at seed 0
    figure: Optional[str] = None

    def cells(self) -> List[str]:
        return [f"{program}/{config}" for program in self.programs
                for config in self.configs]


WORKLOADS: Dict[str, BenchWorkload] = {
    "fig2_micro": BenchWorkload(MICRO, CONFIGS, figure="figure2.json"),
    "fig3_apps": BenchWorkload(APPS, CONFIGS, figure="figure3.json"),
    "lossy_policy": BenchWorkload(("ReuseS", "ProducerConsumer"), SPANDEX,
                                  lossy=True),
    "fig2_telemetry": BenchWorkload(("Indirection", "ReuseS"),
                                    TELEMETRY_CONFIGS, telemetry=True,
                                    figure="figure2.json"),
}


def select_cells(workload: str, only: Optional[Sequence[str]]) -> List[str]:
    """The workload's cells, narrowed to ``only`` when given."""
    cells = WORKLOADS[workload].cells()
    if not only:
        return cells
    unknown = sorted(set(only) - set(cells))
    if unknown:
        raise ValueError(f"{workload} has no cell(s) {', '.join(unknown)}; "
                         f"try: {', '.join(cells)}")
    return [cell for cell in cells if cell in only]


class Spans:
    """In-memory span log of the benchmark's own calls into each layer.

    Each record is ``[id, parent_id, name, start_s, end_s]`` with times
    relative to the log's creation; the parent of a span is the span
    open when it began.
    """

    def __init__(self):
        self.records: List[list] = []
        self._open: List[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        record = [len(self.records), self._open[-1] if self._open else None,
                  name, time.perf_counter() - self._t0, None]
        self.records.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            self._open.pop()
            record[4] = time.perf_counter() - self._t0

    def totals(self) -> Dict[str, float]:
        """Summed duration per phase name."""
        totals = dict.fromkeys(PHASES, 0.0)
        for _, _, name, start, end in self.records:
            if name in totals:
                totals[name] += end - start
        return totals


def _counts(system, result) -> Dict[str, float]:
    """The simulated counters the per-layer metrics are built from.

    Home counters are summed over the canonical ``home.<shard>.*``
    scopes, so they hold for any shard count and hierarchical homes.
    """
    stats = result.stats
    counters = stats.counters()

    def homes(metric: str) -> float:
        return sum(value for name, value in counters.items()
                   if name.startswith("home.") and name.count(".") == 2
                   and name.endswith("." + metric))

    get = stats.get
    return {
        "sim.events": system.engine.events_executed,
        "execution.cycles": result.cycles,
        "network.bytes": result.network_bytes,
        "ops": get("cpu.ops") + get("gpu.ops"),
        "devices.spin_iterations":
            get("cpu.spin_iterations") + get("gpu.spin_iterations"),
        "devices.gpu_issue_retries": get("gpu.issue_retries"),
        "l1.hits": get("l1.hits"),
        "l1.load_misses": get("l1.load_misses"),
        "l1.flash_invalidations": get("l1.flash_invalidations"),
        "l1.sb_conflict_stalls": get("l1.sb_conflict_stalls"),
        "l1.mshr_stalls": get("l1.mshr_stalls"),
        "home.requests": sum(
            stats.group_total(group) for group in stats.groups()
            if group.startswith("home.") and group.count(".") == 2
            and group.endswith(".requests")),
        "home.forwards": homes("forwards"),
        "home.deferred": homes("deferred"),
        "home.wtfwd_pushes": homes("wtfwd_pushes"),
        "tu.nack_retries": get("tu.nack_retries"),
        "tu.fwd_direct": get("tu.fwd_direct"),
        "tu.pred_hit": get("tu.pred_hit"),
        "tu.pred_miss": get("tu.pred_miss"),
        "network.messages": get("network.messages"),
        "network.latency_cycles": get("network.latency_cycles"),
        "transport.retransmits": get("transport.retransmits"),
        "faults.dropped": get("faults.dropped"),
        "dram.reads": get("dram.reads"),
        "dram.read_bytes": get("dram.read_bytes"),
        "obs.trace_events":
            system.tracer.seen if system.tracer is not None else 0,
        "obs.monitor_scrapes":
            system.monitor.scrapes if system.monitor is not None else 0,
    }


def _export(spans: Spans, system, cell: str, out_dir: Path) -> None:
    """The three telemetry exports a monitored sweep cell writes."""
    from repro.obs import (prometheus_text, registry_samples, stats_samples,
                           write_chrome_trace)
    with spans.span("export.prometheus"):
        with open(out_dir / "cell.prom", "w") as handle:
            handle.write(prometheus_text(registry_samples(system.registry)
                                         + stats_samples(system.stats)))
    with spans.span("export.health_json"):
        with open(out_dir / "cell.metrics.json", "w") as handle:
            json.dump({"health": system.monitor.health_summary(),
                       "monitor": system.monitor.snapshot(),
                       "spans": system.spans.snapshot()}, handle)
    with spans.span("export.chrome"):
        write_chrome_trace(str(out_dir / "cell.trace.json"),
                           [{"name": cell, "events": system.tracer.events()}])


def run_cell(spans: Spans, bench: BenchWorkload, cell: str, seed: int,
             max_events: int, telemetry: bool, figure: Optional[dict],
             out_dir: Optional[Path]) -> Tuple[dict, Dict[str, float]]:
    """Simulate and check one cell; returns (outcome, counters).

    ``outcome["error"]`` is None for a cell that ran to completion,
    left the reference memory image and, at seed 0, matched
    ``figure``; otherwise it names the first failure.
    """
    from repro.system import (FaultConfig, TraceConfig, build_system,
                              scaled_config)
    from repro.workloads import APPLICATIONS, MICROBENCHMARKS

    program, config_name = cell.split("/")
    generator = {**MICROBENCHMARKS, **APPLICATIONS}[program]
    generator_seed = inspect.signature(generator).parameters["seed"].default
    overrides: dict = {}
    if bench.lossy:
        overrides.update(LOSSY,
                         faults=FaultConfig.unreliable_stress(FAULT_SEED + seed))
    if telemetry:
        overrides["trace"] = TraceConfig(monitor_interval=MONITOR_INTERVAL)
    outcome = {"cell": cell, "error": None}
    with spans.span(cell):
        try:
            with spans.span("generate"):
                workload = generator(**SCALE, seed=generator_seed + seed)
            with spans.span("build"):
                system = build_system(scaled_config(
                    config_name, SCALE["num_cpus"], SCALE["num_gpus"],
                    **overrides))
            with spans.span("load"):
                system.load_workload(workload)
            with spans.span("run"):
                result = system.run(max_events=max_events)
            with spans.span("reference"):
                reference = workload.reference()
            with spans.span("validate"):
                wrong = sum(system.read_coherent(addr) != value
                            for addr, value in reference.memory.items())
            if telemetry:
                _export(spans, system, cell, out_dir)
        except Exception as exc:  # a failing cell is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcome["error"] = f"{type(exc).__name__}: {exc}"
            return outcome, {}
    counts = _counts(system, result)
    outcome.update(events=counts["sim.events"], cycles=result.cycles,
                   bytes=result.network_bytes)
    if wrong:
        outcome["error"] = f"{wrong} word(s) differ from the reference image"
    elif figure is not None:
        expected = figure[program][config_name]
        got = {"cycles": result.cycles, "network_bytes": result.network_bytes}
        if got != {key: expected[key] for key in got}:
            outcome["error"] = (f"seed-0 cycles/bytes {got} differ from "
                                f"{bench.figure} {expected['cycles']}/"
                                f"{expected['network_bytes']}")
    return outcome, counts


def _profile_layers(profile: cProfile.Profile) -> Dict[str, List[float]]:
    """[self seconds, calls] per layer from a finished profile."""
    package_root = os.path.realpath(SRC / "repro")
    layers = {layer: [0.0, 0] for layer in LAYERS}
    for (filename, _, _), (_, calls, self_s, _, _) in \
            pstats.Stats(profile).stats.items():
        layer = "builtins"
        if os.path.isabs(filename):
            rel = os.path.relpath(os.path.realpath(filename), package_root)
            head = rel.split(os.sep, 1)[0]
            if head in PACKAGES:
                layer = head
        layers[layer][0] += self_s
        layers[layer][1] += calls
    return layers


def run_repeat(workload: str, seed: int, profile: bool = False,
               no_telemetry: bool = False, max_events: int = MAX_EVENTS,
               only: Optional[Sequence[str]] = None) -> dict:
    """Simulate every selected cell of ``workload`` once, in order.

    ``no_telemetry`` turns the telemetry workload's tracing off (the
    reference its passivity is checked against).
    """
    import repro.obs  # noqa: F401  (import cost stays outside the loop)
    import repro.system  # noqa: F401
    import repro.workloads  # noqa: F401
    bench = WORKLOADS[workload]
    telemetry = bench.telemetry and not no_telemetry
    figure = None
    if bench.figure is not None and seed == 0:
        with open(ROOT / "results" / bench.figure) as handle:
            figure = json.load(handle)
    out_dir = None
    if telemetry:
        OUT.mkdir(exist_ok=True)
        out_dir = Path(tempfile.mkdtemp(prefix="exports-", dir=OUT))
    spans = Spans()
    profiler = cProfile.Profile() if profile else None
    outcomes, totals = [], {}
    rounds: List[float] = []

    def calibrate_between_cells() -> None:
        # a profiled repeat is not normalized, and its profile must not
        # count the calibration
        if profiler is None:
            with spans.span("calibrate"):
                rounds.append(calibrate())

    try:
        gc.collect()
        if profiler is not None:
            profiler.enable()
        with spans.span(workload):
            for cell in select_cells(workload, only):
                calibrate_between_cells()
                outcome, counts = run_cell(spans, bench, cell, seed,
                                           max_events, telemetry, figure,
                                           out_dir)
                outcomes.append(outcome)
                for name, value in counts.items():
                    totals[name] = totals.get(name, 0) + value
            calibrate_between_cells()
        if profiler is not None:
            profiler.disable()
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    root = spans.records[0]
    phases = spans.totals()
    return {
        "workload": workload,
        "wall_s": root[4] - root[3] - phases["calibrate"],
        "phases": phases,
        # host slowdown against CALIBRATION_REF_S over this repeat;
        # None when profiled
        "slowdown": (statistics.fmean(rounds) / CALIBRATION_REF_S
                     if rounds else None),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cells": outcomes,
        "counts": totals,
        "spans": spans.records,
        "profile": _profile_layers(profiler) if profiler else None,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--no-telemetry", action="store_true")
    parser.add_argument("--max-events", type=int, default=MAX_EVENTS)
    parser.add_argument("--cells", default="")
    args = parser.parse_args(argv)
    only = [cell for cell in args.cells.split(",") if cell]
    print(json.dumps(run_repeat(args.workload, args.seed, args.profile,
                                args.no_telemetry, args.max_events,
                                only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
