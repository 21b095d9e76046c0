"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — available workloads and configurations;
* ``run`` — run one workload on one (or every) configuration, with
  optional memory validation and runtime invariant auditing;
* ``save`` / ``replay`` — serialize a workload's traces, and run a
  saved file exactly as ``run`` runs a generated workload;
* ``figure2`` / ``figure3`` — regenerate the paper's figures;
* ``headline`` — the paper's Sbest-vs-Hbest summary numbers;
* ``sweep`` — run a (workload x configuration) grid across worker
  processes with an on-disk result cache;
* ``verify`` — litmus-driven schedule exploration: enumerate message
  interleavings of the verification corpus across configurations,
  shrink failing schedules into replayable repros, run the mutant
  kill matrix, and report FSM transition coverage (see VERIFY.md).

``figure2``/``figure3``/``headline`` are sweeps too: they accept
``--jobs`` and reuse the same cache, so regenerating a figure after a
partial change only re-simulates the affected cells.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Callable, List, Optional

from .analysis import (InvariantChecker, InvariantViolation, ResultCache,
                       format_figure, format_traffic_stack, grid_specs,
                       run_sweep, summarize_headline)
from .analysis.sweep import WORKLOAD_REGISTRY
from .core.policy import POLICY_NAMES
from .core.shard import INTERLEAVINGS
from .faults import format_diagnostic
from .network.topology import TOPOLOGIES
from .obs import (chrome_section, format_health, format_timeline,
                  load_chrome_trace, validate_chrome_trace,
                  write_chrome_trace, write_health_json, write_prometheus)
from .sim.engine import SimulationError
from .system import (CONFIG_ORDER, CONFIGS, FaultConfig, TraceConfig,
                     WatchdogConfig, build_system, parse_link_down,
                     scaled_config)
from .system.config import MONITOR_INTERVAL, REORDER_WINDOW
from .verify import (CORPUS, CoverageRecorder, DfsExplorer,
                     RandomWalkExplorer, coverage_report, format_coverage,
                     replay_schedule, scenario_by_name, shrink_failure)
from .verify.explorer import FAILURE_KINDS
from .verify.mutants import MUTANTS, kill_matrix
from .workloads import (APPLICATIONS, MICROBENCHMARKS, Workload,
                        load_workload, save_workload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spandex (ISCA 2018) heterogeneous-coherence "
                    "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and configurations")

    run = sub.add_parser("run", help="run one workload")
    run.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
    _add_scale_options(run, cpus=2)
    _add_run_options(run)

    for figure, workloads in (("figure2", MICROBENCHMARKS),
                              ("figure3", APPLICATIONS)):
        fig = sub.add_parser(figure,
                             help=f"regenerate the paper's {figure}")
        _add_scale_options(fig, cpus=4)
        _add_fabric_options(fig)
        _add_sweep_options(fig)

    head = sub.add_parser("headline",
                          help="Sbest-vs-Hbest summary (paper abstract)")
    _add_scale_options(head, cpus=4)
    _add_fabric_options(head)
    _add_sweep_options(head)

    sweep = sub.add_parser(
        "sweep",
        help="run a (workload x config) grid in parallel with caching")
    sweep.add_argument("workloads", nargs="*",
                       help="workload names (default: every workload)")
    sweep.add_argument("--configs", default="all",
                       help="comma-separated configuration names "
                            "(default: all six)")
    _add_scale_options(sweep, cpus=4)
    _add_fabric_options(sweep)
    sweep.add_argument("--fault-seed", type=int, dest="faults.seed",
                       default=argparse.SUPPRESS, metavar="SEED",
                       help="fault-injection seed for the unreliable-"
                            "fabric axes below (default: "
                            f"{FaultConfig.seed})")
    _add_fault_options(sweep)
    sweep.add_argument("--json", action="store_true",
                       help="emit the full sweep summary as JSON")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="delete every cached cell and exit")
    sweep.add_argument("--no-check", action="store_true",
                       help="skip final-memory validation against the "
                            "DRF reference executor")
    sweep.add_argument("--trace-artifacts", default=None, metavar="DIR",
                       help="persist a Chrome trace, health-metrics "
                            "and span snapshot, and Prometheus "
                            "exposition per simulated cell into DIR")
    _add_sweep_options(sweep)

    trace = sub.add_parser(
        "trace", help="inspect / validate a recorded Chrome trace file")
    trace.add_argument("path")
    trace.add_argument("--validate", action="store_true",
                       help="exit non-zero if the file fails the "
                            "structural checks")

    save = sub.add_parser("save", help="serialize a workload's traces")
    save.add_argument("workload", choices=sorted(WORKLOAD_REGISTRY))
    save.add_argument("path")
    _add_scale_options(save, cpus=2)

    replay = sub.add_parser(
        "replay", help="run serialized traces like 'run' (the system is "
                       "sized from the traces)")
    replay.add_argument("path")
    _add_run_options(replay)

    verify = sub.add_parser(
        "verify",
        help="explore litmus-scenario schedules (see VERIFY.md)")
    verify.add_argument("--scenarios", default="all",
                        help="comma-separated litmus scenario names "
                             "(default: the whole corpus)")
    verify.add_argument("--configs", default="all",
                        help="comma-separated configuration names "
                             "(default: all six)")
    verify.add_argument("--mode", choices=("dfs", "walk"), default="dfs",
                        help="bounded DFS enumeration or seeded random "
                             "walks (default: dfs)")
    verify.add_argument("--max-schedules", type=int, default=96,
                        metavar="N",
                        help="DFS schedule budget per (scenario, "
                             "config) cell (default: 96)")
    verify.add_argument("--seeds", type=int, default=16, metavar="N",
                        help="random-walk schedules per cell "
                             "(default: 16)")
    verify.add_argument("--keep-going", action="store_true",
                        help="explore every cell even after a failure "
                             "(default: stop at the first)")
    verify.add_argument("--coverage", action="store_true",
                        help="accumulate and print the FSM (state, "
                             "event) transition-coverage report")
    verify.add_argument("--mutants", action="store_true",
                        help="run the mutant kill matrix instead of "
                             "the baseline sweep (uses each mutant's "
                             "hinted scenarios; ignores --scenarios/"
                             "--configs)")
    verify.add_argument("--list", action="store_true",
                        dest="list_scenarios",
                        help="list the litmus corpus and exit")
    verify.add_argument("--repro-out", default=None, metavar="FILE",
                        help="on failure, write a shrunk replayable "
                             "repro JSON here")
    verify.add_argument("--replay", default=None, metavar="FILE",
                        help="replay a repro JSON written by "
                             "--repro-out instead of exploring")
    verify.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome/Perfetto trace of the "
                             "failing (or replayed) schedule")
    return parser


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """Everything ``run`` and ``replay`` share: configuration, checks,
    fault injection, tracing, telemetry and the fabric axes."""
    parser.add_argument("--config", default="SDD",
                        choices=list(CONFIG_ORDER) + ["all"])
    parser.add_argument("--check", action="store_true",
                        help="validate final memory against the DRF "
                             "reference executor")
    parser.add_argument("--invariants", action="store_true",
                        help="audit coherence invariants during the run")
    parser.add_argument("--traffic", action="store_true",
                        help="print the per-class traffic breakdown")
    parser.add_argument("--faults", type=int, default=None, metavar="SEED",
                        help="enable deterministic fault injection "
                             "(delay jitter, burst congestion, forced "
                             "Nacks) with this seed")
    _add_fault_options(parser)
    parser.add_argument("--watchdog-cycles", type=int, default=None,
                        metavar="N",
                        help="flag any request stalled beyond N cycles "
                             "with a structured diagnostic dump "
                             f"(default: {WatchdogConfig.stall_cycles})")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="hard simulated-cycle budget (raises instead "
                             "of looping forever)")
    parser.add_argument("--trace", action="store_true",
                        help="record a protocol trace and print the "
                             "per-request span attribution and "
                             "indirection cycles")
    parser.add_argument("--trace-filter", action="append", default=[],
                        metavar="SPEC",
                        help="restrict trace retention: addr=0x…, "
                             "dev=name, class=kind; repeatable, '/' "
                             "separates clauses (implies --trace)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome/Perfetto trace-event JSON "
                             "file; with --config all, one process per "
                             "configuration (implies --trace)")
    parser.add_argument("--timeline", type=lambda v: int(v, 0),
                        default=None, metavar="ADDR",
                        help="print the per-address event timeline for "
                             "this address (implies --trace)")
    parser.add_argument("--trace-limit", type=int, default=60,
                        help="max rows in the --timeline print "
                             "(default: 60)")
    parser.add_argument("--monitor", action="store_true",
                        help="scrape live health metrics (queue depths, "
                             "MSHR occupancy, link backlogs, transport "
                             "state) and collect per-request critical-"
                             "path spans; implies --trace (default "
                             f"scrape interval: {MONITOR_INTERVAL} cycles)")
    parser.add_argument("--monitor-interval", type=int, default=0,
                        metavar="CYCLES",
                        help="health-monitor scrape period in cycles; "
                             "each scrape's counter snapshot becomes the "
                             "--trace-out counter tracks (implies "
                             "--monitor)")
    parser.add_argument("--prom-out", default=None, metavar="FILE",
                        help="write Prometheus text-exposition metrics "
                             "(registry gauges + raw counters) here; "
                             "with --config all, one file per "
                             "configuration suffixed .<config> "
                             "(implies --monitor)")
    parser.add_argument("--health-json", default=None, metavar="FILE",
                        help="write the JSON health snapshot (metrics "
                             "registry, scrape rows, critical-path "
                             "rollups) here; suffixed like --prom-out "
                             "(implies --monitor)")
    parser.add_argument("--top", type=int, default=0, metavar="K",
                        help="rows in top-K health rollups (contended "
                             "lines / shards / links; default: "
                             f"{TraceConfig.health_top_k})")
    parser.add_argument("--top-every", type=int, default=0,
                        metavar="SCRAPES",
                        help="print the live 'repro top' health view "
                             "every N scrapes during the run (implies "
                             "--monitor)")
    _add_fabric_options(parser)


def _add_scale_options(parser: argparse.ArgumentParser,
                       cpus: int) -> None:
    """Workload scale: CPU cores, GPU CUs and warps per CU."""
    parser.add_argument("--cpus", type=int, default=cpus)
    parser.add_argument("--gpus", type=int, default=4)
    parser.add_argument("--warps", type=int, default=2)


def _add_fabric_options(parser: argparse.ArgumentParser) -> None:
    """Shard-count / fabric-topology axes (run, sweep, figures); each
    flag's ``dest`` names the SystemConfig field it sets (see
    :func:`_config_overrides`)."""
    flag = functools.partial(parser.add_argument,
                             default=argparse.SUPPRESS)
    flag("--shards", type=int, dest="config.llc_shards", metavar="N",
         help="address-interleaved Spandex home shards (1 = the single "
              "historical LLC; hierarchical configs ignore this)")
    flag("--interleave", choices=INTERLEAVINGS,
         dest="config.shard_interleave",
         help="line->shard mapping: modulo striping or a multiplicative "
              "hash")
    flag("--topology", choices=TOPOLOGIES, dest="config.topology",
         help="fabric shape: historical point-to-point star, 2D mesh, "
              "central switch, or multi-socket with asymmetric cross-"
              "socket links")
    flag("--sockets", type=int, dest="config.num_sockets", metavar="N",
         help="socket count for --topology multi_socket")
    flag("--policy", choices=POLICY_NAMES, dest="config.request_policy",
         help="per-access request-type policy at the Spandex TUs: the "
              "paper's fixed Table II mapping, the criticality-weighted "
              "heuristic, or the table-driven adaptive policy (both may "
              "convert stores to forwarding write-throughs)")
    flag("--owner-pred", action="store_true", dest="config.owner_pred",
         help="arm the TU owner-prediction table: loads go directly to "
              "the predicted owner, with Nack fallback to the home "
              "(needs a non-fixed --policy)")


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    """Unreliable-fabric axes: message loss, duplication, reordering
    and scheduled link outages (all consume the reliable-delivery
    sublayer; see ROBUSTNESS.md).  Each flag's ``dest`` names the
    FaultConfig field it sets."""
    flag = functools.partial(parser.add_argument,
                             default=argparse.SUPPRESS)
    flag("--loss", type=float, dest="faults.drop_prob", metavar="P",
         help="per-message drop probability in [0,1); lost messages are "
              "recovered by the reliable-transport sublayer")
    flag("--dup", type=float, dest="faults.dup_prob", metavar="P",
         help="per-message duplication probability; duplicates are "
              "suppressed receiver-side")
    flag("--reorder-prob", type=float, dest="faults.reorder_prob",
         metavar="P",
         help="probability a message is skewed past later traffic on "
              "the same link")
    flag("--reorder-window", type=int, dest="faults.reorder_window",
         metavar="N",
         help="max extra cycles a reordered message is skewed by "
              f"(default: {REORDER_WINDOW} when --reorder-prob is set)")
    flag("--link-down", action="append", type=parse_link_down,
         dest="faults.link_down", metavar="SPEC",
         help="scheduled link outage START:LENGTH[:SRC[:DST]] (glob "
              "endpoint patterns; repeatable)")


def _config_overrides(args) -> dict:
    """SystemConfig overrides from the fabric and fault flags.

    A flag whose ``dest`` is ``config.<field>`` sets that SystemConfig
    field, and ``faults.<field>`` that FaultConfig field.  Unset flags
    are absent from ``args``, so the dataclass defaults are the only
    defaults.  The FaultConfig starts from ``run --faults SEED``'s
    stress profile (else the fault-free default) and is attached only
    when some fault fires.  Raises ValueError on any value the config
    classes reject.
    """
    fields = {"config": {}, "faults": {}}
    for dest, value in vars(args).items():
        target, dot, name = dest.partition(".")
        if dot:
            fields[target][name] = (tuple(value) if isinstance(value, list)
                                    else value)
    overrides, faults = fields["config"], fields["faults"]
    if faults.get("reorder_prob", 0) > 0 \
            and faults.get("reorder_window", 0) <= 0:
        faults["reorder_window"] = REORDER_WINDOW
    seed = getattr(args, "faults", None)
    base = FaultConfig.stress(seed) if seed is not None else FaultConfig()
    fault_config = dataclasses.replace(base, **faults)
    if fault_config.active:
        overrides["faults"] = fault_config
    for name in CONFIG_ORDER:       # SystemConfig validates on creation
        scaled_config(name, args.cpus, args.gpus, **overrides)
    return overrides


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent cells "
                             "(default: 1, serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk "
                             "result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache location (default: "
                             "$REPRO_SWEEP_CACHE or "
                             "~/.cache/repro/sweep)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget per grid cell; cells "
                             "over budget are killed, re-run, and "
                             "finally reported as annotated gaps")
    parser.add_argument("--cell-retries", type=int, default=1,
                        help="re-runs granted to a crashed or "
                             "timed-out cell (default: 1)")


def _sweep_cache(args) -> Optional[ResultCache]:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _cmd_list() -> int:
    print("workloads:")
    for name, generator in sorted(WORKLOAD_REGISTRY.items()):
        doc = (generator.__doc__ or "").strip().splitlines()
        print(f"  {name:<14} {doc[0] if doc else ''}")
    print("\nconfigurations (Table V):")
    for name in CONFIG_ORDER:
        print(f"  {CONFIGS[name].describe()}")
    return 0


def _cmd_run(args, overrides: dict,
             make_workload: Callable[[], Workload]) -> int:
    """Run ``make_workload()`` on ``--config`` (or every configuration).

    Each configuration gets its own Workload: generators and trace
    files are deterministic, and sharing one object would let a run
    observe state left behind by the previous configuration's system.
    """
    monitor_interval = max(0, args.monitor_interval)
    if monitor_interval == 0 and (args.monitor or args.prom_out
                                  or args.health_json
                                  or args.top_every > 0):
        monitor_interval = MONITOR_INTERVAL
    tracing = (args.trace or bool(args.trace_filter) or args.trace_out
               or args.timeline is not None or monitor_interval > 0)

    extras = {}
    if args.watchdog_cycles is not None:
        extras["watchdog"] = WatchdogConfig(
            stall_cycles=args.watchdog_cycles)
    if tracing:
        top_k = {"health_top_k": args.top} if args.top > 0 else {}
        extras["trace"] = TraceConfig(filters=tuple(args.trace_filter),
                                      monitor_interval=monitor_interval,
                                      **top_k)
    configs = [scaled_config(name, args.cpus, args.gpus, **overrides,
                             **extras)
               for name in (CONFIG_ORDER if args.config == "all"
                            else [args.config])]
    faults = overrides.get("faults")

    workload = make_workload()
    reference = workload.reference() if args.check else None
    print(f"{workload.name}: {workload.total_ops():,} operations "
          f"({args.cpus} CPUs, {args.gpus} CUs x {args.warps} warps)")
    if args.faults is not None:
        print(f"fault injection enabled (seed {args.faults})")
    if faults is not None and faults.unreliable:
        print(f"unreliable fabric: loss={faults.drop_prob} "
              f"dup={faults.dup_prob} reorder={faults.reorder_prob}"
              f"/{faults.reorder_window} "
              f"link_down={len(faults.link_down)} window(s) "
              f"(reliable transport armed)")
    failures = 0
    trace_sections = []
    for config in configs:
        config_name = config.name
        system = build_system(config)
        system.load_workload(make_workload())
        checker: Optional[InvariantChecker] = None
        if args.invariants:
            checker = InvariantChecker(system)
        if system.monitor is not None and args.top_every > 0:
            def live_view(row, monitor=system.monitor,
                          every=args.top_every):
                if monitor.scrapes % every == 0:
                    print(format_health(monitor))
            system.monitor.on_sample.append(live_view)
        if checker is not None:
            checker.arm()
        try:
            cycles = system.run(max_events=200_000_000,
                                max_cycles=args.max_cycles).cycles
            if checker is not None:
                checker.audit(final=True)
        except (SimulationError, InvariantViolation) as exc:
            # DeadlockError and budget exhaustion included: report and
            # dump rather than tracebacking out of the CLI
            print(f"  {config_name}: FAILED — {exc}", file=sys.stderr)
            diagnostic = getattr(exc, "diagnostic", None)
            if diagnostic:
                print(format_diagnostic(diagnostic), file=sys.stderr)
            return 3
        bad = 0
        if reference is not None:
            bad = system.count_mismatches(reference.memory)
            failures += bad
        line = (f"  {config_name}: {cycles:>10,} cycles  "
                f"{system.stats.get('network.bytes'):>12,.0f} B")
        if reference is not None:
            line += f"  memory: {'OK' if bad == 0 else f'{bad} BAD'}"
        if checker is not None:
            line += f"  invariants: OK ({checker.audits} audits)"
        if config.request_policy != "fixed" or config.owner_pred:
            line += (f"  policy[{config.request_policy}]: "
                     f"{system.stats.get('tu.fwd_direct'):.0f} "
                     f"wtfwd_conversions, "
                     f"{system.stats.home_total('wtfwd_pushes'):.0f} "
                     f"pushes, "
                     f"pred {system.stats.get('tu.pred_hit'):.0f} hit / "
                     f"{system.stats.get('tu.pred_miss'):.0f} miss")
        if args.faults is not None:
            delayed = (system.stats.get("faults.jitter_delayed")
                       + system.stats.get("faults.burst_delayed"))
            line += (f"  faults: {delayed:.0f} delayed, "
                     f"{system.stats.home_total('forced_nacks'):.0f} "
                     f"Nacked,"
                     f" {system.stats.get('tu.nack_retries'):.0f} retried")
        if faults is not None and faults.unreliable:
            dropped = (system.stats.get("faults.dropped")
                       + system.stats.get("faults.link_down_dropped")
                       + system.stats.get("faults.partition_dropped"))
            line += (f"  fabric: {dropped:.0f} dropped, "
                     f"{system.stats.get('faults.duplicated'):.0f} duped,"
                     f" {system.stats.get('transport.retransmits'):.0f} "
                     f"retx, "
                     f"{system.stats.get('transport.dup_dropped'):.0f} "
                     f"deduped")
        print(line)
        if args.traffic:
            for cls, nbytes in sorted(
                    system.stats.group("traffic.bytes").items()):
                print(f"      {cls:<12} {nbytes:>12,.0f} B")
        if system.tracer is not None:
            print(f"      trace: {system.tracer.kept:,} events kept "
                  f"of {system.tracer.seen:,} seen")
            if args.timeline is not None:
                print(format_timeline(system.tracer.events(),
                                      line=args.timeline,
                                      limit=args.trace_limit))
            if system.monitor is not None:
                print(format_health(system.monitor))
            print(system.spans.format_report(
                f"{config_name} critical path"))
            if system.monitor is not None:
                suffix = f".{config_name}" if len(configs) > 1 else ""
                if args.prom_out:
                    path = args.prom_out + suffix
                    write_prometheus(path, system)
                    print(f"      prometheus metrics -> {path}")
                if args.health_json:
                    path = args.health_json + suffix
                    write_health_json(path, system, workload.name)
                    print(f"      health snapshot -> {path}")
            if args.trace_out:
                trace_sections.append(chrome_section(system, config_name))
    if args.trace_out and trace_sections:
        count = write_chrome_trace(args.trace_out, trace_sections)
        print(f"wrote {count:,} trace events "
              f"({len(trace_sections)} process(es)) -> {args.trace_out}")
    return 1 if failures else 0


def _run_grid(args, overrides: dict, workloads, configs=CONFIG_ORDER,
              **options) -> "SweepSummary":
    """Sweep the full (workload x config) grid, every cell carrying
    the fabric and fault flags as SystemConfig overrides.

    Sweeping the whole grid at once (rather than per workload) gives
    the pool ``len(workloads) * len(configs)`` independent cells, so
    ``--jobs`` scales past the six configurations.
    """
    specs = grid_specs(workloads, configs,
                       dict(num_cpus=args.cpus, num_gpus=args.gpus,
                            warps_per_cu=args.warps),
                       overrides=overrides)
    return run_sweep(specs, jobs=args.jobs, cache=_sweep_cache(args),
                     cell_timeout=args.cell_timeout,
                     cell_retries=args.cell_retries, **options)


def _cmd_figure(args, overrides: dict, workloads, title) -> int:
    summary = _run_grid(args, overrides, list(workloads))
    results = summary.workload_results()
    print(format_figure(results, title))
    for result in results:
        print()
        print(format_traffic_stack(result))
    print()
    print(summary.format_summary())
    return 0


def _cmd_headline(args, overrides: dict) -> int:
    sweep = _run_grid(args, overrides, list(APPLICATIONS))
    summary = summarize_headline(sweep.workload_results())
    print("Sbest vs Hbest across the applications:")
    print(f"  execution time:  -{summary['avg_time_reduction']:.0%} "
          f"(max -{summary['max_time_reduction']:.0%})   "
          "[paper: -16%, max -29%]")
    print(f"  network traffic: -{summary['avg_traffic_reduction']:.0%} "
          f"(max -{summary['max_traffic_reduction']:.0%})   "
          "[paper: -27%, max -58%]")
    print()
    print(sweep.format_summary())
    return 0


def _cmd_sweep(args, overrides: dict) -> int:
    if args.clear_cache:
        cache = ResultCache(args.cache_dir)
        removed = cache.clear()
        print(f"cleared {removed} cached cell(s) from {cache.root}")
        return 0
    names = args.workloads or sorted(WORKLOAD_REGISTRY)
    unknown = [name for name in names if name not in WORKLOAD_REGISTRY]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)} "
              f"(try: {', '.join(sorted(WORKLOAD_REGISTRY))})",
              file=sys.stderr)
        return 2
    configs = (list(CONFIG_ORDER) if args.configs == "all"
               else [c.strip() for c in args.configs.split(",")
                     if c.strip()])
    bad = [c for c in configs if c not in CONFIG_ORDER]
    if bad:
        print(f"unknown config(s): {', '.join(bad)} "
              f"(try: {', '.join(CONFIG_ORDER)})", file=sys.stderr)
        return 2
    summary = _run_grid(args, overrides, names, configs,
                        validate_memory=not args.no_check,
                        trace_dir=args.trace_artifacts)
    if args.json:
        json.dump(summary.to_json(), sys.stdout, indent=1,
                  sort_keys=True)
        print()
    else:
        print(summary.format_summary())
    for error in summary.errors:
        print(f"cell produced no result: {error.workload} on "
              f"{error.config} ({error.describe()})", file=sys.stderr)
    bad_cells = [cell for cell in summary.cells
                 if cell.memory_ok is False]
    for cell in bad_cells:
        print(f"memory validation FAILED: {cell.workload} on "
              f"{cell.config}", file=sys.stderr)
    return 1 if bad_cells else 0


def _cmd_trace(args) -> int:
    try:
        payload = load_chrome_trace(args.path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    problems = validate_chrome_trace(payload)
    events = payload.get("traceEvents", [])
    processes = {}
    kinds = {}
    ts_lo = ts_hi = None
    for event in events:
        if not isinstance(event, dict):
            continue
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                processes[event.get("pid")] = \
                    event.get("args", {}).get("name")
            continue
        cat = event.get("cat", event.get("ph"))
        kinds[cat] = kinds.get(cat, 0) + 1
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            ts_lo = ts if ts_lo is None else min(ts_lo, ts)
            ts_hi = ts if ts_hi is None else max(ts_hi, ts)
    print(f"{args.path}: {len(events):,} trace events, "
          f"{len(processes)} process(es)")
    for pid in sorted(processes):
        print(f"  pid {pid}: {processes[pid]}")
    if ts_lo is not None:
        print(f"  cycles {ts_lo:,.0f} .. {ts_hi:,.0f}")
    for cat in sorted(kinds):
        print(f"  {cat:<10} {kinds[cat]:>10,}")
    if problems:
        print(f"INVALID: {len(problems)} problem(s)", file=sys.stderr)
        for problem in problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        if args.validate:
            return 1
    elif args.validate:
        print("valid Chrome trace")
    return 0


def _verify_write_trace(scenario, config_name: str, choices: List[int],
                        path: str) -> None:
    """Replay one schedule with tracing on and dump a Chrome trace.

    The replay is expected to fail (that is the point); the system is
    captured via ``on_system`` so the trace survives the exception.
    """
    captured: List[object] = []
    try:
        replay_schedule(scenario, config_name, choices, trace=True,
                        on_system=captured.append)
    except FAILURE_KINDS:
        pass
    if not captured or captured[0].tracer is None:
        return
    section = {"name": f"{scenario.name}@{config_name}",
               "events": list(captured[0].tracer.events())}
    count = write_chrome_trace(path, [section])
    print(f"wrote {count:,} trace events -> {path}")


def _verify_report_failure(args, failure) -> int:
    """Shrink a failing schedule, emit artifacts, return exit code 3."""
    scenario = scenario_by_name(failure.scenario)
    print(f"FAILED: {failure.scenario} on {failure.config} "
          f"[{failure.kind}] {failure.message}", file=sys.stderr)
    shrunk = shrink_failure(scenario, failure.config, failure.choices)
    print(f"  schedule: {failure.choices} -> shrunk {shrunk}",
          file=sys.stderr)
    if failure.diagnostic:
        print(format_diagnostic(failure.diagnostic), file=sys.stderr)
    if args.repro_out:
        payload = failure.to_dict()
        payload["choices"] = list(shrunk)
        payload["shrunk_from"] = list(failure.choices)
        with open(args.repro_out, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"repro written -> {args.repro_out}  (replay with: "
              f"repro verify --replay {args.repro_out})")
    if args.trace_out:
        _verify_write_trace(scenario, failure.config, shrunk,
                            args.trace_out)
    return 3


def _cmd_verify_replay(args) -> int:
    try:
        with open(args.replay) as handle:
            payload = json.load(handle)
        scenario = scenario_by_name(payload["scenario"])
        config_name = payload["config"]
        choices = list(payload["choices"])
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"cannot load repro {args.replay}: {exc}", file=sys.stderr)
        return 2
    print(f"replaying {scenario.name} on {config_name}: "
          f"choices {choices}")
    try:
        replay_schedule(scenario, config_name, choices)
    except FAILURE_KINDS as exc:
        print(f"reproduced: [{type(exc).__name__}] {exc}",
              file=sys.stderr)
        diagnostic = getattr(exc, "diagnostic", None)
        if diagnostic:
            print(format_diagnostic(diagnostic), file=sys.stderr)
        if args.trace_out:
            _verify_write_trace(scenario, config_name, choices,
                                args.trace_out)
        return 3
    if args.trace_out:
        _verify_write_trace(scenario, config_name, choices,
                            args.trace_out)
    print("replay PASSED — the failure no longer reproduces")
    return 0


def _cmd_verify_mutants(args) -> int:
    def make_explorer():
        if args.mode == "walk":
            return RandomWalkExplorer(range(args.seeds))
        return DfsExplorer(max_schedules=args.max_schedules)

    def explore(scenario_name: str, config_name: str) -> bool:
        result = make_explorer().explore(scenario_by_name(scenario_name),
                                         config_name)
        return not result.ok

    kills = kill_matrix(explore)
    survivors = []
    for mutant in MUTANTS:
        found = kills[mutant.name]
        if found:
            scenario_name, config_name = found[0]
            print(f"  {mutant.name:<26} KILLED by {scenario_name} "
                  f"on {config_name}")
        else:
            survivors.append(mutant.name)
            print(f"  {mutant.name:<26} SURVIVED", file=sys.stderr)
    print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants "
          "killed")
    return 1 if survivors else 0


def _cmd_verify(args) -> int:
    if args.list_scenarios:
        print(f"litmus corpus ({len(CORPUS)} scenarios):")
        for scenario in CORPUS:
            races = f"  [{', '.join(scenario.races)}]" \
                if scenario.races else ""
            print(f"  {scenario.name:<24}{races}")
        return 0
    if args.replay:
        return _cmd_verify_replay(args)
    if args.mutants:
        return _cmd_verify_mutants(args)

    configs = (list(CONFIG_ORDER) if args.configs == "all"
               else [c.strip() for c in args.configs.split(",")
                     if c.strip()])
    bad = [c for c in configs if c not in CONFIG_ORDER]
    if bad:
        print(f"unknown config(s): {', '.join(bad)} "
              f"(try: {', '.join(CONFIG_ORDER)})", file=sys.stderr)
        return 2
    if args.scenarios == "all":
        scenarios = list(CORPUS)
    else:
        names = [s.strip() for s in args.scenarios.split(",")
                 if s.strip()]
        try:
            scenarios = [scenario_by_name(name) for name in names]
        except KeyError as exc:
            print(f"{exc.args[0]} (try: repro verify --list)",
                  file=sys.stderr)
            return 2

    recorder = CoverageRecorder() if args.coverage else None

    def make_explorer():
        if args.mode == "walk":
            return RandomWalkExplorer(range(args.seeds),
                                      stop_on_failure=not args.keep_going)
        return DfsExplorer(max_schedules=args.max_schedules,
                           stop_on_failure=not args.keep_going)

    schedules = deliveries = 0
    failures = []
    for scenario in scenarios:
        for config_name in configs:
            result = make_explorer().explore(scenario, config_name,
                                             coverage=recorder)
            schedules += result.schedules
            deliveries += result.deliveries
            if not result.ok:
                failures.extend(result.failures)
                if not args.keep_going:
                    return _verify_report_failure(args, failures[0])
    print(f"explored {schedules:,} schedules "
          f"({deliveries:,} deliveries) over {len(scenarios)} "
          f"scenario(s) x {len(configs)} configuration(s): "
          f"{len(failures)} violation(s)")
    if recorder is not None:
        print(format_coverage(coverage_report(recorder)))
    if failures:
        for failure in failures[1:]:
            print(f"also FAILED: {failure.scenario} on "
                  f"{failure.config} [{failure.kind}]", file=sys.stderr)
        return _verify_report_failure(args, failures[0])
    return 0


#: commands whose fabric / fault flags become SystemConfig overrides
_SYSTEM_COMMANDS = ("run", "replay", "figure2", "figure3", "headline",
                    "sweep")


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "replay":
        # the system is sized from the saved traces
        saved = load_workload(args.path)
        args.cpus, args.gpus = len(saved.cpu_traces), len(saved.gpu_traces)
        args.warps = max(map(len, saved.gpu_traces), default=0)
    if args.command in _SYSTEM_COMMANDS:
        try:
            overrides = _config_overrides(args)
        except ValueError as exc:
            print(f"bad option: {exc}", file=sys.stderr)
            return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command in ("run", "save"):
        generate = functools.partial(
            WORKLOAD_REGISTRY[args.workload], num_cpus=args.cpus,
            num_gpus=args.gpus, warps_per_cu=args.warps)
    if args.command == "run":
        return _cmd_run(args, overrides, generate)
    if args.command == "replay":
        return _cmd_run(args, overrides,
                        functools.partial(load_workload, args.path))
    if args.command == "figure2":
        return _cmd_figure(args, overrides, MICROBENCHMARKS,
                           "Figure 2: microbenchmarks")
    if args.command == "figure3":
        return _cmd_figure(args, overrides, APPLICATIONS,
                           "Figure 3: applications")
    if args.command == "headline":
        return _cmd_headline(args, overrides)
    if args.command == "sweep":
        return _cmd_sweep(args, overrides)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "save":
        workload = generate()
        save_workload(workload, args.path)
        print(f"saved {workload.name}: {workload.total_ops():,} ops, "
              f"{len(workload.cpu_traces)} CPU traces, "
              f"{len(workload.gpu_traces)} CUs -> {args.path}")
        return 0
    return 2


if __name__ == "__main__":      # pragma: no cover
    sys.exit(main())
