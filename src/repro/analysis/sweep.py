"""Parallel, cached experiment sweeps.

Every paper artifact (Figures 2-3, the Sbest-vs-Hbest headline) is a
grid of independent (workload, configuration) simulations.  This module
fans those cells out across CPU cores with a process pool and memoizes
finished cells in an on-disk JSON cache, so regenerating a figure after
touching one workload only re-simulates the changed column.

Two constraints shape the design:

* ``Op.spin_until`` holds lambdas, so :class:`Workload` objects are not
  picklable.  Workers therefore receive a :class:`CellSpec` — workload
  *name*, generator kwargs, configuration name and ``SystemConfig``
  overrides — and regenerate the trace locally.  Generators are
  deterministic (seeded ``random.Random`` plus a fixed-base
  :class:`AddressSpace`), so a regenerated workload is op-for-op
  identical, and every cell runs on a fresh trace instead of a shared
  mutable object.
* :class:`~repro.sim.stats.StatsRegistry` is not picklable either (its
  grouped counters are a lambda-backed defaultdict), so workers return
  plain ``snapshot()`` dicts and the parent rebuilds registries with
  ``StatsRegistry.from_snapshot`` before folding them together.

Cache entries are keyed by a content hash of (workload name, generator
kwargs, the full scaled configuration parameters, run options, and a
fingerprint of the simulator's own source), so any code change
invalidates the whole cache rather than serving stale results.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import tempfile
import time
import warnings
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from ..sim.stats import StatsRegistry
from ..system.config import MONITOR_INTERVAL, TraceConfig, scaled_config
from ..workloads import APPLICATIONS, MICROBENCHMARKS
from .report import ConfigResult, WorkloadResult

#: every generator reachable by name from a worker process
WORKLOAD_REGISTRY: Dict[str, Callable] = {**MICROBENCHMARKS, **APPLICATIONS}

#: sweep cache location override (also the ``--cache-dir`` CLI flag)
CACHE_ENV_VAR = "REPRO_SWEEP_CACHE"

DEFAULT_MAX_EVENTS = 60_000_000


class SweepError(RuntimeError):
    """A sweep cell could not be described or executed."""


# ---------------------------------------------------------------------------
# cell specification
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CellSpec:
    """One (workload, configuration) grid cell, in picklable form.

    ``kwargs`` (the workload generator's arguments) and ``overrides``
    (``SystemConfig`` field -> value, e.g. ``llc_shards`` or a frozen
    ``FaultConfig`` under ``faults``) are sorted tuples of (name,
    value) pairs so the spec is hashable and canonical.  Overrides
    reach the cache key through ``system_config()``.  ``generator_ref`` (a ``module:qualname``
    string) lets non-registry generators ride through the pool;
    registry workloads resolve by name alone.
    """

    workload: str
    config: str
    kwargs: Tuple[Tuple[str, object], ...] = ()
    generator_ref: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, workload: str, config: str,
             kwargs: Optional[Mapping[str, object]] = None,
             generator: Optional[Callable] = None,
             overrides: Optional[Mapping[str, object]] = None
             ) -> "CellSpec":
        ref = None
        if generator is not None and \
                WORKLOAD_REGISTRY.get(workload) is not generator:
            ref = f"{generator.__module__}:{generator.__qualname__}"
        return cls(workload=workload, config=config,
                   kwargs=tuple(sorted((kwargs or {}).items())),
                   generator_ref=ref,
                   overrides=tuple(sorted((overrides or {}).items())))

    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)

    def resolve_generator(self) -> Callable:
        if self.generator_ref is not None:
            module_name, _, qualname = self.generator_ref.partition(":")
            obj = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            return obj
        try:
            return WORKLOAD_REGISTRY[self.workload]
        except KeyError:
            raise SweepError(
                f"unknown workload {self.workload!r} and no "
                "generator_ref to import") from None

    def system_config(self):
        kwargs = self.kwargs_dict()
        return scaled_config(self.config,
                             int(kwargs.get("num_cpus", 4)),
                             int(kwargs.get("num_gpus", 4)),
                             **dict(self.overrides))


def grid_specs(workloads: Iterable[str], configs: Iterable[str],
               kwargs: Optional[Mapping[str, object]] = None,
               overrides: Optional[Mapping[str, object]] = None
               ) -> List[CellSpec]:
    """The full cross product, workload-major (figure order)."""
    return [CellSpec.make(w, c, kwargs, overrides=overrides)
            for w in workloads for c in configs]


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------
_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package.

    Baked into cache keys so editing the simulator (or a workload
    generator) invalidates previous results instead of serving them.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for source in sorted(package_root.rglob("*.py")):
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(source.read_bytes())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def cell_key(spec: CellSpec, validate_memory: bool = True,
             max_events: int = DEFAULT_MAX_EVENTS) -> str:
    """Content hash identifying one cell's result."""
    payload = {
        "workload": spec.workload,
        "kwargs": spec.kwargs_dict(),
        "generator_ref": spec.generator_ref,
        "config": asdict(spec.system_config()),
        "validate_memory": bool(validate_memory),
        "max_events": int(max_events),
        "code": code_fingerprint(),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------
def simulate_cell(spec: CellSpec, validate_memory: bool = True,
                  max_events: int = DEFAULT_MAX_EVENTS,
                  trace_dir: Optional[str] = None) -> Dict[str, object]:
    """Regenerate the workload and simulate one cell.

    Top-level so process pools can pickle it by reference.  Returns a
    JSON-safe dict (the cache's on-disk format).

    ``trace_dir`` enables observability for the run and persists what
    ``repro run`` writes for the same cell: a Chrome trace with the
    monitor's counter tracks, a health-metrics snapshot (whose
    ``spans`` entry is the per-request attribution), and Prometheus
    exposition text (``<workload>-<config>-<key12>.trace.json`` /
    ``.metrics.json`` / ``.prom``).  Tracing and monitoring are
    passive, so the payload — and therefore the cache key — is
    identical with or without them; artifacts are only (re)written
    when the cell actually simulates.
    """
    started = time.perf_counter()
    workload = spec.resolve_generator()(**spec.kwargs_dict())
    reference = workload.reference() if validate_memory else None

    from ..system.builder import build_system
    config = spec.system_config()
    if trace_dir is not None:
        config = replace(
            config, trace=TraceConfig(monitor_interval=MONITOR_INTERVAL))
    system = build_system(config)
    system.load_workload(workload)
    run = system.run(max_events=max_events)

    payload: Dict[str, object] = {
        "workload": spec.workload,
        "config": spec.config,
        "cycles": run.cycles,
        "network_bytes": run.network_bytes,
        "traffic": run.traffic_by_class(),
        "stats": run.stats.snapshot(),
        "memory_ok": (None if reference is None
                      else system.count_mismatches(reference.memory) == 0),
        "wall_time": time.perf_counter() - started,
    }
    if trace_dir is not None:
        from ..obs import (chrome_section, write_chrome_trace,
                           write_health_json, write_prometheus)
        key12 = cell_key(spec, validate_memory, max_events)[:12]
        root = Path(trace_dir)
        root.mkdir(parents=True, exist_ok=True)
        stem = str(root / f"{spec.workload}-{spec.config}-{key12}")
        payload["trace_artifact"] = f"{stem}.trace.json"
        payload["metrics_artifact"] = f"{stem}.metrics.json"
        payload["prom_artifact"] = f"{stem}.prom"
        write_chrome_trace(payload["trace_artifact"], [chrome_section(
            system, f"{spec.workload}/{spec.config}")])
        write_health_json(payload["metrics_artifact"], system,
                          spec.workload)
        write_prometheus(payload["prom_artifact"], system)
    return payload


# ---------------------------------------------------------------------------
# the on-disk cache
# ---------------------------------------------------------------------------
def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "sweep"


#: keys every valid cached cell payload must carry
_REQUIRED_PAYLOAD_KEYS = ("workload", "config", "cycles",
                          "network_bytes", "traffic", "stats")


class ResultCache:
    """One JSON file per finished cell, named by its content hash.

    Unreadable or structurally invalid entries (truncated writes,
    manual edits, schema drift) are *quarantined* — renamed to
    ``<key>.json.corrupt`` — and treated as misses, so one bad file
    degrades a sweep to a re-simulation instead of crashing it.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        path = self._path(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError(f"payload is {type(payload).__name__}, "
                                 "expected object")
            for required in _REQUIRED_PAYLOAD_KEYS:
                if required not in payload:
                    raise KeyError(required)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError, KeyError,
                TypeError) as exc:
            self._quarantine(path, exc)
            return None
        except OSError:
            return None
        return payload

    def _quarantine(self, path: Path, exc: BaseException) -> None:
        corrupt = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, corrupt)
        except OSError:
            return
        warnings.warn(
            f"quarantined corrupt sweep cache entry {path.name} "
            f"({type(exc).__name__}: {exc}); treating as a miss",
            RuntimeWarning, stacklevel=3)

    def put(self, key: str, payload: Mapping[str, object]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete every cached cell (and quarantined entries);
        returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.json", "*.json.corrupt"):
                for path in self.root.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------
@dataclass
class CellResult:
    """One finished cell plus provenance (cache hit? wall time?)."""

    spec: CellSpec
    key: str
    payload: Dict[str, object]
    from_cache: bool = False

    @property
    def workload(self) -> str:
        return self.spec.workload

    @property
    def config(self) -> str:
        return self.spec.config

    @property
    def cycles(self) -> int:
        return int(self.payload["cycles"])

    @property
    def network_bytes(self) -> float:
        return float(self.payload["network_bytes"])

    @property
    def wall_time(self) -> float:
        return float(self.payload.get("wall_time", 0.0))

    @property
    def memory_ok(self) -> Optional[bool]:
        return self.payload.get("memory_ok")

    def stats(self) -> StatsRegistry:
        return StatsRegistry.from_snapshot(self.payload.get("stats", {}))

    def config_result(self) -> ConfigResult:
        counters = dict(self.payload.get("stats", {}).get("counters", {}))
        return ConfigResult(
            config=self.config, cycles=self.cycles,
            network_bytes=self.network_bytes,
            traffic=dict(self.payload.get("traffic", {})),
            counters=counters, memory_ok=self.memory_ok)


@dataclass
class CellError:
    """A cell that produced no result: crashed, timed out, or raised.

    ``kind`` is ``"timeout"`` (exceeded the per-cell wall-clock
    budget), ``"crash"`` (the worker process died without reporting —
    segfault, OOM kill), or ``"error"`` (a Python exception, including
    :class:`~repro.faults.DeadlockError`).  ``attempts`` counts every
    run of the cell including re-runs.
    """

    spec: CellSpec
    key: str
    kind: str
    message: str
    attempts: int = 1

    @property
    def workload(self) -> str:
        return self.spec.workload

    @property
    def config(self) -> str:
        return self.spec.config

    def describe(self) -> str:
        note = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        return f"{self.kind}{note}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {"workload": self.workload, "config": self.config,
                "kind": self.kind, "message": self.message,
                "attempts": self.attempts, "key": self.key}


@dataclass
class SweepSummary:
    """All cells of one sweep plus the observability counters.

    ``errors`` carries the cells that produced no result; a sweep with
    failures still returns every other cell (partial-grid semantics).
    """

    cells: List[CellResult] = field(default_factory=list)
    errors: List[CellError] = field(default_factory=list)
    jobs: int = 1
    wall_time: float = 0.0

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.from_cache)

    @property
    def simulated(self) -> int:
        return sum(1 for cell in self.cells if not cell.from_cache)

    @property
    def sim_time(self) -> float:
        """Summed per-cell simulation wall time (what a serial, uncached
        run would have cost); compare against ``wall_time`` for speedup."""
        return sum(cell.wall_time for cell in self.cells)

    def workload_results(self) -> List[WorkloadResult]:
        """Group cells into per-workload results, preserving cell order.

        Failed cells appear in each result's ``errors`` map; a workload
        whose every cell failed still yields a (result-less)
        :class:`WorkloadResult` so reports can annotate the gap.
        """
        grouped: Dict[str, Dict[str, ConfigResult]] = {}
        for cell in self.cells:
            grouped.setdefault(cell.workload, {})[cell.config] = \
                cell.config_result()
        failures: Dict[str, Dict[str, str]] = {}
        for error in self.errors:
            grouped.setdefault(error.workload, {})
            failures.setdefault(error.workload, {})[error.config] = \
                error.describe()
        return [WorkloadResult(name, results,
                               errors=failures.get(name, {}))
                for name, results in grouped.items()]

    def merged_stats(self) -> StatsRegistry:
        """Every cell's counters folded into one registry (per-cell
        counters stay available via ``CellResult.stats``)."""
        merged = StatsRegistry()
        for cell in self.cells:
            merged.merge(cell.stats())
        return merged

    def to_json(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "cells": len(self.cells),
            "cache_hits": self.cache_hits,
            "simulated": self.simulated,
            "errors": [error.to_json() for error in self.errors],
            "wall_time": self.wall_time,
            "sim_time": self.sim_time,
            "results": [
                {
                    "workload": cell.workload,
                    "config": cell.config,
                    "cycles": cell.cycles,
                    "network_bytes": cell.network_bytes,
                    "traffic": dict(cell.payload.get("traffic", {})),
                    "memory_ok": cell.memory_ok,
                    "wall_time": cell.wall_time,
                    "from_cache": cell.from_cache,
                    "key": cell.key,
                }
                for cell in self.cells
            ],
        }

    def format_summary(self) -> str:
        """Per-cell wall-time table plus the hit/miss and speedup roll-up."""
        lines = [f"== sweep: {len(self.cells)} cells, {self.jobs} job(s) ==",
                 f"{'workload':<14}{'config':<8}{'cycles':>12}"
                 f"{'bytes':>14}{'wall':>9}  source"]
        for cell in self.cells:
            source = "cache" if cell.from_cache else "simulated"
            lines.append(
                f"{cell.workload:<14}{cell.config:<8}{cell.cycles:>12,}"
                f"{cell.network_bytes:>14,.0f}"
                f"{cell.wall_time:>8.2f}s  {source}")
        for error in self.errors:
            lines.append(
                f"{error.workload:<14}{error.config:<8}"
                f"{'-- no result --':>26}  {error.describe()}")
        lines.append(
            f"cells: {len(self.cells)}  cache hits: {self.cache_hits}  "
            f"simulated: {self.simulated}  failed: {len(self.errors)}")
        line = (f"wall time: {self.wall_time:.2f}s "
                f"(summed cell time {self.sim_time:.2f}s")
        if self.wall_time > 0:
            line += f", {self.sim_time / self.wall_time:.1f}x speedup"
        lines.append(line + ")")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------
def _cell_worker(conn, spec: CellSpec, validate_memory: bool,
                 max_events: int, trace_dir: Optional[str]) -> None:
    """Process-per-cell entry point: simulate and ship the payload.

    Exceptions are reported over the pipe rather than raised, so the
    parent can degrade gracefully; a worker that dies without sending
    anything (segfault, OOM kill) is detected as EOF on the pipe.
    """
    try:
        payload = simulate_cell(spec, validate_memory, max_events,
                                trace_dir)
    except BaseException as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ok", payload))
    conn.close()


def _run_isolated(misses: List[Tuple[int, CellSpec, str]], jobs: int,
                  validate_memory: bool, max_events: int,
                  cell_timeout: Optional[float], cell_retries: int,
                  finish: Callable, fail: Callable,
                  trace_dir: Optional[str] = None) -> None:
    """Run cells in dedicated processes with timeouts and re-runs.

    Unlike a :class:`ProcessPoolExecutor`, one process per cell lets
    the parent ``terminate()`` a runaway simulation without poisoning
    a shared pool, and a crashed worker costs only its own cell.
    Crashed and timed-out cells are re-run up to ``cell_retries``
    times; Python-level exceptions are deterministic and are not.
    """
    ctx = multiprocessing.get_context()
    pending = deque((index, spec, key, 1) for index, spec, key in misses)
    running: Dict[object, Dict[str, object]] = {}   # conn -> record

    def launch(index: int, spec: CellSpec, key: str, attempt: int) -> None:
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_cell_worker,
                           args=(child, spec, validate_memory, max_events,
                                 trace_dir),
                           daemon=True)
        proc.start()
        child.close()
        running[parent] = {"index": index, "spec": spec, "key": key,
                           "attempt": attempt, "proc": proc,
                           "started": time.monotonic()}

    def reap(conn, record) -> None:
        del running[conn]
        record["proc"].join(timeout=5.0)
        conn.close()

    def retry_or_fail(record, kind: str, message: str) -> None:
        retryable = kind in ("crash", "timeout")
        if retryable and record["attempt"] <= cell_retries:
            pending.append((record["index"], record["spec"],
                            record["key"], record["attempt"] + 1))
            return
        fail(record["spec"], record["key"], kind, message,
             record["attempt"])

    while pending or running:
        while pending and len(running) < max(1, jobs):
            launch(*pending.popleft())
        timeout = None
        if cell_timeout is not None:
            deadline = min(record["started"] + cell_timeout
                           for record in running.values())
            timeout = max(0.0, deadline - time.monotonic())
        for conn in mp_connection.wait(list(running), timeout=timeout):
            record = running[conn]
            try:
                status, value = conn.recv()
            except (EOFError, OSError):
                reap(conn, record)
                retry_or_fail(
                    record, "crash",
                    "worker died without reporting "
                    f"(exit code {record['proc'].exitcode})")
                continue
            reap(conn, record)
            if status == "ok":
                finish(record["index"], record["spec"], record["key"],
                       value)
            else:
                retry_or_fail(record, "error", value)
        if cell_timeout is not None:
            now = time.monotonic()
            for conn, record in list(running.items()):
                if now - record["started"] > cell_timeout:
                    record["proc"].terminate()
                    reap(conn, record)
                    retry_or_fail(
                        record, "timeout",
                        f"exceeded {cell_timeout:.1f}s wall-clock budget")


def run_sweep(specs: Sequence[CellSpec], jobs: int = 1,
              cache: Optional[ResultCache] = None,
              validate_memory: bool = True,
              max_events: int = DEFAULT_MAX_EVENTS,
              progress: Optional[Callable[[CellResult], None]] = None,
              cell_timeout: Optional[float] = None,
              cell_retries: int = 1,
              trace_dir: Optional[str] = None) -> SweepSummary:
    """Run every cell, in parallel when ``jobs > 1``, reusing ``cache``.

    Cache lookups and stores both happen in the parent, so workers stay
    read-only and a crashed worker can never poison the cache.  Results
    come back in spec order regardless of completion order.

    Failures degrade gracefully: a crashed or timed-out cell is re-run
    up to ``cell_retries`` times, then recorded as a :class:`CellError`
    on the returned summary while every other cell's result survives.
    ``cell_timeout`` (seconds of wall clock per cell) requires process
    isolation and therefore applies when set even at ``jobs=1``.

    ``trace_dir`` persists per-cell Chrome trace and telemetry
    artifacts (see :func:`simulate_cell`); cells served from the cache
    are not re-traced.
    """
    started = time.perf_counter()
    results: List[Optional[CellResult]] = [None] * len(specs)
    errors: List[CellError] = []
    misses: List[Tuple[int, CellSpec, str]] = []
    for index, spec in enumerate(specs):
        key = cell_key(spec, validate_memory, max_events)
        payload = cache.get(key) if cache is not None else None
        if payload is not None:
            cell = CellResult(spec, key, payload, from_cache=True)
            results[index] = cell
            if progress is not None:
                progress(cell)
        else:
            misses.append((index, spec, key))

    def finish(index: int, spec: CellSpec, key: str,
               payload: Dict[str, object]) -> None:
        if cache is not None:
            cache.put(key, payload)
        cell = CellResult(spec, key, payload, from_cache=False)
        results[index] = cell
        if progress is not None:
            progress(cell)

    def fail(spec: CellSpec, key: str, kind: str, message: str,
             attempts: int) -> None:
        errors.append(CellError(spec=spec, key=key, kind=kind,
                                message=message, attempts=attempts))

    if misses and (jobs > 1 or cell_timeout is not None):
        _run_isolated(misses, jobs, validate_memory, max_events,
                      cell_timeout, cell_retries, finish, fail,
                      trace_dir=trace_dir)
    else:
        for index, spec, key in misses:
            try:
                payload = simulate_cell(spec, validate_memory, max_events,
                                        trace_dir)
            except Exception as exc:
                fail(spec, key, "error",
                     f"{type(exc).__name__}: {exc}", 1)
                continue
            finish(index, spec, key, payload)

    return SweepSummary(cells=[cell for cell in results
                               if cell is not None],
                        errors=errors,
                        jobs=jobs,
                        wall_time=time.perf_counter() - started)
