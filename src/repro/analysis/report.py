"""Paper-style reporting.

Holds one workload's results across the Table V configurations (a
sweep's :meth:`~repro.analysis.sweep.SweepSummary.workload_results`),
normalizes execution time and network traffic to HMG (as Figures 2
and 3 do), computes the Hbest / Sbest aggregates the paper reports,
and renders ASCII charts of the traffic stacks by request class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

from ..system.config import HIERARCHICAL_CONFIGS, SPANDEX_CONFIGS

#: traffic classes in the order the paper's figure legends use
TRAFFIC_CLASSES = ("ReqV", "ReqS", "ReqWT", "ReqO", "ReqWT+data",
                   "ReqO+data", "ReqWB", "Probe")


@dataclass
class ConfigResult:
    config: str
    cycles: int
    network_bytes: float
    traffic: Dict[str, float]
    counters: Dict[str, float] = field(default_factory=dict)
    memory_ok: Optional[bool] = None


@dataclass
class WorkloadResult:
    """All configurations' results for one workload.

    ``errors`` maps configurations that produced no result (crash,
    timeout, deadlock) to a human-readable reason; reports render such
    cells as annotated gaps instead of failing the whole figure.
    """

    workload: str
    results: Dict[str, ConfigResult]
    errors: Dict[str, str] = field(default_factory=dict)

    def normalized_time(self, base: str = "HMG") -> Dict[str, float]:
        base_cycles = self.results[base].cycles
        return {name: r.cycles / base_cycles
                for name, r in self.results.items()}

    def normalized_traffic(self, base: str = "HMG") -> Dict[str, float]:
        base_bytes = self.results[base].network_bytes
        return {name: r.network_bytes / base_bytes
                for name, r in self.results.items()}

    def best(self, names: Sequence[str], metric: str = "cycles") -> str:
        """Config among ``names`` with the lowest execution time."""
        present = [n for n in names if n in self.results]
        if not present:
            raise ValueError(f"none of {names} were run")
        return min(present,
                   key=lambda n: getattr(self.results[n], metric))

    def hbest(self) -> str:
        return self.best(HIERARCHICAL_CONFIGS)

    def sbest(self) -> str:
        return self.best(SPANDEX_CONFIGS)

    def sbest_vs_hbest(self) -> Dict[str, float]:
        """Fractional reduction of Sbest relative to Hbest (paper's
        headline metric): positive = Spandex better."""
        hb = self.results[self.hbest()]
        sb = self.results[self.sbest()]
        return {
            "time_reduction": 1.0 - sb.cycles / hb.cycles,
            "traffic_reduction": 1.0 - sb.network_bytes / hb.network_bytes,
        }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def format_figure(results: Iterable[WorkloadResult],
                  title: str, base: str = "HMG") -> str:
    """Paper-figure-style table: normalized time and traffic rows.

    Degenerate inputs render as messages rather than crashing: an
    empty result list, a missing base configuration, or a base run
    with zero cycles/bytes (nothing to normalize against).  Cells that
    failed (``WorkloadResult.errors``) render as ``FAIL`` gaps with the
    reasons footnoted; the aggregates use whatever cells survived.
    """
    results = list(results)
    if not results:
        return f"== {title}: no results =="
    configs: list = []
    for wr in results:
        for name in list(wr.results) + list(wr.errors):
            if name not in configs:
                configs.append(name)
    lines = [f"== {title} (normalized to {base}) ==",
             f"{'workload':<14}" + "".join(f"{c:>14}" for c in configs)]
    lines.append(f"{'':14}" + "".join(f"{'time/traffic':>14}"
                                      for _ in configs))
    reductions = []
    footnotes = []
    for wr in results:
        for name in sorted(wr.errors):
            footnotes.append(f"  ! {wr.workload}/{name} "
                             f"{wr.errors[name]}")
        base_result = wr.results.get(base)
        if base_result is None or base_result.cycles == 0 or \
                base_result.network_bytes == 0:
            reason = ("not run" if base_result is None
                      else "zero cycles/bytes")
            if base in wr.errors:
                reason = "failed"
            lines.append(f"{wr.workload:<14}  "
                         f"(no {base} baseline: {reason})")
            continue
        times = wr.normalized_time(base)
        traffic = wr.normalized_traffic(base)
        cells = ""
        for c in configs:
            if c in times:
                cells += f"{times[c]:>7.2f}/{traffic[c]:<6.2f}"
            elif c in wr.errors:
                cells += f"{'FAIL':>9}{'!':<5}"
            else:
                cells += f"{'--':>14}"
        lines.append(f"{wr.workload:<14}{cells}")
        try:
            reductions.append(wr.sbest_vs_hbest())
        except (ValueError, ZeroDivisionError):
            pass        # a family missing or Hbest ran in zero cycles
    if footnotes:
        lines.append("failed cells:")
        lines.extend(footnotes)
    if reductions:
        avg_t = sum(r["time_reduction"]
                    for r in reductions) / len(reductions)
        avg_b = sum(r["traffic_reduction"]
                    for r in reductions) / len(reductions)
        max_t = max(r["time_reduction"] for r in reductions)
        max_b = max(r["traffic_reduction"] for r in reductions)
        lines.append(f"Sbest vs Hbest: execution time -{avg_t:.0%} "
                     f"(max -{max_t:.0%}), network traffic -{avg_b:.0%} "
                     f"(max -{max_b:.0%})")
    else:
        lines.append("Sbest vs Hbest: not computable "
                     "(no workload with a usable baseline)")
    return "\n".join(lines)


def format_traffic_stack(result: WorkloadResult, base: str = "HMG") -> str:
    """Per-class traffic breakdown (the stacked bars of Figs 2/3)."""
    base_result = result.results.get(base)
    if base_result is None:
        return (f"-- {result.workload}: traffic by request class --\n"
                f"   (base configuration {base} was not run)")
    base_total = base_result.network_bytes
    if base_total == 0:
        return (f"-- {result.workload}: traffic by request class --\n"
                f"   (base configuration {base} moved zero bytes; "
                "nothing to normalize against)")
    lines = [f"-- {result.workload}: traffic by request class "
             f"(fraction of {base} total) --"]
    header = f"{'class':<12}" + "".join(
        f"{c:>8}" for c in result.results)
    lines.append(header)
    for cls in TRAFFIC_CLASSES:
        row = f"{cls:<12}"
        for config_result in result.results.values():
            frac = config_result.traffic.get(cls, 0.0) / base_total
            row += f"{frac:>8.3f}"
        lines.append(row)
    total_row = f"{'total':<12}"
    for config_result in result.results.values():
        total_row += f"{config_result.network_bytes / base_total:>8.3f}"
    lines.append(total_row)
    return "\n".join(lines)


def summarize_headline(app_results: Iterable[WorkloadResult]) -> Dict[str, float]:
    """Aggregate Sbest-vs-Hbest reductions (paper abstract numbers)."""
    reductions = [wr.sbest_vs_hbest() for wr in app_results]
    if not reductions:
        return {"avg_time_reduction": 0.0, "max_time_reduction": 0.0,
                "avg_traffic_reduction": 0.0,
                "max_traffic_reduction": 0.0}
    return {
        "avg_time_reduction":
            sum(r["time_reduction"] for r in reductions) / len(reductions),
        "max_time_reduction":
            max(r["time_reduction"] for r in reductions),
        "avg_traffic_reduction":
            sum(r["traffic_reduction"] for r in reductions) / len(reductions),
        "max_traffic_reduction":
            max(r["traffic_reduction"] for r in reductions),
    }
