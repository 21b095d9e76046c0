"""EXPERIMENTS.md's figure tables come from the committed results.

The Figure 2 and Figure 3 tables and their Aggregate / Headline lines
sit between ``<!-- BEGIN name -->`` / ``<!-- END name -->`` markers in
EXPERIMENTS.md.  They are rendered from ``results/figure2.json`` and
``results/figure3.json`` with ``repro.analysis.report``'s
``format_figure`` and ``summarize_headline``, so a change that moves
the results cannot leave the docs stale.  After the figure benchmarks
rewrite ``results/``, regenerate the blocks from the repository root
with::

    PYTHONPATH=src python -m tests.integration.test_experiments_doc
"""

import json
import re
from pathlib import Path
from typing import Dict, List, Sequence

from repro.analysis.report import (ConfigResult, WorkloadResult,
                                   format_figure, summarize_headline)
from repro.system.config import CONFIG_ORDER
from repro.workloads import APPLICATIONS, MICROBENCHMARKS

ROOT = Path(__file__).resolve().parent.parent.parent
DOC = ROOT / "EXPERIMENTS.md"
REGENERATE = "PYTHONPATH=src python -m tests.integration.test_experiments_doc"


def load_figure(name: str, order: Sequence[str]) -> List[WorkloadResult]:
    """``results/<name>.json`` in paper order (workloads, then Table V
    configurations)."""
    payload = json.loads((ROOT / "results" / f"{name}.json").read_text())
    results = []
    for workload in [w for w in order if w in payload]:
        cells = payload[workload]
        results.append(WorkloadResult(workload, {
            config: ConfigResult(config, cells[config]["cycles"],
                                 cells[config]["network_bytes"],
                                 cells[config]["traffic"],
                                 memory_ok=cells[config]["memory_ok"])
            for config in CONFIG_ORDER if config in cells}))
    return results


def _table(results: List[WorkloadResult], title: str) -> str:
    lines = format_figure(results, title).splitlines()
    return "\n".join(["```text", *(line.rstrip() for line in lines), "```"])


def _summary(results: List[WorkloadResult], label: str) -> str:
    h = summarize_headline(results)
    return (f"**{label}**: Sbest vs Hbest "
            f"−{h['avg_time_reduction'] * 100:.0f} % time "
            f"(max −{h['max_time_reduction'] * 100:.0f} %), "
            f"−{h['avg_traffic_reduction'] * 100:.0f} % traffic "
            f"(max −{h['max_traffic_reduction'] * 100:.0f} %).")


def blocks() -> Dict[str, str]:
    """Marker name -> the text rendered between its markers."""
    micro = load_figure("figure2", list(MICROBENCHMARKS))
    apps = load_figure("figure3", list(APPLICATIONS))
    return {
        "figure2-table": _table(micro, "Figure 2"),
        "figure2-aggregate": _summary(micro, "Aggregate (micro)"),
        "figure3-table": _table(apps, "Figure 3"),
        "figure3-headline": _summary(apps, "Headline (apps)"),
    }


def render(text: str) -> str:
    """``text`` with every marked block replaced by its rendering."""
    for name, body in blocks().items():
        pattern = re.compile(rf"(<!-- BEGIN {name} -->\n)(?:.*?\n)?"
                             rf"(<!-- END {name} -->)", re.S)
        text, found = pattern.subn(
            lambda match: f"{match.group(1)}{body}\n{match.group(2)}",
            text)
        assert found == 1, f"EXPERIMENTS.md needs one {name!r} block"
    return text


def test_experiments_doc_matches_results():
    text = DOC.read_text(encoding="utf-8")
    assert render(text) == text, (
        "EXPERIMENTS.md's figure blocks differ from results/figure2.json "
        f"and results/figure3.json; regenerate them with `{REGENERATE}`.")


if __name__ == "__main__":
    DOC.write_text(render(DOC.read_text(encoding="utf-8")),
                   encoding="utf-8")
