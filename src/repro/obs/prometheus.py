"""Prometheus text exposition + JSON-snapshot exporters.

Renders :class:`~repro.obs.monitor.MetricsRegistry` gauges and flat
:class:`~repro.sim.stats.StatsRegistry` counters into the Prometheus
text exposition format (v0.0.4), plus a deliberately
strict :func:`parse_prometheus_text` used by tests and the CI
``obs-smoke`` job to validate what we emit — names against the
Prometheus grammar, label values against the escaping rules —
without needing a real Prometheus install in the container.

Dotted registry names map to Prometheus by replacing ``.`` with
``_`` under a ``repro_`` namespace prefix: ``home.queue_depth``
becomes ``repro_home_queue_depth``.  Each gauge also exports its
whole-run peak as a ``<name>_high_water`` series.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

#: Prometheus metric-name grammar (we never emit ':', reserved for
#: recording rules)
PROM_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

NAMESPACE = "repro"


def sanitize_metric_name(name: str) -> str:
    """Dotted registry name -> Prometheus name (namespaced)."""
    flat = name.replace(".", "_").replace("-", "_")
    prom = f"{NAMESPACE}_{flat}"
    if not PROM_NAME_RE.match(prom):
        raise ValueError(f"unexportable metric name {name!r}")
    return prom


def escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (not quotes)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{escape_label_value(v)}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def registry_samples(registry) -> List[Dict[str, object]]:
    """One gauge sample per :class:`MetricsRegistry` series."""
    return registry.collect()


def stats_samples(stats) -> List[Dict[str, object]]:
    """Flatten a :class:`StatsRegistry` into counter samples.

    Plain counters keep their dotted name; grouped counters become one
    metric family with a ``key`` label per group member.
    """
    samples: List[Dict[str, object]] = []
    for name, value in sorted(stats.counters().items()):
        samples.append({"name": name, "kind": "counter", "help": "",
                        "unit": "", "labels": {},
                        "value": float(value)})
    for group in sorted(stats.groups()):
        for key, value in sorted(stats.group(group).items()):
            samples.append({"name": group, "kind": "counter",
                            "help": "", "unit": "",
                            "labels": {"key": str(key)},
                            "value": float(value)})
    return samples


def prometheus_text(samples: Iterable[Dict[str, object]]) -> str:
    """Render counter and gauge samples (see :func:`stats_samples` and
    :func:`registry_samples`) as exposition text.  ``# HELP`` /
    ``# TYPE`` emit once per family, families stay contiguous, and a
    gauge sample carrying ``high_water`` adds a ``_high_water``
    series."""
    by_family: Dict[str, List[Dict[str, object]]] = {}
    order: List[str] = []
    for sample in samples:
        name = sample["name"]
        if name not in by_family:
            by_family[name] = []
            order.append(name)
        by_family[name].append(sample)
    lines: List[str] = []
    for name in order:
        family = by_family[name]
        prom = sanitize_metric_name(name)
        kind = family[0]["kind"]
        help_text = family[0].get("help") or name
        unit = family[0].get("unit")
        if unit:
            help_text = f"{help_text} [{unit}]"
        lines.append(f"# HELP {prom} {escape_help(help_text)}")
        lines.append(f"# TYPE {prom} {kind}")
        for sample in family:
            labels = _render_labels(sample.get("labels") or {})
            lines.append(f"{prom}{labels} "
                         f"{_format_value(sample['value'])}")
            if kind == "gauge" and "high_water" in sample:
                hw = sanitize_metric_name(f"{name}.high_water")
                lines.append(f"{hw}{labels} "
                             f"{_format_value(sample['high_water'])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation parser
# ---------------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$")
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
    r'"(?P<value>(?:[^"\\]|\\["\\n])*)"\s*(?P<sep>,|$)')


def _unescape(value: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(value):
        char = value[i]
        if char == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                raise ValueError(
                    f"bad escape \\{nxt} in label value {value!r}")
            i += 2
        else:
            out.append(char)
            i += 1
    return "".join(out)


def parse_prometheus_text(text: str
                          ) -> List[Tuple[str, Dict[str, str], float]]:
    """Minimal validating parser for the exposition format.

    Returns ``(name, labels, value)`` tuples; raises ``ValueError``
    on malformed names, unterminated or badly escaped label values,
    unparsable numbers, or a ``# TYPE`` re-declaration (families must
    be contiguous and declared once).
    """
    results: List[Tuple[str, Dict[str, str], float]] = []
    declared: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                family, kind = parts[2], parts[3] if len(parts) > 3 \
                    else ""
                if family in declared:
                    raise ValueError(
                        f"line {lineno}: duplicate TYPE for "
                        f"{family}")
                if kind not in ("counter", "gauge", "histogram",
                                "summary", "untyped"):
                    raise ValueError(
                        f"line {lineno}: unknown type {kind!r}")
                declared[family] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparsable sample "
                             f"{line!r}")
        name = match.group("name")
        labels: Dict[str, str] = {}
        body = match.group("labels")
        if body is not None:
            pos = 0
            while pos < len(body):
                pair = _LABEL_PAIR_RE.match(body, pos)
                if pair is None:
                    raise ValueError(
                        f"line {lineno}: bad label syntax in "
                        f"{body!r}")
                key = pair.group("key")
                if key in labels:
                    raise ValueError(
                        f"line {lineno}: duplicate label {key!r}")
                labels[key] = _unescape(pair.group("value"))
                pos = pair.end()
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(f"line {lineno}: bad value "
                             f"{value_text!r}")
        results.append((name, labels, value))
    return results
