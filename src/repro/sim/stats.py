"""Statistics collection.

A :class:`StatsRegistry` aggregates named counters and grouped counters
(e.g. network bytes broken down by message class, as in the paper's
Figures 2 and 3 traffic stacks).  Components hold references to the same
registry, so a system-wide report is a single object.

:class:`LatencySampler` keeps streaming (count/sum/min/max) moments per
label plus a fixed geometric histogram (power-of-two buckets), which
gives p50/p95/p99 estimates without storing samples — averages alone
hide the tail behaviour the paper's latency arguments rest on.  The
span collector owns one per traced run; sweeps merge only
:class:`StatsRegistry` snapshots.
"""

from __future__ import annotations

import re
from collections import defaultdict
from math import ceil
from typing import Dict, Iterable, Mapping

#: The registry-name grammar (documented in DESIGN.md): dotted
#: lower-case segments, each ``[a-z][a-z0-9_]*`` for the first segment
#: and ``[a-z0-9_]+`` afterwards — e.g. ``transport.retransmits``,
#: ``home.llc0.fills``, ``faults.dropped``.  Dots are the hierarchy
#: separator (Prometheus export maps them to underscores), so segments
#: themselves never contain dots.
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")


class MetricNameError(ValueError):
    """A stat/metric name violates the grammar or collides."""


def validate_metric_name(name: str) -> str:
    """Check ``name`` against the registry grammar; return it."""
    if not METRIC_NAME_RE.match(name):
        raise MetricNameError(
            f"metric name {name!r} violates the registry grammar "
            "(dotted lower-case segments: [a-z][a-z0-9_]*"
            "(\\.[a-z0-9_]+)*)")
    return name


class ScopedStats:
    """A per-component view of a :class:`StatsRegistry` writing
    ``<prefix>.<metric>`` (e.g. ``home.llc0.fills``).

    Scoped names are validated once and cached, so the per-increment
    cost is one dict add on the registry's live counter dict.
    """

    __slots__ = ("_counters", "_groups", "prefix", "_names")

    def __init__(self, registry: "StatsRegistry", prefix: str):
        validate_metric_name(prefix)
        self._counters = registry.raw_counters()
        self._groups = registry._groups
        self.prefix = prefix
        self._names: Dict[str, str] = {}

    def _name(self, metric: str) -> str:
        name = self._names.get(metric)
        if name is None:
            name = self._names[metric] = validate_metric_name(
                f"{self.prefix}.{metric}")
        return name

    def incr(self, metric: str, amount: float = 1.0) -> None:
        self._counters[self._name(metric)] += amount

    def incr_group(self, metric: str, key: str,
                   amount: float = 1.0) -> None:
        self._groups[self._name(metric)][key] += amount


class StatsRegistry:
    """Flat counters plus two-level grouped counters."""

    def __init__(self):
        self._counters: Dict[str, float] = defaultdict(float)
        self._groups: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._scopes: Dict[str, ScopedStats] = {}

    def scoped(self, prefix: str) -> ScopedStats:
        """A :class:`ScopedStats` view writing ``<prefix>.*``.  Each
        prefix may be claimed once — a second claim means two
        components would silently share (and double-count) one
        namespace, so it raises at build time."""
        if prefix in self._scopes:
            raise MetricNameError(
                f"stats scope {prefix!r} already registered — two "
                "components may not share a metric namespace")
        scope = ScopedStats(self, prefix)
        self._scopes[prefix] = scope
        return scope

    def scopes(self) -> Iterable[str]:
        return list(self._scopes)

    def home_total(self, metric: str) -> float:
        """Sum ``home.<name>.<metric>`` over every home scope (all
        shards; the L3 and GPU L2 of hierarchical builds)."""
        return sum(self.get(f"{scope}.{metric}") for scope in self._scopes
                   if scope.startswith("home."))

    # -- flat counters ---------------------------------------------------
    def incr(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] += amount

    def set(self, name: str, value: float) -> None:
        self._counters[name] = value

    def get(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counters(self) -> Mapping[str, float]:
        return dict(self._counters)

    def raw_counters(self) -> Dict[str, float]:
        """The live flat-counter dict, for hot-path callers.

        A component that increments the same counters millions of times
        (the network) may hold this defaultdict and do ``d[name] += x``
        directly, skipping the :meth:`incr` call overhead.  The dict is
        live for the registry's whole lifetime — snapshots, merges and
        reports all observe increments made through it.
        """
        return self._counters

    def raw_group(self, group: str) -> Dict[str, float]:
        """The live counter dict for one group (see :meth:`raw_counters`)."""
        return self._groups[group]

    # -- grouped counters ------------------------------------------------
    def incr_group(self, group: str, key: str, amount: float = 1.0) -> None:
        self._groups[group][key] += amount

    def group(self, group: str) -> Dict[str, float]:
        return dict(self._groups.get(group, {}))

    def group_total(self, group: str) -> float:
        return sum(self._groups.get(group, {}).values())

    def groups(self) -> Iterable[str]:
        return list(self._groups)

    # -- reporting -------------------------------------------------------
    def merge(self, other: "StatsRegistry") -> None:
        """Fold another registry's counts into this one."""
        for name, value in other._counters.items():
            self._counters[name] += value
        for group, keys in other._groups.items():
            for key, value in keys.items():
                self._groups[group][key] += value

    def snapshot(self) -> Dict[str, object]:
        """A deep plain-dict copy suitable for JSON or diffing.

        Every container is a freshly built ``dict`` with sorted keys
        and ``float`` values — no live ``defaultdict`` (or reference
        into this registry) ever escapes, so mutating a snapshot can
        never corrupt the registry and two snapshots of equal state
        serialize identically.
        """
        return {
            "counters": {name: float(self._counters[name])
                         for name in sorted(self._counters)},
            "groups": {
                group: {key: float(keys[key]) for key in sorted(keys)}
                for group, keys in sorted(self._groups.items())},
        }

    @classmethod
    def from_snapshot(cls, payload: Mapping[str, object]) -> "StatsRegistry":
        """Rebuild a registry from :meth:`snapshot` output.

        The registry itself is not picklable (its grouped counters use
        a lambda-backed defaultdict), so worker processes ship snapshots
        and the parent rebuilds them here before :meth:`merge`-ing.
        Round-trips exactly: ``from_snapshot(s).snapshot() == s``.
        """
        registry = cls()
        for name, value in payload.get("counters", {}).items():
            registry._counters[name] = float(value)
        for group, keys in payload.get("groups", {}).items():
            registry._groups[group]     # materialize even when empty
            for key, value in keys.items():
                registry._groups[group][key] = float(value)
        return registry

    def format_table(self, title: str = "stats") -> str:
        """Human-readable dump, sorted for stable output.

        Renders from a :meth:`snapshot` so formatting can never touch
        (or, via defaultdict access, grow) the live containers.
        """
        snap = self.snapshot()
        lines = [f"== {title} =="]
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<48} {value:>14,.0f}")
        for group, keys in snap["groups"].items():
            lines.append(f"  [{group}]")
            for key, value in keys.items():
                lines.append(f"    {key:<46} {value:>14,.0f}")
        return "\n".join(lines)


#: number of power-of-two histogram buckets: bucket 0 holds values
#: < 1, bucket i holds [2^(i-1), 2^i), bucket 47 covers up to 2^47
#: cycles — far beyond any simulated latency.
HISTOGRAM_BUCKETS = 48


def _bucket_of(value: float) -> int:
    if value < 1:
        return 0
    return min(HISTOGRAM_BUCKETS - 1, int(value).bit_length())


class LatencySampler:
    """Streaming latency statistics with histogram percentiles.

    Per label: (count, sum, min, max) moments plus a sparse geometric
    histogram.  Percentiles are bucket-resolved (within a factor of
    two, clamped to the observed min/max).
    """

    def __init__(self):
        self._data: Dict[str, list] = {}
        self._hist: Dict[str, Dict[int, int]] = {}

    def sample(self, label: str, value: float) -> None:
        entry = self._data.get(label)
        if entry is not None:
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value
        else:
            self._data[label] = [1, value, value, value]
            self._hist[label] = {}
        hist = self._hist[label]
        bucket = _bucket_of(value)
        hist[bucket] = hist.get(bucket, 0) + 1

    def mean(self, label: str) -> float:
        entry = self._data.get(label)
        if not entry or entry[0] == 0:
            return 0.0
        return entry[1] / entry[0]

    def count(self, label: str) -> int:
        entry = self._data.get(label)
        return entry[0] if entry else 0

    def labels(self) -> Iterable[str]:
        return list(self._data)

    def percentile(self, label: str, p: float) -> float:
        """Bucket-resolved percentile estimate for ``label``.

        Returns the upper bound of the bucket containing the p-th
        sample, clamped to the observed min/max — exact when all
        samples share a bucket, within 2x otherwise.
        """
        entry = self._data.get(label)
        if not entry or entry[0] == 0:
            return 0.0
        rank = max(1, ceil(entry[0] * min(max(p, 0.0), 100.0) / 100.0))
        cumulative = 0
        for bucket in sorted(self._hist[label]):
            cumulative += self._hist[label][bucket]
            if cumulative >= rank:
                upper = 0.0 if bucket == 0 else float(1 << bucket)
                return min(max(upper, entry[2]), entry[3])
        return entry[3]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deep plain-dict copy, JSON-round-trip safe: histogram keys
        are stringified bucket indices (JSON objects only have string
        keys)."""
        return {
            label: {
                "count": int(entry[0]),
                "sum": float(entry[1]),
                "min": float(entry[2]),
                "max": float(entry[3]),
                "hist": {str(bucket): int(n) for bucket, n in
                         sorted(self._hist.get(label, {}).items())},
            }
            for label, entry in sorted(self._data.items())
        }
