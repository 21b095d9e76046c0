"""Observability: protocol tracing, span attribution, health, exporters.

Every layer is strictly passive — nothing in this package ever
schedules engine events, so enabling a trace can never change cycle
counts, event counts, or final memory:

* :mod:`repro.obs.trace` — a bounded ring buffer of trace events, plain
  tuples in :class:`TraceEvent` field order that the cyclic collector
  untracks (ints, strs and ``None`` only), fed by trace points threaded
  through the network, homes, TUs, L1 protocols, MSHRs and DRAM.
  Components reach the recorder through ``self.engine.tracer`` (``None``
  when tracing is off, which keeps the disabled hot path to a single
  attribute test).
* :mod:`repro.obs.spans` — a :class:`SpanCollector` whose handlers
  the recorder calls for the span event kinds; it stitches them into
  per-request spans keyed by ``req_id``, decomposes end-to-end latency
  into an exact partition of critical-path stages with top-K
  contended-line / shard / link rollups, and books every network hop
  into a traffic-class x hop-class flight rollup (the indirection
  cycles).
* :mod:`repro.obs.monitor` — a :class:`MetricsRegistry` of labelled
  :class:`Gauge` series and a :class:`HealthMonitor` that the trace
  recorder drives on an engine-cycle interval; each scrape row also
  snapshots the :class:`~repro.sim.stats.StatsRegistry` counters.
* :mod:`repro.obs.export` / :mod:`repro.obs.prometheus` —
  Chrome/Perfetto trace-event JSON (with counter tracks rendered from
  the monitor's scrape rows), a human-readable per-address timeline,
  and Prometheus text exposition with a validating parser; the three
  exports of one monitored ``System`` (Chrome section, Prometheus
  text, health JSON) are built in one place for ``repro run`` and the
  sweep.
"""

from .export import (chrome_section, format_timeline, load_chrome_trace,
                     validate_chrome_trace, write_chrome_trace,
                     write_health_json, write_prometheus)
from .monitor import Gauge, HealthMonitor, MetricsRegistry, format_health
from .prometheus import (parse_prometheus_text, prometheus_text,
                         registry_samples, sanitize_metric_name,
                         stats_samples)
from .spans import SPAN_STAGES, SpanCollector, decompose
from .trace import (INDIRECTION_HOPS, TraceEvent, TraceFilter,
                    TraceRecorder, hop_class)

__all__ = [
    "TraceEvent", "TraceFilter", "TraceRecorder", "hop_class",
    "INDIRECTION_HOPS",
    "MetricsRegistry", "Gauge", "HealthMonitor", "format_health",
    "SpanCollector", "SPAN_STAGES", "decompose",
    "prometheus_text", "parse_prometheus_text", "registry_samples",
    "stats_samples", "sanitize_metric_name",
    "write_chrome_trace", "load_chrome_trace", "validate_chrome_trace",
    "format_timeline", "chrome_section", "write_prometheus",
    "write_health_json",
]
