"""Zero-dependency observability: span tracing, metrics, trace exporters.

The subsystem has three parts, all plain-Python and import-cheap:

* :mod:`repro.obs.tracer` — a ``perf_counter``-based span tracer.  The
  evaluator opens ``plan`` / ``lower`` / ``execute`` phase spans (plus
  ``parse`` where it parses) and samples per-operator summaries from the
  physical layer's batched-counter flush points.  A disabled tracer (or
  ``tracer=None``, the default) costs a single ``None`` check per phase.

* :mod:`repro.obs.metrics` — a metrics registry with counters, gauges
  and fixed-bucket histograms, plus Prometheus-style text exposition.
  :meth:`repro.sparql.evaluator.SparqlEvaluator.metrics` snapshots the
  evaluator's registry; :func:`bind_store_metrics` attaches the encoded
  store's index-probe / dictionary / sorted-run counters.

* :mod:`repro.obs.export` — structured JSON trace dumps validated
  against ``trace_schema.json`` (by a dependency-free validator) and
  Chrome ``trace_event`` output
  loadable in ``about:tracing`` / Perfetto.
"""

from repro.obs.tracer import NULL_SPAN, Span, Tracer, trace_iterator
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_store_metrics,
)
from repro.obs.export import (
    to_chrome_trace,
    trace_schema,
    trace_to_dict,
    validate_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "bind_store_metrics",
    "to_chrome_trace",
    "trace_iterator",
    "trace_schema",
    "trace_to_dict",
    "validate_trace",
]
