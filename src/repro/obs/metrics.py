"""Metrics registry: counters, gauges, fixed-bucket histograms, exposition.

The registry is deliberately small: three instrument kinds, get-or-create
by name, a :meth:`MetricsRegistry.snapshot` dict for tests and APIs, and
Prometheus-style text exposition for scraping.  Hot paths never go
through the registry — they increment plain ``int`` fields on slotted
instrument objects (``counter.inc()`` is one attribute add), and
instruments that mirror live state (cache sizes, store counters) are
registered with a ``callback`` read only at collection time, so keeping
a metric costs nothing between scrapes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Optional, Sequence

#: Default histogram boundaries (seconds): spans query latencies from
#: sub-millisecond index probes to multi-second closure workloads.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonically increasing count (or a callback reading one)."""

    kind = "counter"
    __slots__ = ("name", "help", "value", "callback")

    def __init__(
        self, name: str, help: str = "", callback: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.value = 0
        self.callback = callback

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def collect(self) -> float:
        return self.callback() if self.callback is not None else self.value


class Gauge:
    """A value that can go up and down (or a callback reading one)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "callback")

    def __init__(
        self, name: str, help: str = "", callback: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.callback = callback

    def set(self, value: float) -> None:
        self.value = value

    def collect(self) -> float:
        return self.callback() if self.callback is not None else self.value


class Histogram:
    """Fixed-boundary histogram with cumulative-bucket exposition."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        boundaries = tuple(sorted(buckets))
        if not boundaries:
            raise ValueError("histogram needs at least one bucket boundary")
        self.name = name
        self.help = help
        self.buckets = boundaries
        #: Per-bucket observation counts; the extra final slot is +Inf.
        self.counts = [0] * (len(boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def collect(self) -> Dict[str, object]:
        cumulative: Dict[str, int] = {}
        running = 0
        for boundary, bucket_count in zip(self.buckets, self.counts):
            running += bucket_count
            cumulative[f"{boundary:g}"] = running
        cumulative["+Inf"] = running + self.counts[-1]
        return {"buckets": cumulative, "sum": self.sum, "count": self.count}


class MetricsRegistry:
    """Named instruments with get-or-create semantics and text exposition."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # instrument creation
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(_check_name(name), **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", callback: Optional[Callable[[], float]] = None
    ) -> Counter:
        return self._get_or_create(Counter, name, help=help, callback=callback)

    def gauge(
        self, name: str, help: str = "", callback: Optional[Callable[[], float]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help=help, callback=callback)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help=help, buckets=buckets)

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Collect every instrument into a plain dict (stable name order)."""
        return {
            name: self._metrics[name].collect() for name in sorted(self._metrics)
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                collected = metric.collect()
                for boundary, running in collected["buckets"].items():
                    lines.append(f'{name}_bucket{{le="{boundary}"}} {running}')
                lines.append(f"{name}_sum {collected['sum']:g}")
                lines.append(f"{name}_count {collected['count']}")
            else:
                lines.append(f"{name} {metric.collect():g}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


def bind_store_metrics(
    registry: MetricsRegistry, graph, prefix: str = "store"
) -> None:
    """Expose an encoded store's counters through ``registry``.

    Enables the graph's optional counters (``graph.enable_counters()``)
    and registers callback instruments reading them at collection time,
    so the store's hot paths stay a ``None``-checked ``int +=``.  Also
    covers the term dictionary's encode/decode counters.  Duck-typed:
    any object with the :class:`repro.store.encoded.EncodedGraph`
    counter surface works.
    """
    counters = graph.enable_counters()
    registry.counter(
        f"{prefix}_index_probes_total",
        "Triple-index probes (calls of the store's id probe surface)",
        callback=lambda: counters.index_probes,
    )
    registry.counter(
        f"{prefix}_sorted_run_builds_total",
        "Sorted id runs materialised for the leapfrog operator",
        callback=lambda: counters.sorted_run_builds,
    )
    registry.counter(
        f"{prefix}_sorted_run_invalidations_total",
        "Sorted-run cache invalidations (mutation bumped the version stamp)",
        callback=lambda: counters.sorted_run_invalidations,
    )
    dictionary_counters = graph.dictionary.enable_counters()
    registry.counter(
        f"{prefix}_dictionary_encodes_total",
        "Term-to-id interning operations",
        callback=lambda: dictionary_counters.encodes,
    )
    registry.counter(
        f"{prefix}_dictionary_decodes_total",
        "Id-to-term decode operations",
        callback=lambda: dictionary_counters.decodes,
    )
