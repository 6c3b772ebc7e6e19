"""Span tracer: a ``perf_counter``-based tree of timed phases.

A :class:`Tracer` hands out context-manager spans.  Entering a span
pushes it on the active stack (its parent is whatever span was active),
exiting stamps the end time and appends it to :attr:`Tracer.spans` in
completion order.  The evaluator opens one span per query phase
(``parse`` → ``plan`` → ``lower`` → ``execute``) and samples
per-operator summaries as zero-cost :meth:`Tracer.event` records from
the physical layer's batched-counter flush points, so a trace of one
query is a handful of spans, not one per row.

Disabled tracing compiles to no-ops: ``Tracer(enabled=False).span(...)``
returns the shared :data:`NULL_SPAN` without touching the clock, and the
evaluator's hot paths guard on ``tracer is None`` before even that.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Span:
    """One timed region of work (or a pre-measured summary event)."""

    __slots__ = ("name", "category", "start", "end", "parent", "args")

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        parent: Optional["Span"] = None,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.args: Dict[str, object] = args if args is not None else {}

    @property
    def duration(self) -> Optional[float]:
        """Elapsed seconds, or ``None`` while the span is still open."""
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        timing = f"{self.duration * 1e3:.3f}ms" if self.end is not None else "open"
        return f"Span({self.name!r}, {self.category!r}, {timing})"


class _NullSpan:
    """The do-nothing span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **args) -> "_NullSpan":
        return self


#: Shared no-op span: entering, exiting and annotating all do nothing.
NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager for one open span of an enabled tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._finish(self.span)
        return False

    def annotate(self, **args) -> "_ActiveSpan":
        """Attach key/value details to the span (shown in trace args)."""
        self.span.args.update(args)
        return self


class Tracer:
    """Collects spans for one logical trace (typically one workload run).

    ``enabled=False`` turns every operation into a no-op so callers can
    keep one unconditional code shape; ``tracer=None`` at the call sites
    that matter avoids even the method call.
    """

    def __init__(self, name: str = "trace", enabled: bool = True) -> None:
        self.name = name
        self.enabled = enabled
        self.epoch = perf_counter()
        #: Finished spans in completion order.
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "phase", **args):
        """Open a span; use as ``with tracer.span("plan"): ...``."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        span = Span(name, category, perf_counter(), parent, args or None)
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack
        # The common case is strict nesting; tolerate out-of-order exits
        # (two lazily-consumed execution streams interleaved) by removing
        # the span wherever it sits.
        if stack and stack[-1] is span:
            stack.pop()
        else:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is span:
                    del stack[index]
                    break
        self.spans.append(span)

    def event(self, name: str, category: str = "event", duration: float = 0.0, **args) -> None:
        """Record an already-measured (or instant) span without entering it.

        Used for post-hoc summaries — e.g. per-operator counters sampled
        once at stream exhaustion — where only the duration (possibly
        zero) is known, not the original start time.
        """
        if not self.enabled:
            return
        end = perf_counter()
        parent = self._stack[-1] if self._stack else None
        span = Span(name, category, end - duration, parent, args or None)
        span.end = end
        self.spans.append(span)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every finished span (open spans keep recording)."""
        self.spans.clear()
        self.epoch = perf_counter()

    def phase_totals(self, category: str = "phase") -> Dict[str, float]:
        """Total seconds per span name within one category.

        The per-phase breakdown of a traced run: summing
        repeated spans (one per query of a workload loop) gives the
        share of wall time spent parsing / planning / lowering /
        executing.
        """
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.category != category or span.end is None:
                continue
            totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start)
        return totals

    def __len__(self) -> int:
        return len(self.spans)


def trace_iterator(
    tracer: Optional[Tracer],
    name: str,
    iterator: Iterator,
    category: str = "phase",
) -> Iterator:
    """Wrap an iterator in a span covering first ``next()`` to exhaustion.

    The span opens lazily (a never-consumed stream records nothing) and
    closes when the stream is exhausted or explicitly closed, with the
    consumed row count annotated.  With ``tracer`` ``None`` or disabled
    the items stream through untouched.
    """
    if tracer is None or not tracer.enabled:
        yield from iterator
        return
    with tracer.span(name, category) as span:
        rows = 0
        try:
            for item in iterator:
                rows += 1
                yield item
        finally:
            span.annotate(rows=rows)
