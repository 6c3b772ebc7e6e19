"""What the engines keep between queries.

:class:`PlanCache` is the evaluator's cache of lowered
:class:`~repro.sparql.operators.PhysicalPlan` values, kept across writes
while the statistics each was planned on hold.
:class:`BoundedMap` is what both engines keep per query *text*: the parsed
algebra with its evaluation tree on the native engine, the whole prepared
form on the translation path."""

from __future__ import annotations

import weakref
from functools import partial
from typing import Callable, Dict, Hashable, Tuple

from repro.obs.metrics import Counter, MetricsRegistry


class BoundedMap:
    """``key -> build(key)``, built on first request, at most ``size`` entries.

    For values that are a pure function of their key (a query text), so an
    entry is never stale.  Beyond ``size`` the oldest *inserted* entry
    goes — not LRU, for the reason :class:`PlanCache` gives: no upkeep on
    a hit.  A ``build`` that raises inserts nothing.  ``hits``, ``misses``
    and ``evictions`` are plain counts; :meth:`bind_metrics` exposes them.
    """

    __slots__ = ("size", "hits", "misses", "evictions", "_entries")

    def __init__(self, size: int) -> None:
        self.size = size
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: Dict[Hashable, object] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def values(self):
        return self._entries.values()

    def bind_metrics(self, registry: MetricsRegistry, prefix: str, what: str) -> None:
        """Register ``<prefix>_{hits,misses,evictions}_total`` callbacks reading this map."""
        for count, event in (
            ("hits", "found kept"),
            ("misses", "built"),
            ("evictions", "dropped because the map was full"),
        ):
            registry.counter(
                f"{prefix}_{count}_total", f"{what} {event}", callback=partial(getattr, self, count)
            )

    def get(self, key: Hashable, build: Callable):
        """The value for ``key``, built by ``build(key)`` on a miss."""
        entries = self._entries
        value = entries.get(key)
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = entries[key] = build(key)
        if len(entries) > self.size:
            del entries[next(iter(entries))]
            self.evictions += 1
        return value


class PlanCache:
    """Bounded cache of plans built by ``build(graph, *key)``.

    Planning and lowering are pure in what is planned and in the graph's
    statistics, and a plan answers correctly on any contents of its
    graph: what a write can make stale is only the *choice* of plan.  So
    a plan is kept while ``holds(graph, plan)`` — the statistics it was
    chosen on have not moved enough to change that choice.  The policy,
    stated once:

    * **One slot per (graph, key)** — an entry is ``(id(graph), key) ->
      [weak graph reference, graph.version, plan]``.  Every mutation
      bumps the graph's version stamp.  At the stamped version a lookup
      is a hit without looking further.  At another, ``holds`` decides:
      true restamps the slot and is a hit (also counted as a
      revalidation), false is a miss and the slot is overwritten in
      place (keeping its place in the eviction order), because a plan
      for an older version can never be asked for again.  A graph under
      write churn therefore holds one entry per distinct query, not one
      per query and version.  A key with an unhashable component is
      built afresh every time (counted as a miss).
    * **id() reuse** — ``id()`` values are recycled after garbage
      collection, so a slot only counts as a hit while the graph its weak
      reference names is still the one being queried.
    * **Dead-graph sweep** — a miss is the cheap moment to drop slots
      whose graph has been collected: they can never hit again, yet would
      otherwise crowd out plans for live graphs until the bound pushed
      them out.  The walk reads values of a plain ``dict``, so it hashes
      no key.
    * **Bound** — beyond ``size`` slots the oldest *inserted* slot is
      evicted.  Deliberately not LRU: recency upkeep on a hit would
      re-hash the whole key (pattern tuples, FILTER expressions) on the
      hot path, and the cache exists to amortise repeated queries, not to
      rank them.

    Hits, revalidations (the hits across a version), misses and
    evictions (bound overflow or dead graph) go to the counters handed in.
    """

    def __init__(
        self,
        build: Callable,
        holds: Callable[[object, object], bool],
        hits: Counter,
        revalidations: Counter,
        misses: Counter,
        evictions: Counter,
        size: int = 256,
    ) -> None:
        self.build = build
        self.holds = holds
        self.size = size
        self._hits = hits
        self._revalidations = revalidations
        self._misses = misses
        self._evictions = evictions
        self._entries: Dict[Tuple, list] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, graph, *key):
        """Return the plan for ``key`` over ``graph``, building it on a miss."""
        entries = self._entries
        version = graph.version
        try:
            slot = (id(graph), key)
            cached = entries.get(slot)
        except TypeError:  # unhashable pattern or condition component
            slot = cached = None
        if cached is not None and cached[0]() is graph:
            if cached[1] == version:
                self._hits.inc()
                return cached[2]
            if self.holds(graph, cached[2]):
                # Restamped in place: no second hash of the key.
                cached[1] = version
                self._hits.inc()
                self._revalidations.inc()
                return cached[2]
        self._misses.inc()
        plan = self.build(graph, *key)
        if slot is not None:
            dead = [
                stale for stale, entry in entries.items() if entry[0]() is None
            ]
            for stale in dead:
                del entries[stale]
            entries[slot] = [weakref.ref(graph), version, plan]
            evicted = len(dead)
            if len(entries) > self.size:
                del entries[next(iter(entries))]
                evicted += 1
            if evicted:
                self._evictions.inc(evicted)
        return plan
