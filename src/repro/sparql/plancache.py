"""The evaluator's plan cache: one class, instantiated once for logical
:class:`~repro.sparql.plan.BGPPlan` values and once for lowered
:class:`~repro.sparql.physical.PhysicalPlan` values."""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Tuple

from repro.obs.metrics import Counter


class PlanCache:
    """Bounded cache of plans built by ``build(graph, *key)``.

    Planning and lowering are pure in what is planned and in the graph's
    statistics, so a plan is reusable exactly while the graph is
    unchanged.  The policy, stated once:

    * **Validity** — an entry is keyed by ``(id(graph), graph.version,
      key)``.  Every mutation bumps the graph's version stamp, so a stale
      plan can never be looked up again.  A key with an unhashable
      component is built afresh every time (counted as a miss).
    * **id() reuse** — ``id()`` values are recycled after garbage
      collection, so each entry holds a weak reference to the graph that
      produced it and only counts as a hit while that graph is still the
      one being queried.
    * **Dead-graph sweep** — a miss is the cheap moment to drop entries
      whose graph has been collected: they can never hit again, yet would
      otherwise crowd out plans for live graphs until the bound pushed
      them out.
    * **Bound** — beyond ``size`` entries the oldest *inserted* entry is
      evicted.  Deliberately not LRU: recency upkeep on a hit would
      re-hash the whole key (pattern tuples, FILTER expressions) on the
      hot path, and the cache exists to amortise repeated queries, not to
      rank them.

    Hits, misses and evictions (bound overflow or dead graph) go to the
    counters handed in, so each instance reports under its own metric
    names.
    """

    def __init__(
        self,
        build: Callable,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
        size: int = 256,
    ) -> None:
        self.build = build
        self.size = size
        self._hits = hits
        self._misses = misses
        self._evictions = evictions
        self._entries: "OrderedDict[Tuple, Tuple[weakref.ref, object]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, graph, *key):
        """Return the plan for ``key`` over ``graph``, building it on a miss."""
        entries = self._entries
        try:
            full_key = (id(graph), graph.version, key)
            cached = entries.get(full_key)
        except TypeError:  # unhashable pattern or condition component
            full_key = cached = None
        if cached is not None and cached[0]() is graph:
            self._hits.inc()
            return cached[1]
        self._misses.inc()
        plan = self.build(graph, *key)
        if full_key is not None:
            dead = [
                stale_key
                for stale_key, (graph_ref, _) in entries.items()
                if graph_ref() is None
            ]
            for stale_key in dead:
                del entries[stale_key]
            entries[full_key] = (weakref.ref(graph), plan)
            evicted = len(dead)
            if len(entries) > self.size:
                entries.popitem(last=False)
                evicted += 1
            if evicted:
                self._evictions.inc(evicted)
        return plan
