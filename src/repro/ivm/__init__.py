"""Incremental view maintenance (IVM).

Z-set (weighted-multiset) deltas flow from the stores' change-capture
hooks through differentiated joins into continuously maintained
materialized views:

* :mod:`repro.ivm.zset` — the ±weighted-row primitives,
* :mod:`repro.ivm.delta` — the differentiated join of a pipeline's triple
  patterns (:class:`~repro.ivm.delta.DeltaPipeline`),
* :mod:`repro.ivm.views` — :class:`~repro.ivm.views.MaterializedView` and
  the :class:`~repro.ivm.views.ViewRegistry` that feeds views from change
  capture.

The public entry point is the engine facade::

    from repro import create_engine, open_graph

    engine = create_engine(open_graph("data.nt"))
    view = engine.materialize(
        "SELECT ?a ?c WHERE { ?a <p> ?b . ?b <p> ?c }"
    )
    view.on_change(lambda events: print(events))
    view.rows()   # always current, maintained in O(|change|)
"""

from repro.ivm.delta import DeltaPipeline, DeltaStats
from repro.ivm.views import MaterializedView, ViewRegistry
from repro.ivm.zset import (
    ZSet,
    zset_add,
    zset_diff,
    zset_from_rows,
    zset_merge,
)

__all__ = [
    "DeltaPipeline",
    "DeltaStats",
    "MaterializedView",
    "ViewRegistry",
    "ZSet",
    "zset_add",
    "zset_diff",
    "zset_from_rows",
    "zset_merge",
]
