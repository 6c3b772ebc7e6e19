"""Dictionary-encoded storage subsystem.

The store the native engine executes on: terms are interned to integer
ids (:mod:`repro.store.dictionary`) and triples live in id-encoded SPO /
POS / OSP indexes (:mod:`repro.store.encoded`), at a fraction of the
per-triple footprint of the boxed-object seed graph.  Planned evaluation
runs on :class:`EncodedGraph` only.  A streaming bulk loader
(:mod:`repro.store.bulk`) ingests N-Triples / Turtle in one pass, and
binary snapshots (:mod:`repro.store.snapshot`) give instant warm starts.

Backend selection
-----------------
:func:`create_graph` builds a graph for a named backend:

* ``"encoded"`` (the default) — :class:`EncodedGraph` (dictionary-encoded
  ids), the store the native engine runs on;
* ``"hash"`` — the seed :class:`repro.rdf.graph.Graph` (boxed terms): a
  store for the translation path and the unplanned reference evaluation,
  which read only the term surface.

The workload generators and the experiment harness accept a ``backend=``
switch that is routed here.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.rdf.graph import Graph
from repro.rdf.terms import Triple
from repro.store.bulk import bulk_load_ntriples, bulk_load_path, bulk_load_turtle, infer_format
from repro.store.dictionary import TermDictionary
from repro.store.encoded import EncodedGraph
from repro.store.snapshot import SnapshotError, load_snapshot, save_snapshot

#: Registered graph backends, by name.
GRAPH_BACKENDS = {
    "hash": Graph,
    "encoded": EncodedGraph,
}

DEFAULT_BACKEND = "encoded"


def open_graph(
    path=None,
    backend: Optional[str] = None,
    snapshot=None,
    format: Optional[str] = None,
):
    """One entry point for every way of opening a graph.

    * ``open_graph()`` — an empty graph of the default backend,
    * ``open_graph("data.nt")`` — load a file (format inferred from the
      extension, or forced with ``format=``); the encoded backend takes
      the streaming bulk-load path, the hash backend the seed parsers,
    * ``open_graph("data.nt", snapshot="data.snap")`` — warm start: load
      the binary snapshot when it exists, otherwise parse the source and
      write the snapshot for next time,
    * ``open_graph(snapshot="data.snap")`` — snapshot only (must exist
      unless you want an empty graph persisted there).

    ``backend=None`` means ``"encoded"``; ``snapshot=`` requires it.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if snapshot is not None:
        if backend != "encoded":
            raise ValueError(
                f"snapshots require the encoded backend, not {backend!r}"
            )
        if os.path.exists(snapshot):
            return load_snapshot(snapshot)
    if backend not in GRAPH_BACKENDS:
        raise ValueError(
            f"unknown graph backend {backend!r}; available: {sorted(GRAPH_BACKENDS)}"
        )
    if path is None:
        graph = create_graph(backend)
    elif backend == "encoded":
        graph = bulk_load_path(path, format=format)
    else:
        from repro.rdf.ntriples import parse_ntriples
        from repro.rdf.turtle import parse_turtle

        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if infer_format(path, format) == "ntriples":
            graph = parse_ntriples(text)
        else:
            graph = parse_turtle(text)
    if snapshot is not None:
        save_snapshot(graph, snapshot)
    return graph


def create_graph(
    backend: Optional[str] = None, triples: Optional[Iterable[Triple]] = None
):
    """Build an empty (or pre-filled) graph for the named backend
    (``None``: :data:`DEFAULT_BACKEND`, the encoded store)."""
    name = backend if backend is not None else DEFAULT_BACKEND
    try:
        factory = GRAPH_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown graph backend {name!r}; available: {sorted(GRAPH_BACKENDS)}"
        ) from None
    return factory(triples)


__all__ = [
    "DEFAULT_BACKEND",
    "EncodedGraph",
    "GRAPH_BACKENDS",
    "SnapshotError",
    "TermDictionary",
    "bulk_load_ntriples",
    "bulk_load_path",
    "bulk_load_turtle",
    "create_graph",
    "load_snapshot",
    "open_graph",
    "save_snapshot",
]
