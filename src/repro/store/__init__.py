"""Dictionary-encoded storage subsystem.

The store the native engine executes on: terms are interned to integer
ids (:mod:`repro.store.dictionary`) and triples live in id-encoded SPO /
POS / OSP indexes (:mod:`repro.store.encoded`), at a fraction of the
per-triple footprint of the boxed-object seed graph.  Planned evaluation
runs on :class:`EncodedGraph` only.  A streaming bulk loader
(:mod:`repro.store.bulk`) ingests N-Triples / Turtle in one pass, and
binary snapshots (:mod:`repro.store.snapshot`) give instant warm starts.

:func:`open_graph` and :func:`create_graph` build this store.  The seed
:class:`repro.rdf.graph.Graph` (boxed terms) is built directly: it is what
the seed parsers fill and the store the ``NAIVE`` reference evaluation
runs on as an oracle.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from repro.rdf.terms import Triple
from repro.store.bulk import bulk_load_ntriples, bulk_load_path, bulk_load_turtle
from repro.store.dictionary import TermDictionary
from repro.store.encoded import EncodedGraph
from repro.store.snapshot import SnapshotError, load_snapshot, save_snapshot


def open_graph(path=None, snapshot=None, format: Optional[str] = None) -> EncodedGraph:
    """One entry point for every way of opening a graph.

    * ``open_graph()`` — an empty graph,
    * ``open_graph("data.nt")`` — stream a file through the bulk loader
      (format inferred from the extension, or forced with ``format=``),
    * ``open_graph("data.nt", snapshot="data.snap")`` — warm start: load
      the binary snapshot when it exists, otherwise parse the source and
      write the snapshot for next time,
    * ``open_graph(snapshot="data.snap")`` — snapshot only (must exist
      unless you want an empty graph persisted there).
    """
    if snapshot is not None and os.path.exists(snapshot):
        return load_snapshot(snapshot)
    graph = EncodedGraph() if path is None else bulk_load_path(path, format=format)
    if snapshot is not None:
        save_snapshot(graph, snapshot)
    return graph


def create_graph(triples: Optional[Iterable[Triple]] = None) -> EncodedGraph:
    """An empty (or pre-filled) encoded graph."""
    return EncodedGraph(triples)


__all__ = [
    "EncodedGraph",
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
