"""Baseline SPARQL engines used in the compliance and performance studies.

The paper compares SparqLog against Apache Jena Fuseki, OpenLink Virtuoso
and Stardog.  Those systems are closed or impractical to embed here, so
the reproduction plays one *behavioural profile* per system:

* the Fuseki role is the native engine itself,
  :func:`repro.engine.create_engine` — fully standard-compliant, as the
  paper finds Fuseki on every benchmark query;
* :class:`VirtuosoLikeEngine` — a relational-style engine that reproduces
  the documented non-standard behaviours of Virtuoso on property paths,
  DISTINCT and UNION duplicates, refusing some queries with
  :class:`EngineError`;
* :class:`StardogLikeEngine` — an ontology-materialising engine (the
  Stardog role in the Figure 10 experiment).

Both hold one :class:`~repro.engine.Engine` over their dataset.  Every
engine, SparqLog's included, answers ``query(text)``; that is all the
compliance runner and the experiment drivers call.  None of them models
the cost the paper measures for Fuseki or Stardog on recursive paths: the
native engine runs property paths set-at-a-time
(:mod:`repro.sparql.idpaths`).
"""

from repro.baselines.virtuoso_like import EngineError, VirtuosoLikeEngine
from repro.baselines.stardog_like import StardogLikeEngine

__all__ = [
    "EngineError",
    "StardogLikeEngine",
    "VirtuosoLikeEngine",
]
