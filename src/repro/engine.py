"""Unified engine/session facade.

Historically the public surface was a loose collection of pieces — build
a graph, wrap it in a :class:`~repro.rdf.graph.Dataset`, construct a
:class:`~repro.sparql.evaluator.SparqlEvaluator` with the right knobs,
parse queries yourself.  :func:`create_engine` assembles all of it into
one :class:`Engine` handle:

* ``engine.query(...)`` — parse + evaluate (SELECT → solution sequence,
  ASK → bool); a query text is parsed and prepared
  (:mod:`repro.sparql.evaltree`) once per engine,
* ``engine.materialize(...)`` — a live :class:`~repro.ivm.views.MaterializedView`
  maintained through change capture (see :mod:`repro.ivm`),
* ``engine.explain(...)`` / ``engine.explain_analyze(...)`` — plan
  inspection,
* ``engine.metrics()`` — the evaluator's metric snapshot (plan cache,
  WCOJ fallbacks, IVM counters),
* ``engine.close()`` — detaches every live view; the engine is a context
  manager.

Execution is configured with an
:class:`~repro.sparql.profile.ExecutionProfile` (presets ``FULL`` and
``NAIVE``) — the only configuration value there is.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.rdf.graph import Dataset, Graph
from repro.sparql.algebra import Query
from repro.sparql.evaltree import PreparedQuery
from repro.sparql.evaluator import ExplainAnalyzeReport, SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.plancache import BoundedMap
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import SolutionSequence
from repro.store import create_graph
from repro.ivm.views import MaterializedView, ViewRegistry
from repro.obs.tracer import NULL_SPAN, Tracer


#: How many query texts an engine keeps parsed and prepared.
PARSED_TEXTS = 256


class Engine:
    """One session over a dataset: evaluator, plan cache, live views."""

    def __init__(
        self,
        dataset: Dataset,
        profile: Optional[ExecutionProfile] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.dataset = dataset
        self.evaluator = SparqlEvaluator(dataset, profile=profile, tracer=tracer)
        self.views = ViewRegistry(self.evaluator, tracer)
        # text -> algebra + evaluation tree: pure in the text and the profile,
        # and the nodes are frozen, so every caller shares them.
        self._parsed = BoundedMap(PARSED_TEXTS)
        self._parsed.bind_metrics(
            self.evaluator.metrics_registry, "sparql_parse_cache", "Query texts"
        )
        self._closed = False

    # -- introspection -------------------------------------------------
    @property
    def graph(self):
        """The dataset's default graph (what views watch)."""
        return self.dataset.default_graph

    @property
    def profile(self) -> ExecutionProfile:
        return self.evaluator.profile

    @property
    def tracer(self) -> Optional[Tracer]:
        return self.evaluator.tracer

    def __repr__(self) -> str:
        return (
            f"Engine(profile={self.profile}, "
            f"graph={type(self.graph).__name__}({len(self.graph)} triples), "
            f"views={len(self.views.views)})"
        )

    # -- querying ------------------------------------------------------
    def _prepare(self, query: Union[str, Query]) -> Union[Query, PreparedQuery]:
        """A text parsed and prepared, the first time it is seen only; a parsed
        query as it is (the evaluator prepares it on the spot)."""
        if isinstance(query, str):
            return self._parsed.get(query, self._prepare_text)
        return query

    def _prepare_text(self, text: str) -> PreparedQuery:
        tracer = self.tracer
        with tracer.span("parse") if tracer is not None else NULL_SPAN:
            query = parse_query(text)
        return self.evaluator.prepare(query)

    def query(self, query: Union[str, Query]) -> Union[SolutionSequence, bool]:
        """Parse (if needed) and evaluate a SPARQL query."""
        return self.evaluator.evaluate(self._prepare(query))

    def explain(self, query: Union[str, Query]) -> str:
        """Render the physical plan of the query's BGP.

        Accepts a planned BGP, a lone triple pattern or a lone path
        pattern, each optionally FILTER-wrapped, and shows the plan
        :meth:`query` runs — with one exception: a *bare* lone path
        pattern (no FILTER over it) is answered by ``query`` on the id
        path engine (:mod:`repro.sparql.evaltree` has the rule); for it
        the rendering is the plan of the equivalent singleton BGP.
        """
        return self.evaluator.explain(self._prepare(query))

    def explain_analyze(self, query: Union[str, Query]) -> ExplainAnalyzeReport:
        """Execute the query's BGP and render the plan with measured counters.

        Same shapes as :meth:`explain`, with the same exception: a
        *bare* lone path pattern is measured here as a singleton BGP on
        the physical layer, while :meth:`query` runs the id path engine.
        """
        return self.evaluator.explain_analyze(self._prepare(query))

    def metrics(self):
        """Snapshot every engine metric (plan cache, IVM, store)."""
        return self.evaluator.metrics()

    # -- live views ----------------------------------------------------
    def materialize(self, query: Union[str, Query]) -> MaterializedView:
        """Materialize a SELECT query as a continuously-maintained view.

        The view stays consistent with every mutation of the engine's
        default graph — differentiated plans update in O(|change|), other
        shapes fall back to scoped re-evaluation.  See :mod:`repro.ivm.views`.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        if isinstance(query, str):
            query = self._prepare(query).query
        return self.views.materialize(query)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close every live view and detach the change-capture listeners."""
        if not self._closed:
            self._closed = True
            self.views.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def create_engine(
    data=None,
    profile: Optional[ExecutionProfile] = None,
    tracer: Optional[Tracer] = None,
) -> Engine:
    """Build an :class:`Engine` over a graph or dataset.

    ``data`` may be a graph (it becomes the default graph), a full
    :class:`~repro.rdf.graph.Dataset`, or ``None`` for an empty encoded
    store.  ``profile`` selects the execution configuration (default
    :attr:`ExecutionProfile.FULL
    <repro.sparql.profile.ExecutionProfile.FULL>`), which plans on an
    :class:`~repro.store.EncodedGraph` only; ``tracer`` attaches
    phase/operator tracing to everything the engine runs.
    """
    if data is None:
        dataset = Dataset(create_graph())
    elif isinstance(data, Dataset):
        dataset = data
    elif isinstance(data, Graph) or hasattr(data, "triples"):
        dataset = Dataset.from_graph(data)
    else:
        raise TypeError(
            f"cannot build an engine over {type(data).__name__}; "
            "pass a Graph, EncodedGraph or Dataset"
        )
    return Engine(dataset, profile=profile, tracer=tracer)
