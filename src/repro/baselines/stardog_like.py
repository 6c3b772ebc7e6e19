"""An ontology-aware baseline playing the Stardog role (Figure 10).

Stardog answers SPARQL queries under ontologies.  The reproduction models
it as *materialisation followed by native evaluation*: the ontology
closure (subclass, subproperty, domain, range) is computed up front over
the dataset and the query is evaluated by the native evaluator
(``ExecutionProfile.FULL``).

The paper reports Stardog much slower than SparqLog — up to a timeout —
on recursive property-path queries with two variables.  This engine does
not model that cost: the native evaluator runs property paths
set-at-a-time (:mod:`repro.sparql.idpaths`), a closure expanding over one
successor memo per call rather than anew from each start node.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.baselines.interface import EngineError, SparqlEngine
from repro.core.ontology import Ontology
from repro.rdf.graph import Dataset
from repro.sparql.evaluator import EvaluationError, SparqlEvaluator
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.sparql.solutions import SolutionSequence


class StardogLikeEngine(SparqlEngine):
    """Materialise the ontology, then evaluate queries natively."""

    name = "StardogLike"

    def __init__(self, dataset: Dataset, ontology: Optional[Ontology] = None) -> None:
        super().__init__(dataset)
        self.ontology = ontology or Ontology()
        self._materialized: Optional[Dataset] = None

    def load(self, dataset: Dataset) -> None:
        super().load(dataset)
        self._materialized = None

    def _materialized_dataset(self) -> Dataset:
        if self._materialized is None:
            default = self.ontology.materialize(self.dataset.default_graph)
            named = {
                name: self.ontology.materialize(graph)
                for name, graph in self.dataset.named_graphs.items()
            }
            self._materialized = Dataset(default, named)
        return self._materialized

    def query(self, query_text: str) -> Union[SolutionSequence, bool]:
        try:
            parsed = parse_query(query_text)
        except SparqlSyntaxError as error:
            raise EngineError(f"parse error: {error}") from error
        evaluator = SparqlEvaluator(self._materialized_dataset())
        try:
            return evaluator.evaluate(parsed)
        except EvaluationError as error:
            raise EngineError(str(error)) from error
