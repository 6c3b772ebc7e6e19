"""An ontology-aware baseline playing the Stardog role (Figure 10).

Stardog answers SPARQL queries under ontologies.  The reproduction models
it as *materialisation followed by native evaluation*: the first query
computes the ontology closure (subclass, subproperty, domain, range) of
the dataset, and every query is answered by one
:class:`~repro.engine.Engine` (``ExecutionProfile.FULL``) over that
closure, until :meth:`StardogLikeEngine.load` replaces the dataset.

The paper reports Stardog much slower than SparqLog — up to a timeout —
on recursive property-path queries with two variables.  This engine does
not model that cost: the native evaluator runs property paths
set-at-a-time (:mod:`repro.sparql.idpaths`), a closure expanding over one
successor memo per call rather than anew from each start node.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.ontology import Ontology
from repro.engine import Engine
from repro.rdf.graph import Dataset
from repro.sparql.solutions import SolutionSequence


class StardogLikeEngine:
    """Materialise the ontology, then evaluate queries natively."""

    def __init__(self, dataset: Dataset, ontology: Optional[Ontology] = None) -> None:
        self.ontology = ontology or Ontology()
        self.load(dataset)

    def load(self, dataset: Dataset) -> None:
        """Answer over ``dataset`` from now on.  Its closure is computed by
        the next query, inside that query's time, as Stardog reasons when
        it answers."""
        self.dataset = dataset
        self.engine: Optional[Engine] = None

    def query(self, query_text: str) -> Union[SolutionSequence, bool]:
        if self.engine is None:
            default = self.ontology.materialize(self.dataset.default_graph)
            named = {
                name: self.ontology.materialize(graph)
                for name, graph in self.dataset.named_graphs.items()
            }
            self.engine = Engine(Dataset(default, named))
        return self.engine.query(query_text)
