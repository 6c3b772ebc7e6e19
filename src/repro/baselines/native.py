"""The standard-compliant native engine (the "Jena Fuseki" role).

A thin wrapper around the native evaluator (``ExecutionProfile.FULL``).
Its behaviour is fully standard-compliant — the paper's compliance
experiments find Fuseki correct on every benchmark query.  It does not
model Fuseki's cost on the recursive gMark workloads (Section 6.3): its
property paths run set-at-a-time in :mod:`repro.sparql.idpaths`, every
path operator computing its whole extension of id pairs at once and a
closure expanding over one successor memo per call.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.baselines.interface import EngineError, SparqlEngine
from repro.rdf.graph import Dataset
from repro.sparql.evaluator import EvaluationError, SparqlEvaluator
from repro.sparql.parser import SparqlSyntaxError, parse_query
from repro.sparql.solutions import SolutionSequence


class NativeSparqlEngine(SparqlEngine):
    """Directly evaluate the SPARQL algebra over the dataset."""

    name = "Native"

    def __init__(self, dataset: Dataset) -> None:
        super().__init__(dataset)

    def query(self, query_text: str) -> Union[SolutionSequence, bool]:
        try:
            parsed = parse_query(query_text)
        except SparqlSyntaxError as error:
            raise EngineError(f"parse error: {error}") from error
        evaluator = SparqlEvaluator(self.dataset)
        try:
            return evaluator.evaluate(parsed)
        except EvaluationError as error:
            raise EngineError(str(error)) from error
        except RecursionError as error:  # pragma: no cover - defensive
            raise EngineError("recursion limit exceeded") from error
