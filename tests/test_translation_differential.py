"""Differential test of the translation path over the paper's workloads.

``SparqLogEngine.query`` closes the dataset's T_D program once and runs
only the T_Q rules per query.  For every query of small SP2Bench, gMark
(recursive included), BeSEPPI, FEASIBLE and the ontology workload, a warm
engine's answer must be bag-equal to

* evaluating the whole translated program from scratch
  (``DatalogEngine().evaluate(engine.translate(q)[0])`` followed by T_S), and
* the native engine in its ``FULL`` profile on the same triples (for the
  ontology workload: on the graph saturated under the ontology).
"""

import pytest

from repro import ExecutionProfile, create_engine
from repro.compliance.compare import results_equal
from repro.core.engine import SparqLogEngine
from repro.core.solution_translation import SolutionTranslator
from repro.datalog.engine import DatalogEngine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Triple
from repro.sparql.algebra import SelectQuery
from repro.sparql.parser import parse_query
from repro.workloads.beseppi import BeSEPPIWorkload
from repro.workloads.feasible import FeasibleWorkload
from repro.workloads.gmark import GMarkWorkload
from repro.workloads.ontology_bench import OntologyBenchmark
from repro.workloads.sp2bench import SP2BenchWorkload

from tests.helpers import EX, countries_graph

WORKLOADS = {
    "sp2bench": lambda: SP2BenchWorkload(scale=0.05),
    "gmark": lambda: GMarkWorkload(scale=0.05, query_count=20),
    "beseppi": BeSEPPIWorkload,
    "feasible": lambda: FeasibleWorkload(scale=0.15),
    "ontology": lambda: OntologyBenchmark(scale=0.05),
}


def same_answer(parsed, left, right) -> bool:
    """Bag equality; a LIMIT/OFFSET slice is a free choice among ties, so
    only its size is compared."""
    if isinstance(parsed, SelectQuery) and (parsed.limit is not None or parsed.offset):
        return len(left) == len(right)
    return results_equal(left, right)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_warm_engine_agrees_with_from_scratch_and_native(name):
    workload = WORKLOADS[name]()
    dataset = workload.dataset()
    ontology = getattr(workload, "ontology", None)
    warm = SparqLogEngine(dataset, ontology=ontology)
    reference = dataset
    if ontology is not None:
        reference = Dataset.from_graph(ontology.materialize(dataset.default_graph))
    native = create_engine(reference, ExecutionProfile.FULL)

    queries = workload.queries()
    if name == "gmark":
        assert any("RecursivePath" in query.features for query in queries)
    for query in queries:
        parsed = parse_query(query.text)
        answer = warm.query(parsed)

        program, translation = warm.translate(parsed)
        relations = DatalogEngine().evaluate(program)
        from_scratch = SolutionTranslator().translate(relations, translation)
        assert same_answer(parsed, answer, from_scratch), f"{name} {query.query_id}: from scratch"
        assert same_answer(parsed, answer, native.query(parsed)), f"{name} {query.query_id}: native"

    # One materialisation served every query.
    assert warm.base_rebuilds == 1
    assert warm.base_hits == len(queries) - 1


def test_from_clauses_resolve_alike_on_both_engines():
    """FROM / FROM NAMED over a known and an unknown IRI (which stands for
    the default graph): one rule, ``Dataset.active``, read by both engines."""
    dataset = Dataset(Graph([Triple(EX.here, EX.borders, EX.there)]))
    dataset.add_named_graph(IRI("http://g1"), countries_graph())
    native, translated = create_engine(dataset), SparqLogEngine(dataset)
    for text, answers in [
        ("SELECT ?s ?o FROM <http://g1> WHERE { ?s ?p ?o }", 5),
        ("SELECT ?s ?o FROM <http://unknown> WHERE { ?s ?p ?o }", 1),
        ("SELECT ?s ?o FROM <http://g1> FROM <http://unknown> WHERE { ?s ?p ?o }", 6),
        (
            "SELECT ?g ?s FROM NAMED <http://g1> FROM NAMED <http://unknown>"
            " WHERE { GRAPH ?g { ?s ?p ?o } }",
            6,
        ),
        ("SELECT ?s FROM NAMED <http://g1> WHERE { ?s ?p ?o }", 0),
    ]:
        answer = native.query(text)
        assert len(answer) == answers, text
        assert results_equal(answer, translated.query(text)), text
