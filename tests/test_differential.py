"""Differential testing: SparqLog vs the reference evaluator.

The strongest correctness evidence for the translation is that, on every
query the two engines both support, SparqLog's answer multiset equals the
reference evaluator's.  This module runs a broad query battery over
several datasets (the paper's running examples plus small generated
workloads) and compares results row-for-row.
"""

import pytest

from repro.core.engine import SparqLogEngine
from repro.engine import create_engine
from repro.compliance.compare import results_equal
from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Triple
from repro.store import EncodedGraph
from repro.workloads.beseppi import BeSEPPIWorkload
from repro.workloads.sp2bench import SP2BenchWorkload

from tests.helpers import EX, countries_dataset, directors_dataset

PREFIX = "PREFIX ex: <http://ex.org/>\n"

#: Queries over the running-example datasets covering every supported
#: construct of Table 1.
DIFFERENTIAL_QUERIES = [
    "SELECT ?x ?y WHERE { ?x ex:borders ?y }",
    "SELECT ?y WHERE { ex:spain ex:borders ?y }",
    "SELECT ?x WHERE { ?x ex:borders ex:germany }",
    "SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }",
    "SELECT DISTINCT ?b WHERE { ?a ex:borders ?b }",
    "SELECT ?a ?b WHERE { ?a ex:borders ?b FILTER (?a = ex:france) }",
    "SELECT ?a ?b WHERE { ?a ex:borders ?b FILTER (?a != ex:france) }",
    "SELECT ?a WHERE { ?a ex:borders ?b FILTER (BOUND(?b)) }",
    "SELECT ?x WHERE { { ex:spain ex:borders ?x } UNION { ex:france ex:borders ?x } }",
    "SELECT ?x ?y WHERE { { ?x ex:borders ex:france } UNION { ex:belgium ex:borders ?y } }",
    "SELECT ?x ?y WHERE { ?x ex:borders ?y MINUS { ?x ex:borders ex:germany } }",
    "SELECT ?x ?y ?z WHERE { ?x ex:borders ?y OPTIONAL { ?y ex:borders ?z } }",
    "SELECT ?x ?z WHERE { ?x ex:borders ?y OPTIONAL { ?y ex:borders ?z FILTER (?z = ex:austria) } }",
    "SELECT ?b WHERE { ex:spain ex:borders+ ?b }",
    "SELECT ?b WHERE { ex:spain ex:borders* ?b }",
    "SELECT ?b WHERE { ex:spain ex:borders? ?b }",
    "SELECT ?a WHERE { ?a ex:borders+ ex:austria }",
    "SELECT DISTINCT ?a ?b WHERE { ?a ex:borders+ ?b }",
    "SELECT DISTINCT ?a ?b WHERE { ?a (ex:borders|^ex:borders)+ ?b }",
    "SELECT ?a ?b WHERE { ?a ^ex:borders ?b }",
    "SELECT ?a ?b WHERE { ?a ex:borders/ex:borders ?b }",
    "SELECT ?a ?b WHERE { ?a (ex:borders|ex:borders) ?b }",
    "SELECT ?a ?b WHERE { ?a !(ex:nothing) ?b }",
    "SELECT ?a ?b WHERE { ?a ex:borders{2,3} ?b }",
    "SELECT ?b WHERE { ex:atlantis ex:borders* ?b }",
    "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:borders ?b } GROUP BY ?a",
    "SELECT ?a ?b WHERE { ?a ex:borders ?b } ORDER BY ?b LIMIT 3",
    "SELECT ?a ?b WHERE { ?a ex:borders ?b } ORDER BY DESC(?a) OFFSET 2",
    "ASK WHERE { ex:spain ex:borders ex:france }",
    "ASK WHERE { ex:spain ex:borders ex:austria }",
    "ASK WHERE { ?x ex:borders+ ex:spain }",
]

DIRECTOR_QUERIES = [
    "SELECT ?n ?l WHERE { ?x ex:name ?n OPTIONAL { ?x ex:lastname ?l } }",
    'SELECT ?n WHERE { ?x ex:name ?n FILTER (REGEX(?n, "^G")) }',
    "SELECT ?n WHERE { ?x ex:name ?n FILTER (ISLITERAL(?n)) }",
    "SELECT ?n ?l WHERE { ?x ex:name ?n . ?x ex:lastname ?l }",
    "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
    'SELECT ?n WHERE { ?x ex:name ?n FILTER (STRLEN(?n) > 5) }',
]


def _compare(dataset, query_text):
    native = create_engine(dataset)
    translated = SparqLogEngine(dataset, timeout_seconds=30)
    native_result = native.query(query_text)
    sparqlog_result = translated.query(query_text)
    assert results_equal(native_result, sparqlog_result), (
        f"results differ for query:\n{query_text}\n"
        f"native   : {sorted(map(str, native_result.rows())) if not isinstance(native_result, bool) else native_result}\n"
        f"sparqlog : {sorted(map(str, sparqlog_result.rows())) if not isinstance(sparqlog_result, bool) else sparqlog_result}"
    )


@pytest.mark.parametrize("query_text", DIFFERENTIAL_QUERIES)
def test_countries_differential(query_text):
    _compare(countries_dataset(), PREFIX + query_text)


@pytest.mark.parametrize("query_text", DIRECTOR_QUERIES)
def test_directors_differential(query_text):
    _compare(directors_dataset(), PREFIX + query_text)


def test_beseppi_differential_sample():
    """SparqLog matches the native engine on a sample of BeSEPPI queries."""
    workload = BeSEPPIWorkload()
    dataset = workload.dataset()
    sample = workload.queries()[::10]
    for query in sample:
        _compare(dataset, query.text)


def test_sp2bench_differential_small_scale():
    """SparqLog matches the native engine on the SP2Bench-like queries."""
    workload = SP2BenchWorkload(scale=0.04, seed=2)
    dataset = workload.dataset()
    for query in workload.queries():
        _compare(dataset, query.text)


def test_named_graph_differential():
    dataset = countries_dataset()
    dataset.add_named_graph(IRI("http://g1"), EncodedGraph([Triple(EX.a, EX.p, EX.b)]))
    queries = [
        "SELECT ?s ?o WHERE { GRAPH <http://g1> { ?s ex:p ?o } }",
        "SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:p ?o } }",
        "SELECT ?s WHERE { GRAPH ?g { ?s ex:p+ ?o } }",
    ]
    for query_text in queries:
        _compare(dataset, PREFIX + query_text)
