"""Differential test of the translation path over the paper's workloads.

``SparqLogEngine.query`` closes the dataset's T_D program once and runs
only the T_Q rules per query.  For every query of small SP2Bench, gMark
(recursive included), BeSEPPI, FEASIBLE and the ontology workload, a warm
engine's answer must be bag-equal to

* evaluating the whole translated program from scratch
  (``DatalogEngine().evaluate(engine.translate(q)[0])`` followed by T_S), and
* the native engine in its ``FULL`` profile on the same triples (for the
  ontology workload: on the graph saturated under the ontology).

The engine keeps what it prepared for a query text, so at the end a
hypothesis test interleaves texts, writes, axioms, dataset swaps and runs
that hit the fact limit, and compares with a fresh engine at every step.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionProfile, create_engine
from repro.compliance.compare import results_equal
from repro.core.engine import SparqLogEngine
from repro.core.ontology import Ontology
from repro.core.solution_translation import SolutionTranslator
from repro.datalog.engine import DatalogEngine, EvaluationLimitExceeded
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Triple
from repro.sparql.algebra import SelectQuery
from repro.sparql.parser import parse_query
from repro.store import EncodedGraph
from repro.workloads.beseppi import BeSEPPIWorkload
from repro.workloads.feasible import FeasibleWorkload
from repro.workloads.gmark import GMarkWorkload
from repro.workloads.ontology_bench import OntologyBenchmark
from repro.workloads.sp2bench import SP2BenchWorkload

from tests.helpers import EX, countries_graph, rows_multiset

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
    dataset = Dataset(EncodedGraph([Triple(EX.here, EX.borders, EX.there)]))
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


# ----------------------------------------------------------------------
# hypothesis differential: a long-lived engine against a fresh one
# ----------------------------------------------------------------------
_PREFIX = "PREFIX ex: <http://ex.org/>\n"
#: One text per operator family the prepared form has to get right.
_TEXTS = [
    _PREFIX + "SELECT ?x ?z WHERE { ?x ex:p ?y . ?y ex:p ?z }",
    _PREFIX + "SELECT ?x ?z WHERE { ?x ex:p ?y OPTIONAL { ?y ex:q ?z } }",
    _PREFIX + "SELECT ?x ?y WHERE { ?x ex:p ?y MINUS { ?y ex:q ?z } }",
    _PREFIX + "SELECT ?x ?y WHERE { ?x ex:p ?y . ?x ex:q ?z FILTER(?y != ?z) }",
    _PREFIX + "SELECT ?y WHERE { ex:n0 ex:p+ ?y }",
    _PREFIX + "SELECT ?x ?y WHERE { ?x (ex:p|ex:q)* ?y }",
    _PREFIX + "SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x ex:p ?y } GROUP BY ?x",
    _PREFIX + "ASK WHERE { ?x ex:p+ ex:n0 }",
    _PREFIX + "SELECT ?g ?x WHERE { GRAPH ?g { ?x ex:q ?y } }",
    _PREFIX + "SELECT ?x WHERE { ?x a ex:C }",
]
_DIFF_NODES = [EX[f"n{index}"] for index in range(4)]
_diff_edge = st.tuples(
    st.sampled_from(_DIFF_NODES), st.sampled_from([EX.p, EX.q]), st.sampled_from(_DIFF_NODES)
)
_AXIOMS = [
    lambda ontology: ontology.add_subproperty(EX.q, EX.p),
    lambda ontology: ontology.add_domain(EX.p, EX.C),
    lambda ontology: ontology.add_subclass(EX.C, EX.D),
]
_step = st.one_of(
    st.tuples(st.just("query"), st.integers(0, len(_TEXTS) - 1)),
    st.tuples(st.just("query"), st.integers(0, len(_TEXTS) - 1)),
    st.tuples(st.just("toggle"), _diff_edge, st.booleans()),
    st.tuples(st.just("axiom"), st.integers(0, len(_AXIOMS) - 1)),
    st.tuples(st.just("load"), st.just(None)),
    st.tuples(st.just("limit"), st.integers(0, len(_TEXTS) - 1)),
)


_ROUNDS = re.compile(r" rounds=\d+")


def _two_graph_dataset(backend, edges) -> Dataset:
    default, named = backend(), backend()
    for position, edge in enumerate(edges):
        (named if position % 3 == 0 else default).add(Triple(*edge))
    dataset = Dataset(default)
    dataset.add_named_graph(IRI("http://g1"), named)
    return dataset


@settings(max_examples=40, deadline=None)
@given(
    first=st.lists(_diff_edge, min_size=0, max_size=10),
    second=st.lists(_diff_edge, min_size=0, max_size=10),
    steps=st.lists(_step, min_size=1, max_size=14),
    backend_index=st.integers(min_value=0, max_value=1),
)
def test_long_lived_engine_equals_a_fresh_one_at_every_step(first, second, steps, backend_index):
    """Whatever happened before — the same text, other texts, writes to
    either graph, a new axiom, another dataset, a run cut short by the fact
    limit — a warm engine answers like one built for the occasion."""
    backend = (Graph, EncodedGraph)[backend_index]
    datasets = [_two_graph_dataset(backend, first), _two_graph_dataset(backend, second)]
    ontology = Ontology()
    engine = SparqLogEngine(datasets[0], ontology=ontology)

    def check(text):
        fresh = SparqLogEngine(engine.dataset, ontology=ontology)
        assert results_equal(engine.query(text), fresh.query(parse_query(text))), text
        # Same bodies in the same order deriving the same number of tuples
        # (delta rounds depend on set iteration order).
        warm = engine.explain(text)
        assert warm.startswith("prepared: reused")
        assert _ROUNDS.sub("", warm.split("\n", 1)[1]) == _ROUNDS.sub("", fresh.explain(text)), text

    for step in steps:
        if step[0] == "query":
            check(_TEXTS[step[1]])
        elif step[0] == "toggle":
            graph = engine.dataset.named_graphs[IRI("http://g1")] if step[2] else (
                engine.dataset.default_graph
            )
            triple = Triple(*step[1])
            if triple in graph:
                graph.remove(triple)
            else:
                graph.add(triple)
        elif step[0] == "axiom":
            _AXIOMS[step[1]](ontology)
        elif step[0] == "load":
            datasets.reverse()
            engine.load(datasets[0])
        else:
            # A run that dies on the limit — at the first fact or half-way
            # through — must leave nothing the next run could trip over.
            text = _TEXTS[step[1]]
            for headroom in (0, 2, 5):
                engine.query("ASK { ?s ?p ?o }")  # the base exists and is current
                engine.max_facts = engine._base.fact_count + headroom
                try:
                    engine.query(text)
                except EvaluationLimitExceeded:
                    pass
                engine.max_facts = 5_000_000
            check(text)
    for text in _TEXTS:
        check(text)
    assert engine.prepared_misses <= len(_TEXTS) + 1


# ----------------------------------------------------------------------
# duplicate-sensitive shapes: tuple IDs trimmed and fused, bags kept
# ----------------------------------------------------------------------
#: Where the translation's tuple IDs keep duplicates apart, or must not.
_BAG_SHAPES = {
    "union of the same pattern": "SELECT ?x ?y WHERE { { ?x ex:p ?y } UNION { ?x ex:p ?y } }",
    "alternative of the same link": "SELECT ?x ?y WHERE { ?x (ex:p|ex:p) ?y }",
    "inverse then forward": "SELECT ?x ?y WHERE { ?x ^ex:p/ex:p ?y }",
    "optional alternative": "SELECT ?x ?y WHERE { ?x (ex:p|ex:q)? ?y }",
    "closure of a sequence": "SELECT ?x ?y WHERE { ?x (ex:p/ex:q)+ ?y }",
    "nested optional": (
        "SELECT ?x ?y ?z WHERE { ?x ex:p ?y OPTIONAL { ?y ex:q ?z OPTIONAL { ?z ex:p ?x } } }"
    ),
    "count over an alternative": (
        "SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x (ex:p|ex:q)/(ex:q|ex:p) ?y } GROUP BY ?x"
    ),
}


@settings(max_examples=30, deadline=None)
@given(edges=st.lists(_diff_edge, min_size=0, max_size=12))
def test_duplicate_sensitive_shapes_keep_their_bags(edges):
    """Unfolding drops the ID columns nothing reads and fuses ID chains:
    every shape whose answer counts duplicates answers the same bag as the
    native engine, planned (``FULL``) and the oracle (``NAIVE``)."""
    triples = [Triple(*edge) for edge in edges]
    translated = SparqLogEngine(Dataset.from_graph(Graph(triples)))
    planned = create_engine(Dataset.from_graph(EncodedGraph(triples)), ExecutionProfile.FULL)
    oracle = create_engine(Dataset.from_graph(Graph(triples)), ExecutionProfile.NAIVE)
    for name, body in _BAG_SHAPES.items():
        text = _PREFIX + body
        answer = rows_multiset(translated.query(text))
        assert answer == rows_multiset(planned.query(text)), name
        assert answer == rows_multiset(oracle.query(text)), name
