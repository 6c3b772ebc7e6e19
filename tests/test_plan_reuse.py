"""Plans and compiled pipelines kept across writes.

One engine prepares, runs and re-runs a fixed set of queries while the
graph changes under it.  Every answer must be what a fresh engine and the
unplanned oracle on a hash copy give at that moment.  The queries cover
what a kept plan must survive: a constant the dictionary does not know at
compile time — in a pattern, a path endpoint and a leapfrog core — and
that is interned later; a predicate emptied and refilled; counts that
leave the factor-2 band; DISTINCT; and executions of a cached plan after
writes.  The counts of plan reuse are pinned in
``tests/test_ivm.py`` and ``tests/test_planner.py``.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro import create_engine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Triple
from repro.sparql import idexec, physical
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.operators import LeapfrogJoin
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.store import EncodedGraph

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"
#: ``ex:late`` and ``ex:r`` are in no starting triple, so not in the dictionary.
NODES = [EX[f"n{index}"] for index in range(4)] + [EX.late]
PREDICATES = [EX.p, EX.q, EX.r]

QUERIES = [
    PREFIX + text
    for text in (
        # A pattern constant.
        "SELECT ?s ?o WHERE { ?s ex:p ex:late . ?s ex:q ?o }",
        # A path endpoint.
        "SELECT ?o ?z WHERE { ex:late ex:p+ ?o . ?o ex:q ?z }",
        # A constant in a leapfrog core.
        "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a . ?a ex:q ex:late }",
        # A predicate that comes and goes, under a FILTER.
        "SELECT ?a ?c WHERE { ?a ex:r ?b . ?b ex:p ?c FILTER(?a != ?c) }",
        "SELECT DISTINCT ?a WHERE { ?a ex:p ?b . ?b ex:q ?c }",
        # A bare lone triple pattern at the root: a one-step plan.
        "SELECT ?o WHERE { ex:late ex:r ?o }",
    )
]

_base = st.lists(
    st.builds(
        Triple,
        st.sampled_from(NODES[:4]),
        st.sampled_from([EX.p, EX.q]),
        st.sampled_from(NODES[:4]),
    ),
    max_size=12,
)
_query = st.sampled_from(range(len(QUERIES)))
_operation = st.one_of(
    st.tuples(
        st.just("toggle"),
        st.builds(
            Triple, st.sampled_from(NODES), st.sampled_from(PREDICATES), st.sampled_from(NODES)
        ),
    ),
    # More than doubles a predicate's count: whatever was planned on it is out of band.
    st.tuples(st.just("grow"), st.sampled_from(PREDICATES)),
    # Links ex:late to every other node both ways, interning it if it was not.
    st.tuples(st.just("arrive"), st.sampled_from(PREDICATES)),
    st.tuples(st.just("empty"), st.sampled_from(PREDICATES)),
    # Run a query on the engine; its plan is then kept and re-run after
    # every later operation.
    st.tuples(st.just("run"), _query),
)


def _by_name(variables, rows) -> Counter:
    return Counter(tuple(sorted(zip((v.name for v in variables), row))) for row in rows)


def test_the_queries_cover_what_a_kept_plan_must_survive():
    engine = create_engine(EncodedGraph([Triple(EX.n0, EX.p, EX.n1), Triple(EX.n1, EX.q, EX.n0)]))
    plans = []
    for text in QUERIES:
        engine.query(text)
        plans.append(engine.evaluator.last_physical_plan)
    assert engine.metrics()["sparql_physical_cache_misses_total"] == len(QUERIES)
    assert isinstance(plans[2].root.child, LeapfrogJoin)
    assert plans[4].root.distinct
    unresolved = [
        sorted(term.value for form in plan._compiled.values() for _, term in form.unresolved)
        for plan in plans
    ]
    late, r = EX.late.value, EX.r.value
    assert unresolved == [[late], [late], [late], [r], [], [late, r]]


@settings(max_examples=60, deadline=None)
@given(_base, st.lists(_operation, min_size=1, max_size=16))
def test_one_engine_under_writes_answers_as_a_fresh_one(base, operations):
    graph = EncodedGraph(base)
    engine = create_engine(graph)
    #: query position -> the plan it last ran on.
    kept = {}
    grown = 0

    def oracle(position):
        query = parse_query(QUERIES[position])
        return SparqlEvaluator(
            Dataset.from_graph(Graph(graph)), profile=ExecutionProfile.NAIVE
        ).evaluate(query)

    for operation in operations:
        kind = operation[0]
        if kind == "toggle":
            triple = operation[1]
            (graph.remove if triple in graph else graph.add)(triple)
        elif kind == "grow":
            count = graph.predicate_cardinality(operation[1]) + 2
            graph.update(
                Triple(EX[f"g{grown + k}"], operation[1], EX[f"g{grown + k + 1}"])
                for k in range(count)
            )
            grown += count + 1
        elif kind == "arrive":
            graph.update(
                edge
                for node in NODES[:4]
                for edge in (Triple(node, operation[1], EX.late), Triple(EX.late, operation[1], node))
            )
        elif kind == "empty":
            for triple in list(graph.triples(None, operation[1], None)):
                graph.remove(triple)
        else:
            text = QUERIES[operation[1]]
            assert engine.query(text) == create_engine(graph).query(text) == oracle(operation[1])
            kept[operation[1]] = engine.evaluator.last_physical_plan
        # Every kept plan, whatever was written since it was planned.
        for position, plan in kept.items():
            naive = oracle(position)
            header = idexec.row_header(plan)
            rows = physical.execute_rows(plan, graph)
            assert _by_name(header, rows) == _by_name(naive.variables, naive.rows())
    assert len(engine.evaluator.lowered_plans) <= len(QUERIES)
