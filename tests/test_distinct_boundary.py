"""DISTINCT at the result boundary of a plan.

When a query keeps one row per distinct projected row and the plan emits
exactly the projection, ``Project.distinct`` drops a repeated *id tuple*
before a term is decoded; the evaluator's modifier tail then skips
``distinct_rows``.  Pinned here:

* a count test: a q4-shaped query decodes ``distinct rows x projected
  width`` terms and builds no ``Binding``;
* which queries carry the flag, read off the plan;
* the answers: bag-equal across ``FULL``, the unplanned ``NAIVE`` oracle
  on the hash store and ``SparqLogEngine``, and row for row
  those of the same plan decoding first and dropping afterwards (the flag
  withheld from the lowering pass), for DISTINCT / REDUCED x ORDER BY / LIMIT / OFFSET /
  ``SELECT *`` / ``AS`` / an unbound projected variable / HAVING / GROUP BY
  / a leapfrog plan / OPTIONAL / ``initial=``;
* one query text with and without DISTINCT is two lowered plans.
"""

from collections import Counter

import pytest

from repro.core.engine import SparqLogEngine
from repro.core.query_translation import UnsupportedFeatureError
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Literal, Triple, Variable
from repro.sparql import operators, physical
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.idexec import row_header
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding, distinct_rows
from repro.store import EncodedGraph
from repro.workloads.sp2bench import SP2BenchWorkload, sp2bench_queries

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"


# ----------------------------------------------------------------------
# the count test
# ----------------------------------------------------------------------
def test_q4_decodes_and_boxes_only_the_rows_it_keeps(monkeypatch):
    (q4,) = [query.text for query in sp2bench_queries() if query.query_id == "q4"]
    graph = EncodedGraph(SP2BenchWorkload(scale=0.05).dataset().default_graph)
    built = []
    original = Binding.from_sorted_items.__func__
    monkeypatch.setattr(
        Binding,
        "from_sorted_items",
        classmethod(lambda cls, items: built.append(1) or original(cls, items)),
    )
    decodes = graph.dictionary.enable_counters()
    evaluator = SparqlEvaluator(Dataset.from_graph(graph))
    before = decodes.decodes
    result = evaluator.evaluate(parse_query(q4))

    plan = evaluator.last_physical_plan
    assert plan.explain().splitlines()[0] == "Project [?name1, ?name2] distinct"
    joined, emitted = plan.root.child.stats.rows, plan.root.stats.rows
    assert joined > emitted == len(result) > 0  # the join produced duplicates
    assert decodes.decodes - before == len(result) * 2  # ?name1, ?name2 per kept row
    assert built == []  # rows are tuples: no Binding, kept or dropped
    assert len(set(result.rows())) == len(result)
    # The reference: decode everything the join produced, then drop.
    assert _dropping_after_decoding(parse_query(q4), graph).bindings == result.bindings


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def _triples():
    """Five subjects of two kinds, names shared between them, two links each:
    every projection below has duplicates."""
    triples = []
    for index in range(5):
        subject = EX[f"s{index}"]
        triples.append(Triple(subject, EX.kind, EX.A if index % 2 else EX.B))
        triples.append(Triple(subject, EX.name, Literal(f"n{index % 3}")))
        triples.append(Triple(subject, EX.link, EX[f"s{(index + 1) % 5}"]))
        triples.append(Triple(subject, EX.link, EX[f"s{(index + 2) % 5}"]))
    return triples


_BODY = "?x ex:kind ?k . ?x ex:name ?n . ?x ex:link ?y"
_TRIANGLE = "?a ex:link ?b . ?b ex:link ?c . ?c ex:link ?a"

def _select(head, body=_BODY, tail=""):
    return f"SELECT {head} WHERE {{ {body} }} {tail}".strip()


#: (id, query after PREFIX, the top plan's Project is distinct, sliced without a total order)
_CASES = [
    ("distinct", _select("DISTINCT ?k ?n"), True, False),
    ("reduced", _select("REDUCED ?k ?n"), True, False),
    ("plain", _select("?k ?n"), False, False),
    ("order-projected", _select("DISTINCT ?k ?n", tail="ORDER BY DESC(?n) ?k"), True, False),
    ("order-expression", _select("DISTINCT ?k ?n", tail="ORDER BY STR(?n)"), True, False),
    ("order-unprojected", _select("DISTINCT ?k ?n", tail="ORDER BY ?y ?x"), False, False),
    (
        "order-limit-offset",
        _select("DISTINCT ?k ?n", tail="ORDER BY ?n ?k LIMIT 3 OFFSET 1"),
        True,
        False,
    ),
    ("limit", _select("DISTINCT ?k ?n", tail="LIMIT 4"), True, True),
    ("offset", _select("REDUCED ?n", tail="OFFSET 2"), True, True),
    ("star", _select("DISTINCT *"), True, False),
    ("star-filter", _select("DISTINCT *", _BODY + " FILTER(?n != 'n0')"), True, False),
    ("alias", _select("DISTINCT ?k (STR(?n) AS ?s)"), False, False),
    ("unbound-projected", _select("DISTINCT ?k ?missing"), False, False),
    ("having", _select("DISTINCT ?k ?n", tail="HAVING (?n != 'n1')"), False, False),
    ("group-by", _select("DISTINCT ?k (COUNT(?x) AS ?c)", tail="GROUP BY ?k"), False, False),
    ("aggregate", _select("DISTINCT (COUNT(?x) AS ?c)"), False, False),
    ("leapfrog", _select("DISTINCT ?a", _TRIANGLE), True, False),
    ("leapfrog-order", _select("DISTINCT ?a ?b", _TRIANGLE, "ORDER BY DESC(?b)"), True, False),
    ("lone-filter", _select("DISTINCT ?n", "?x ex:name ?n FILTER(?n != 'n0')"), True, False),
]
_cases = pytest.mark.parametrize(
    "query, distinct, sliced", [case[1:] for case in _CASES], ids=[case[0] for case in _CASES]
)


def _answers(query):
    """name -> answer of every engine, ``FULL`` on the encoded store first."""
    triples = _triples()
    parsed = parse_query(PREFIX + query.replace("'", '"'))
    evaluators = {
        "full/id": SparqlEvaluator(Dataset.from_graph(EncodedGraph(triples))),
        "naive/hash": SparqlEvaluator(
            Dataset.from_graph(Graph(triples)), profile=ExecutionProfile.NAIVE
        ),
    }
    answers = {name: evaluator.evaluate(parsed) for name, evaluator in evaluators.items()}
    if "HAVING" not in query:  # ungrouped HAVING is outside the translated fragment
        try:
            answers["sparqlog"] = SparqLogEngine(Dataset.from_graph(Graph(triples))).query(parsed)
        except UnsupportedFeatureError:
            assert "AS ?s" in query
    return parsed, evaluators, answers


def _dropping_after_decoding(parsed, graph=None):
    """The answer of ``FULL`` with the flag withheld: every joined row
    decoded and boxed, ``distinct_rows`` afterwards."""
    graph = EncodedGraph(_triples()) if graph is None else graph
    evaluator = SparqlEvaluator(Dataset.from_graph(graph))
    answer = evaluator.evaluate(evaluator.prepare(parsed)._replace(distinct=None))
    assert not evaluator.last_physical_plan.root.distinct
    return answer


@_cases
def test_the_plan_says_whether_it_drops_at_the_boundary(query, distinct, sliced):
    _, evaluators, _ = _answers(query)
    plans = {name: evaluator.last_physical_plan for name, evaluator in evaluators.items()}
    assert plans["full/id"].root.distinct is distinct
    assert plans["full/id"].explain().splitlines()[0].endswith("] distinct") is distinct
    assert plans["naive/hash"] is None  # the unplanned oracle has no plan
    if "ex:link ?a" in query:
        assert isinstance(plans["full/id"].root.child, operators.LeapfrogJoin)


@_cases
def test_answers_are_those_of_every_other_engine_in_the_pipeline_order(query, distinct, sliced):
    parsed, _, answers = _answers(query)
    full = answers["full/id"]
    reference = _dropping_after_decoding(parsed)
    assert (full.variables, full.bindings) == (reference.variables, reference.bindings)
    if parsed.distinct or parsed.reduced:
        assert len(set(full.bindings)) == len(full)
    for name, answer in answers.items():
        if sliced:
            # A slice without a total order is a free choice among the rows.
            assert len(answer) == len(full), name
        else:
            assert Counter(answer.rows()) == Counter(full.rows()), name
    if parsed.order_by and not sliced:
        keys = [tuple(row[v] for v in _order_variables(parsed) if v in row) for row in full]
        other = [
            tuple(row[v] for v in _order_variables(parsed) if v in row)
            for row in answers["naive/hash"]
        ]
        assert keys == other


def _order_variables(parsed):
    variables = []
    for condition in parsed.order_by:
        projected = set(parsed.projected_variables())
        variables += sorted(condition.expression.variables() & projected, key=repr)
    return variables


def test_optional_keeps_its_sides_undropped():
    """DISTINCT over an OPTIONAL is not a pipeline: neither side's plan may
    drop rows, the merged rows are what is distinct."""
    query = (
        "SELECT DISTINCT ?k ?m WHERE { ?x ex:kind ?k . ?x ex:link ?y "
        "OPTIONAL { ?y ex:name ?m . ?y ex:kind ?j FILTER(?j = ex:A) } }"
    )
    _, evaluators, answers = _answers(query)
    assert evaluators["full/id"].last_physical_plan.root.distinct is False
    for name, answer in answers.items():
        assert Counter(answer.rows()) == Counter(answers["full/id"].rows()), name
    assert len(set(answers["full/id"].bindings)) == len(answers["full/id"]) == 5


@pytest.mark.parametrize("join", ["binary", "leapfrog"])
def test_a_distinct_plan_under_initial_bindings(join):
    graph = EncodedGraph(_triples())
    a, b, c, x, k, n, y = (Variable(name) for name in "abcxkny")
    if join == "leapfrog":
        patterns = [(a, EX.link, b), (b, EX.link, c), (c, EX.link, a)]
        project, initials = (a,), [Binding(), Binding({a: EX.s0}), Binding({b: EX.s1, c: EX.s2})]
    else:
        patterns = [(x, EX.kind, k), (x, EX.name, n), (x, EX.link, y)]
        project = (k, n)
        initials = [Binding({y: EX.s2}), Binding({k: EX.A, y: EX.s3}), Binding({x: EX.gone})]
        initials.append(Binding())
    nodes = [TriplePatternNode(Triple(*parts)) for parts in patterns]
    dropping = physical.lower_bgp(graph, nodes, project=project, distinct=project)
    keeping = physical.lower_bgp(graph, nodes, project=project)
    assert dropping.root.distinct and not keeping.root.distinct
    assert isinstance(dropping.root.child, operators.LeapfrogJoin) is (join == "leapfrog")
    for initial in initials:
        assert row_header(dropping, initial) == row_header(keeping, initial)
        kept = list(physical.execute_rows(keeping, graph, initial=initial))
        dropped = list(physical.execute_rows(dropping, graph, initial=initial))
        assert dropped == distinct_rows(kept)
        assert dropping.root.stats.rows == len(dropped)
        assert dropping.root.child.stats.rows == keeping.root.child.stats.rows == len(kept)
    # Interleaved executions of the one plan keep their own sets of seen rows.
    first, second = physical.execute_rows(dropping, graph), physical.execute_rows(dropping, graph)
    rows = [next(first), next(second)]
    assert rows[0] == rows[1]
    expected = distinct_rows(physical.execute_rows(keeping, graph))
    assert [rows[0], *first] == [rows[1], *second] == expected


def test_one_text_with_and_without_distinct_is_two_lowered_plans():
    evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_triples())))
    text = PREFIX + f"SELECT %s ?k ?n WHERE {{ {_BODY} }}"
    plain = evaluator.evaluate(parse_query(text % ""))
    plain_plan = evaluator.last_physical_plan
    dropped = evaluator.evaluate(parse_query(text % "DISTINCT"))
    distinct_plan = evaluator.last_physical_plan
    assert distinct_plan is not plain_plan
    assert (plain_plan.root.distinct, distinct_plan.root.distinct) == (False, True)
    assert dropped.bindings == distinct_rows(plain.bindings) and len(dropped) < len(plain)
    metrics = evaluator.metrics()
    assert metrics["sparql_physical_cache_size"] == 2
    assert metrics["sparql_physical_cache_misses_total"] == 2
    # Both stay cached: the two forms hit their own slot from now on.
    assert evaluator.evaluate(parse_query(text % "REDUCED")).bindings == dropped.bindings
    assert evaluator.last_physical_plan is distinct_plan
    evaluator.evaluate(parse_query(text % ""))
    assert evaluator.last_physical_plan is plain_plan
    assert evaluator.metrics()["sparql_physical_cache_misses_total"] == 2
