"""Join-project plans: a DISTINCT pipeline is cut where a variable dies.

``physical.lower_plan`` gives a ``Project.distinct`` binary pipeline at
most one :class:`~repro.sparql.operators.Factor`: after the prefix, the
rows count only by their live variables, and the suffix runs once per
distinct key into a memo the live tuples are paired with.  Pinned here:

* counts on a q4-shaped graph (two articles of one journal, their
  authors' names, ``?name1 < ?name2``): the suffix probes are the distinct
  journals times one journal's suffix probes, a fraction of the uncut
  plan's, and only the kept rows are decoded;
* a hypothesis differential over random two-armed / chain / star BGPs x
  a DISTINCT projection x a ``<`` / ``!=`` FILTER x a variable made a
  constant: the rows
  are ``distinct_rows`` of the same BGP lowered without DISTINCT, row for
  row, and the ``NAIVE`` oracle's as a set;
* the modifiers above a cut plan (ORDER BY, OFFSET, LIMIT) see the
  stream of the uncut plan, and interleaved executions keep their memos;
* what stays uncut: a one-hub star, a leapfrog plan and every plan
  lowered without DISTINCT, their ``explain`` unchanged.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Literal, Triple, Variable, XSD_INTEGER
from repro.sparql import operators, physical
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, TermExpr, VariableExpr
from repro.sparql.idexec import row_header
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import distinct_rows, realign_rows
from repro.store import EncodedGraph

from tests.helpers import EX
from tests.test_distinct_boundary import _triples

PREFIX = "PREFIX ex: <http://ex.org/>\n"

JOURNALS, ARTICLES, CREATORS, PEOPLE = 4, 5, 2, 8

Q4 = PREFIX + (
    "SELECT DISTINCT ?name1 ?name2 WHERE {\n"
    "  ?article1 ex:type ex:Article . ?article2 ex:type ex:Article .\n"
    "  ?article1 ex:creator ?author1 . ?author1 ex:name ?name1 .\n"
    "  ?article2 ex:creator ?author2 . ?author2 ex:name ?name2 .\n"
    "  ?article1 ex:journal ?journal . ?article2 ex:journal ?journal .\n"
    "  FILTER (?name1 < ?name2) }"
)


def q4_triples():
    """``JOURNALS`` journals of ``ARTICLES`` articles with ``CREATORS``
    creators each, drawn from ``PEOPLE`` named people."""
    triples = [Triple(EX[f"p{p}"], EX.name, Literal(f"n{p:02d}")) for p in range(PEOPLE)]
    for journal in range(JOURNALS):
        for index in range(ARTICLES):
            article = EX[f"a{journal}_{index}"]
            triples += [
                Triple(article, EX.type, EX.Article),
                Triple(article, EX.journal, EX[f"j{journal}"]),
            ]
            for creator in range(CREATORS):
                person = (journal * ARTICLES + index + 3 * creator) % PEOPLE
                triples.append(Triple(article, EX.creator, EX[f"p{person}"]))
    return triples


def factors(plan):
    return [op for op in plan.operators() if isinstance(op, operators.Factor)]


def leaves(operator):
    """The inputs of ``operator``, their filters unwrapped."""
    return [op.child if isinstance(op, operators.Filter) else op for op in operator.children()]


Q4_EXPLAIN = """\
Project [?name1, ?name2] distinct
└─ IndexNestedLoopJoin steps=5
   ├─ Scan TP(?author1 <http://ex.org/name> ?name1) est=8 probe=?P? match
   ├─ Scan TP(?article1 <http://ex.org/creator> ?author1) est=5 probe=?PO entry
   ├─ Scan TP(?article1 <http://ex.org/type> <http://ex.org/Article>) est=1 probe=SPO member
   ├─ Scan TP(?article1 <http://ex.org/journal> ?journal) est=1 probe=SP? entry
   └─ Filter (?name1 < ?name2) kernel=id
      └─ Factor on (?journal) keep [?name1] memo [?name2]
         ├─ Scan TP(?article2 <http://ex.org/journal> ?journal) est=5 probe=?PO entry
         ├─ Scan TP(?article2 <http://ex.org/type> <http://ex.org/Article>) est=1 probe=SPO member
         ├─ Scan TP(?article2 <http://ex.org/creator> ?author2) est=2 probe=SP? entry
         └─ Scan TP(?author2 <http://ex.org/name> ?name2) est=1 probe=SP? entry"""


# ----------------------------------------------------------------------
# the count pin
# ----------------------------------------------------------------------
def test_the_suffix_runs_once_per_journal_and_only_kept_rows_decode():
    graph = EncodedGraph(q4_triples())
    decodes = graph.dictionary.enable_counters()
    evaluator = SparqlEvaluator(Dataset.from_graph(graph))
    parsed = parse_query(Q4)
    before = decodes.decodes
    result = evaluator.evaluate(parsed)
    assert decodes.decodes - before == len(result) * 2  # ?name1, ?name2 per kept row
    plan = evaluator.last_physical_plan
    assert plan.explain() == Q4_EXPLAIN
    (factor,) = factors(plan)
    suffix = leaves(factor)
    # One journal's suffix: its articles, their type, their creators, their names.
    per_key = 1 + ARTICLES + ARTICLES + ARTICLES * CREATORS
    prefix_rows = JOURNALS * ARTICLES * CREATORS
    assert factor.stats.probes == prefix_rows
    assert factor.stats.runs == JOURNALS  # the distinct keys
    assert sum(scan.stats.probes for scan in suffix) == JOURNALS * per_key
    assert factor.stats.runs + factor.stats.hits < prefix_rows  # live tuples repeat
    assert plan.root.child.stats.rows > plan.root.stats.rows == len(result)
    (line,) = [line for line in str(evaluator.explain_analyze(Q4)).splitlines() if "Factor" in line]
    assert f"probes={prefix_rows} runs={JOURNALS} hits={factor.stats.hits}" in line
    assert f"rows={factor.stats.rows} " in line  # the pairs

    # Uncut: the same order, the suffix once per prefix row.
    uncut = evaluator.evaluate(evaluator.prepare(parsed)._replace(distinct=None))
    uncut_plan = evaluator.last_physical_plan
    assert not factors(uncut_plan)
    suffix_patterns = {scan.source_index for scan in suffix}
    uncut_suffix = [
        op for op in uncut_plan.operators() if getattr(op, "source_index", None) in suffix_patterns
    ]
    assert sum(scan.stats.probes for scan in uncut_suffix) == prefix_rows * per_key
    assert result.bindings == uncut.bindings  # row for row


@pytest.mark.parametrize(
    "tail",
    ["", "LIMIT 5", "OFFSET 3 LIMIT 4", "ORDER BY ?name2", "ORDER BY DESC(?name1) ?name2 LIMIT 3"],
)
def test_the_modifiers_above_a_cut_see_the_uncut_stream(tail):
    evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(q4_triples())))
    parsed = parse_query(f"{Q4} {tail}")
    cut = evaluator.evaluate(parsed)
    assert factors(evaluator.last_physical_plan)
    uncut = evaluator.evaluate(evaluator.prepare(parsed)._replace(distinct=None))
    assert not factors(evaluator.last_physical_plan)
    assert (cut.variables, cut.bindings) == (uncut.variables, uncut.bindings)


def test_interleaved_executions_keep_their_own_memos():
    graph = EncodedGraph(q4_triples())
    evaluator = SparqlEvaluator(Dataset.from_graph(graph))
    evaluator.evaluate(parse_query(Q4))
    plan = evaluator.last_physical_plan
    first, second = physical.execute_rows(plan, graph), physical.execute_rows(plan, graph)
    rows = [next(first), next(second)]
    assert rows[0] == rows[1]
    expected = list(physical.execute_rows(plan, graph))
    assert [rows[0], *first] == [rows[1], *second] == expected
    assert plan.root.stats.rows == len(expected)


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------
V = {name: Variable(name) for name in ("a", "b", "h", "u", "w", "x", "y", "c")}
P = [EX[f"p{index}"] for index in range(4)]
SHAPES = {
    "two-armed": [
        (V["a"], P[0], V["h"]),
        (V["b"], P[0], V["h"]),
        (V["a"], P[1], V["x"]),
        (V["b"], P[1], V["y"]),
        (V["x"], P[2], V["u"]),
        (V["y"], P[2], V["w"]),
    ],
    "chain": [
        (V["a"], P[0], V["b"]),
        (V["b"], P[1], V["c"]),
        (V["c"], P[2], V["x"]),
        (V["x"], P[3], V["y"]),
    ],
    "star": [(V["h"], P[0], V["a"]), (V["h"], P[1], V["b"]), (V["h"], P[2], V["c"])],
}
NODES = [EX[f"n{index}"] for index in range(5)]
VALUES = NODES + [Literal(str(index), XSD_INTEGER) for index in range(3)]


def _operand(part):
    return VariableExpr(part) if isinstance(part, Variable) else TermExpr(part)


def check(shape, triples, projection, condition, constant):
    """The cut plan's rows against the uncut plan's and ``NAIVE``'s, with the
    variable of ``constant`` (``(variable, term)``, not projected) replaced
    by its term in the patterns and the FILTER; returns the cut plan."""
    substitute = dict([constant]) if constant is not None else {}
    patterns = [tuple(substitute.get(part, part) for part in parts) for parts in SHAPES[shape]]
    graph = EncodedGraph(triples)
    nodes = [TriplePatternNode(Triple(*parts)) for parts in patterns]
    project = tuple(sorted(projection, key=lambda v: v.name))
    conditions = ()
    if condition is not None:
        left, operator, right = condition
        left, right = substitute.get(left, left), substitute.get(right, right)
        conditions = (Comparison(operator, _operand(left), _operand(right)),)
    cut = physical.lower_bgp(graph, nodes, conditions, project=project, distinct=project)
    uncut = physical.lower_bgp(graph, nodes, conditions, project=project)
    assert not factors(uncut)  # a DISTINCT-free plan is never cut
    assert cut.source.order() == uncut.source.order()
    header = row_header(cut)
    assert header == row_header(uncut)
    rows = list(physical.execute_rows(cut, graph))
    assert rows == distinct_rows(list(physical.execute_rows(uncut, graph)))
    assert cut.root.stats.rows == len(rows)

    body = " . ".join(" ".join(part.n3() for part in parts) for parts in patterns)
    if condition is not None:
        body += f" FILTER({left.n3()} {operator} {right.n3()})"
    naive = SparqlEvaluator(Dataset.from_graph(Graph(triples)), profile=ExecutionProfile.NAIVE)
    head = " ".join(variable.n3() for variable in header)
    answer = naive.evaluate(parse_query(f"SELECT DISTINCT {head} WHERE {{ {body} }}"))
    assert set(rows) == set(realign_rows(answer.rows(), answer.variables, header))
    return cut


@st.composite
def cases(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    variables = sorted(
        {part for parts in SHAPES[shape] for part in parts if isinstance(part, Variable)},
        key=lambda v: v.name,
    )
    triples = draw(
        st.lists(
            st.builds(Triple, st.sampled_from(NODES), st.sampled_from(P), st.sampled_from(VALUES)),
            min_size=4,
            max_size=40,
            unique=True,
        )
    )
    projection = draw(st.sets(st.sampled_from(variables), min_size=1, max_size=3))
    condition = draw(
        st.none()
        | st.tuples(
            st.sampled_from(variables), st.sampled_from(["<", "!="]), st.sampled_from(variables)
        )
    )
    free = [variable for variable in variables if variable not in projection]
    constant = draw(st.none() | st.tuples(st.sampled_from(free), st.sampled_from(VALUES)))
    return shape, triples, projection, condition, constant


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_a_cut_plan_is_the_uncut_plan_with_duplicates_dropped(case):
    check(*case)


def dense_triples():
    """Every node links to the next two by ``p0``, ``p1`` and ``p2``, and to
    a number by ``p3``: several rows per key."""
    triples = []
    for index, node in enumerate(NODES):
        for step in (1, 2):
            for predicate in P[:3]:
                triples.append(Triple(node, predicate, NODES[(index + step) % len(NODES)]))
        triples.append(Triple(node, P[3], VALUES[len(NODES) + index % 3]))
    return triples


@pytest.mark.parametrize(
    "shape, projection, condition, constant",
    [
        ("two-armed", ("a", "u"), ("a", "!=", "u"), None),
        ("two-armed", ("h", "w"), ("h", "<", "w"), ("b", NODES[0])),
        ("two-armed", ("b", "u"), ("u", "!=", "b"), ("x", NODES[3])),
        ("chain", ("a", "y"), ("a", "!=", "y"), None),
        ("chain", ("b", "x"), None, ("c", NODES[2])),
        ("chain", ("b", "y"), ("y", "<", "b"), ("c", NODES[1])),
    ],
)
def test_fixed_cases_are_cut(shape, projection, condition, constant):
    if condition is not None:
        condition = (V[condition[0]], condition[1], V[condition[2]])
    if constant is not None:
        constant = (V[constant[0]], constant[1])
    plan = check(shape, dense_triples(), {V[name] for name in projection}, condition, constant)
    assert factors(plan)


# ----------------------------------------------------------------------
# what stays uncut
# ----------------------------------------------------------------------
STAR_EXPLAIN = """\
Project [?k, ?n] distinct
└─ IndexNestedLoopJoin steps=3
   ├─ Scan TP(?x <http://ex.org/kind> ?k) est=5 probe=?P? match
   ├─ Scan TP(?x <http://ex.org/name> ?n) est=1 probe=SP? entry
   └─ Scan TP(?x <http://ex.org/link> ?y) est=2 probe=SP? entry"""

TRIANGLE_EXPLAIN = """\
Project [?a] distinct
└─ LeapfrogJoin order=[?a, ?b, ?c]
   ├─ Scan TP(?a <http://ex.org/link> ?b) est=10
   ├─ Scan TP(?b <http://ex.org/link> ?c) est=2
   └─ Scan TP(?c <http://ex.org/link> ?a) est=0.4"""


def test_one_hub_stars_and_leapfrog_plans_stay_uncut():
    graph = EncodedGraph(_triples())
    a, b, c, x, k, n, y = (Variable(name) for name in "abcxkny")
    for patterns, project, expected in [
        ([(x, EX.kind, k), (x, EX.name, n), (x, EX.link, y)], (k, n), STAR_EXPLAIN),
        ([(a, EX.link, b), (b, EX.link, c), (c, EX.link, a)], (a,), TRIANGLE_EXPLAIN),
    ]:
        nodes = [TriplePatternNode(Triple(*parts)) for parts in patterns]
        plan = physical.lower_bgp(graph, nodes, project=project, distinct=project)
        assert not factors(plan)
        assert plan.explain() == expected
