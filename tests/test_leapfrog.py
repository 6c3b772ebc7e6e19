"""The leapfrog join as steps of the one compiled pipeline.

``LeapfrogJoin`` has no executor of its own: its variable levels compile to
steps of :mod:`repro.sparql.idexec` (:func:`repro.sparql.leapfrog.compile_levels`).
What that must keep:

* to the digit, the rows and probes every operator reported when the join
  still interpreted its DAG per execution — recorded at the commit before
  the merge for a fixed triangle and 4-cycle, with and without a FILTER
  conjunct, ``timed`` and a DISTINCT projection; and those recorded at
  0d1dc52 when a constant end fixes one of the join's variables;
* the bag of rows of the unplanned ``NAIVE`` oracle on a hash copy over
  random cyclic BGPs under the same variations;
* and, new with the merge, that a second execution compiles nothing, at
  the same graph version or a later one.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Triple, Variable
from repro.sparql import idexec, physical
from repro.sparql.algebra import BGP, Filter, SelectQuery, TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, TermExpr, VariableExpr
from repro.sparql.operators import LeapfrogJoin
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import realign_rows
from repro.store import EncodedGraph
from repro.store.dictionary import TermDictionary

from tests.helpers import EX

A, B, C, D, Z = (Variable(name) for name in "abcdz")
UNSEEN = IRI("http://ex.org/nowhere")


def node(index):
    return EX[f"n{index}"]


def tp(subject, predicate, obj):
    return TriplePatternNode(Triple(subject, predicate, obj))


# A hub (n0) on two triangles, a 4-cycle off it, a chord, a loop and a 2-cycle.
_EDGES = [
    (0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 3),
    (4, 5), (5, 6), (6, 7), (7, 4), (2, 2), (0, 5), (5, 0),
]  # fmt: skip
_TRIANGLE = (tp(A, EX.p, B), tp(B, EX.p, C), tp(C, EX.p, A))
_FOUR_CYCLE = (tp(A, EX.p, B), tp(B, EX.p, C), tp(C, EX.p, D), tp(D, EX.p, A))
_A_NOT_B = Comparison("!=", VariableExpr(A), VariableExpr(B))


def _fixed_graph():
    triples = [Triple(node(s), EX.p, node(o)) for s, o in _EDGES]
    return EncodedGraph(triples + [Triple(node(0), EX.q, node(1))])


@pytest.mark.parametrize("timed", [False, True], ids=["plain", "timed"])
@pytest.mark.parametrize(
    "patterns, conditions, distinct, rows, counts",
    [
        # (Project, LeapfrogJoin, Scan ...) as (rows, probes), recorded at eda164a.
        (_TRIANGLE, (), None, 7, [(7, 0), (7, 0), (22, 9), (91, 22), (35, 15)]),
        (_TRIANGLE, (_A_NOT_B,), None, 6, [(6, 0), (6, 0), (22, 9), (89, 21), (33, 14)]),
        (_TRIANGLE, (), (A,), 5, [(5, 0), (7, 0), (22, 9), (91, 22), (35, 15)]),
        (_FOUR_CYCLE, (), None, 19, [(19, 0), (19, 0), (22, 9), (91, 22), (165, 41), (61, 28)]),
        (_FOUR_CYCLE, (), (A,), 8, [(8, 0), (19, 0), (22, 9), (91, 22), (165, 41), (61, 28)]),
        # A constant end fixes a cycle variable, as the initial binding's
        # membership level did; recorded at 0d1dc52, before that level went.
        (
            _TRIANGLE + (tp(A, EX.q, node(1)),), (), None, 2,
            [(2, 0), (2, 0), (1, 1), (11, 2), (13, 4), (17, 4)],
        ),
        (_TRIANGLE + (tp(B, EX.q, UNSEEN),), (), None, 0, [(0, 0)] * 6),
        (
            _FOUR_CYCLE + (tp(D, EX.q, node(1)),), (_A_NOT_B,), None, 4,
            [(4, 0), (4, 0), (1, 1), (23, 6), (33, 8), (13, 4), (11, 2)],
        ),
    ],
    ids=[
        "triangle", "triangle-filter", "triangle-distinct", "four-cycle", "four-cycle-distinct",
        "triangle-constant", "triangle-constant-unseen", "four-cycle-filter-constant",
    ],
)  # fmt: skip
def test_counts_are_those_of_the_interpreted_join(
    patterns, conditions, distinct, rows, counts, timed
):
    graph = _fixed_graph()
    plan = physical.lower_bgp(graph, patterns, conditions, project=distinct, distinct=distinct)
    assert isinstance(plan.root.child, LeapfrogJoin)
    assert plan.root.distinct is (distinct is not None)
    assert len(list(physical.execute_rows(plan, graph, timed=timed))) == rows
    assert [(entry["rows"], entry["probes"]) for entry in plan.counters()] == counts


def test_a_second_execution_compiles_nothing(monkeypatch):
    graph = _fixed_graph()
    patterns = _TRIANGLE + (tp(A, EX.q, node(1)),)
    plan = physical.lower_bgp(graph, patterns, (_A_NOT_B,))
    assert isinstance(plan.root.child, LeapfrogJoin)
    calls = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return counted

    monkeypatch.setattr(idexec, "_compile", counting("compile", idexec._compile))
    monkeypatch.setattr(TermDictionary, "id_for", counting("id_for", TermDictionary.id_for))
    first = list(physical.execute_rows(plan, graph))
    # Three predicates + one constant object, resolved once.
    assert calls == {"compile": 1, "id_for": 5}
    (compiled,) = plan._compiled.values()
    assert list(physical.execute_rows(plan, graph)) == first
    assert list(physical.execute_rows(plan, graph, timed=True)) == first
    assert calls == {"compile": 1, "id_for": 5}
    assert list(plan._compiled.values()) == [compiled]
    # A new graph version compiles nothing and resolves nothing again.
    graph.add(Triple(node(1), EX.q, node(1)))  # n1 -> n2 -> n0 -> n1 qualifies now
    assert len(list(physical.execute_rows(plan, graph))) == len(first) + 1
    assert calls == {"compile": 1, "id_for": 5}
    assert list(plan._compiled.values()) == [compiled]


def test_an_unknown_constant_gates_every_execution_until_it_is_interned():
    graph = _fixed_graph()
    patterns = _TRIANGLE + (tp(A, EX.q, UNSEEN),)
    plan = physical.lower_bgp(graph, patterns)
    assert isinstance(plan.root.child, LeapfrogJoin)
    assert list(physical.execute_rows(plan, graph)) == []
    (compiled,) = plan._compiled.values()
    assert [term for _, term in compiled.unresolved] == [UNSEEN]
    assert all(entry["rows"] == entry["probes"] == 0 for entry in plan.counters())
    assert list(physical.execute_rows(plan, graph)) == []
    # Interned and matched later: the same compiled form answers.
    graph.add(Triple(node(0), EX.q, UNSEEN))
    rows = Counter(physical.execute_rows(plan, graph))
    assert list(plan._compiled.values()) == [compiled] and not compiled.unresolved
    fresh = physical.lower_bgp(graph, patterns)
    assert rows == Counter(physical.execute_rows(fresh, graph))
    column = idexec.row_header(plan).index(A)
    assert sum(rows.values()) == 2 and all(row[column] == node(0) for row in rows)


# ----------------------------------------------------------------------
# hypothesis differential: leapfrog (FULL) against the oracle (NAIVE)
# ----------------------------------------------------------------------
_NODES = [node(index) for index in range(5)]
_PREDICATES = [EX.p, EX.q]
_CYCLE_VARIABLES = [A, B, C, D]

_edge = st.tuples(st.sampled_from(_NODES), st.sampled_from(_PREDICATES), st.sampled_from(_NODES))


@st.composite
def _cyclic_bgp(draw):
    """A cycle of three or four variables (random predicates and edge
    directions), optionally with a chord, a pendant, a constant end (one
    the graph may not hold) or a ground pattern."""
    variables = _CYCLE_VARIABLES[: draw(st.integers(min_value=3, max_value=4))]
    patterns = []
    for index, left in enumerate(variables):
        right = variables[(index + 1) % len(variables)]
        if draw(st.booleans()):
            left, right = right, left
        patterns.append(tp(left, draw(st.sampled_from(_PREDICATES)), right))
    extra = draw(st.sampled_from(["none", "chord", "pendant", "constant", "ground"]))
    predicate = draw(st.sampled_from(_PREDICATES))
    if extra == "chord":
        patterns.append(tp(variables[0], predicate, variables[2]))
    elif extra == "pendant":
        patterns.append(tp(variables[1], predicate, Z))
    elif extra == "constant":
        patterns.append(tp(variables[0], predicate, draw(st.sampled_from(_NODES + [UNSEEN]))))
    elif extra == "ground":
        patterns.append(tp(*draw(_edge)))
    return draw(st.permutations(patterns))


_operand = st.sampled_from(
    [VariableExpr(variable) for variable in _CYCLE_VARIABLES] + [TermExpr(_NODES[0])]
)
_condition = st.builds(Comparison, st.sampled_from(["=", "!=", "<"]), _operand, _operand)


def _naive(graph, patterns, conditions, projection, header) -> Counter:
    """FILTER(patterns) by the unplanned oracle on a hash copy, as tuples
    aligned with the plan's ``header``: each row once when there is a
    ``projection`` (the header is then it)."""
    pattern = BGP(tuple(patterns))
    for condition in conditions:
        pattern = Filter(pattern, condition)
    query = SelectQuery(projection=(), pattern=pattern, select_all=True)
    evaluator = SparqlEvaluator(Dataset.from_graph(Graph(graph)), profile=ExecutionProfile.NAIVE)
    answer = evaluator.evaluate(query)
    rows = realign_rows(answer.rows(), answer.variables, header)
    return Counter(rows if projection is None else set(rows))


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(_edge, min_size=0, max_size=25),
    patterns=_cyclic_bgp(),
    conditions=st.lists(_condition, min_size=0, max_size=1),
    timed=st.booleans(),
    distinct=st.booleans(),
)
def test_leapfrog_equals_the_unplanned_oracle(edges, patterns, conditions, timed, distinct):
    graph = EncodedGraph(Triple(*edge) for edge in edges)
    projection = (A, B) if distinct else None
    plan = physical.lower_bgp(
        graph, patterns, tuple(conditions), project=projection, distinct=projection
    )
    # The join under the root, or under the gate of a variable-free conjunct.
    assert any(isinstance(operator, LeapfrogJoin) for operator in plan.operators()[1:3])
    leapfrog = Counter(physical.execute_rows(plan, graph, timed=timed))
    header = idexec.row_header(plan)
    assert leapfrog == _naive(graph, patterns, conditions, projection, header)
    if distinct:
        assert set(leapfrog.values()) <= {1}
    if any(UNSEEN in pattern.triple for pattern in patterns):
        assert not leapfrog
