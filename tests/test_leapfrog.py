"""The leapfrog join as steps of the one compiled pipeline.

``LeapfrogJoin`` has no executor of its own: its variable levels compile to
steps of :mod:`repro.sparql.idexec` (:func:`repro.sparql.leapfrog.compile_levels`).
What that must keep:

* to the digit, the rows and probes every operator reported when the join
  still interpreted its DAG per execution — recorded at the commit before
  the merge for a fixed triangle and 4-cycle, with and without a FILTER
  conjunct, an initial binding, ``timed`` and a DISTINCT projection;
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
from repro.sparql.algebra import BGP, Filter, Join, SelectQuery, TriplePatternNode, ValuesPattern
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, TermExpr, VariableExpr
from repro.sparql.operators import LeapfrogJoin
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding
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
    "patterns, conditions, initial, distinct, rows, counts",
    [
        # (Project, LeapfrogJoin, Scan ...) as (rows, probes), recorded at eda164a.
        (_TRIANGLE, (), {}, None, 7, [(7, 0), (7, 0), (22, 9), (91, 22), (35, 15)]),
        (_TRIANGLE, (_A_NOT_B,), {}, None, 6, [(6, 0), (6, 0), (22, 9), (89, 21), (33, 14)]),
        (_TRIANGLE, (), {B: node(0)}, None, 2, [(2, 0), (2, 0), (9, 4), (33, 6), (14, 4)]),
        (_TRIANGLE, (), {B: UNSEEN}, None, 0, [(0, 0), (0, 0), (0, 1), (0, 0), (8, 1)]),
        (
            _TRIANGLE, (_A_NOT_B,), {Z: node(3)}, None, 6,
            [(6, 0), (6, 0), (22, 9), (89, 21), (33, 14)],
        ),
        (_TRIANGLE, (), {}, (A,), 5, [(5, 0), (7, 0), (22, 9), (91, 22), (35, 15)]),
        (
            _FOUR_CYCLE, (), {}, None, 19,
            [(19, 0), (19, 0), (22, 9), (91, 22), (165, 41), (61, 28)],
        ),
        (
            _FOUR_CYCLE, (_A_NOT_B,), {D: node(0)}, None, 4,
            [(4, 0), (4, 0), (13, 4), (33, 8), (23, 9), (9, 5)],
        ),
        (
            _FOUR_CYCLE, (), {}, (A,), 8,
            [(8, 0), (19, 0), (22, 9), (91, 22), (165, 41), (61, 28)],
        ),
    ],
    ids=[
        "triangle", "triangle-filter", "triangle-initial-level", "triangle-initial-unseen",
        "triangle-initial-outside", "triangle-distinct", "four-cycle",
        "four-cycle-filter-initial", "four-cycle-distinct",
    ],
)  # fmt: skip
def test_counts_are_those_of_the_interpreted_join(
    patterns, conditions, initial, distinct, rows, counts, timed
):
    graph = _fixed_graph()
    plan = physical.lower_bgp(graph, patterns, conditions, project=distinct, distinct=distinct)
    assert isinstance(plan.root.child, LeapfrogJoin)
    assert plan.root.distinct is (distinct is not None)
    found = list(physical.execute(plan, graph, initial=Binding(initial), timed=timed))
    assert len(found) == rows
    assert all(row[variable] == term for row in found for variable, term in initial.items())
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
    first = list(physical.execute(plan, graph))
    # Three predicates + one constant object, resolved once.
    assert calls == {"compile": 1, "id_for": 5}
    (compiled,) = plan._compiled.values()
    assert list(physical.execute(plan, graph)) == first
    assert list(physical.execute(plan, graph, timed=True)) == first
    assert calls == {"compile": 1, "id_for": 5}
    assert list(plan._compiled.values()) == [compiled]
    # Another domain of the initial binding is another form; a new graph
    # version compiles nothing and resolves nothing again.
    bound = list(physical.execute(plan, graph, initial=Binding({B: node(1)})))
    assert bound == [row for row in first if row[B] == node(1)] and bound
    assert calls["compile"] == 2 and len(plan._compiled) == 2
    looked_up = calls["id_for"]
    graph.add(Triple(node(1), EX.q, node(1)))  # n1 -> n2 -> n0 -> n1 qualifies now
    assert len(list(physical.execute(plan, graph))) == len(first) + 1
    assert calls["compile"] == 2 and len(plan._compiled) == 2
    assert compiled in plan._compiled.values()
    assert calls["id_for"] == looked_up


def test_an_unknown_constant_gates_every_execution_until_it_is_interned():
    graph = _fixed_graph()
    patterns = _TRIANGLE + (tp(A, EX.q, UNSEEN),)
    plan = physical.lower_bgp(graph, patterns)
    assert isinstance(plan.root.child, LeapfrogJoin)
    assert list(physical.execute(plan, graph)) == []
    (compiled,) = plan._compiled.values()
    assert [term for _, term in compiled.unresolved] == [UNSEEN]
    assert all(entry["rows"] == entry["probes"] == 0 for entry in plan.counters())
    assert list(physical.execute(plan, graph)) == []
    # Interned and matched later: the same compiled form answers.
    graph.add(Triple(node(0), EX.q, UNSEEN))
    rows = Counter(physical.execute(plan, graph))
    assert list(plan._compiled.values()) == [compiled] and not compiled.unresolved
    fresh = physical.lower_bgp(graph, patterns)
    assert rows == Counter(physical.execute(fresh, graph))
    assert sum(rows.values()) == 2 and all(row[A] == node(0) for row in rows)


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
    directions), optionally with a chord, a pendant or a ground pattern."""
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
        patterns.append(tp(variables[0], predicate, draw(st.sampled_from(_NODES))))
    elif extra == "ground":
        patterns.append(tp(*draw(_edge)))
    return draw(st.permutations(patterns))


_operand = st.sampled_from(
    [VariableExpr(variable) for variable in _CYCLE_VARIABLES] + [TermExpr(_NODES[0])]
)
_condition = st.builds(Comparison, st.sampled_from(["=", "!=", "<"]), _operand, _operand)


def _naive(graph, patterns, conditions, initial, projection) -> Counter:
    """FILTER(VALUES(initial) . patterns) by the unplanned oracle on a hash
    copy, projected like the plan's rows (``projection`` and ``initial``'s
    domain, each row once) when there is a ``projection``."""
    pattern = BGP(tuple(patterns))
    if initial:
        variables = tuple(initial)
        pattern = Join(ValuesPattern(variables, (tuple(initial.values()),)), pattern)
    for condition in conditions:
        pattern = Filter(pattern, condition)
    query = SelectQuery(projection=(), pattern=pattern, select_all=True)
    evaluator = SparqlEvaluator(Dataset.from_graph(Graph(graph)), profile=ExecutionProfile.NAIVE)
    rows = evaluator.evaluate(query).bindings
    if projection is None:
        return Counter(rows)
    kept = set(projection) | set(initial)
    return Counter({Binding({v: t for v, t in row.items() if v in kept}) for row in rows})


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(_edge, min_size=0, max_size=25),
    patterns=_cyclic_bgp(),
    conditions=st.lists(_condition, min_size=0, max_size=1),
    binding=st.sampled_from(["none", "level", "outside", "unseen"]),
    bound=st.sampled_from(_CYCLE_VARIABLES[:3]),
    value=st.sampled_from(_NODES),
    timed=st.booleans(),
    distinct=st.booleans(),
)
def test_leapfrog_equals_the_unplanned_oracle(
    edges, patterns, conditions, binding, bound, value, timed, distinct
):
    graph = EncodedGraph(Triple(*edge) for edge in edges)
    initial = {
        "none": {},
        "level": {bound: value},
        "outside": {Variable("outside"): value},
        "unseen": {bound: UNSEEN},
    }[binding]
    projection = (A, B) if distinct else None
    plan = physical.lower_bgp(
        graph, patterns, tuple(conditions), project=projection, distinct=projection
    )
    # The join under the root, or under the gate of a variable-free conjunct.
    assert any(isinstance(operator, LeapfrogJoin) for operator in plan.operators()[1:3])
    leapfrog = Counter(physical.execute(plan, graph, initial=Binding(initial), timed=timed))
    assert leapfrog == _naive(graph, patterns, conditions, initial, projection)
    if distinct:
        assert set(leapfrog.values()) <= {1}
    if binding == "unseen":
        assert not leapfrog
