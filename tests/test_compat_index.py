"""Tests for the compatibility index (:class:`repro.sparql.solutions.CompatIndex`).

The algebra walk pairs solution multisets only through the index, so
these tests pin it to the literal definition it replaces:

* a hypothesis differential against the spec's nested loop over
  ``Binding.is_compatible`` (plus MINUS's shared-domain condition) on
  generated multisets with heterogeneous domains, unbound shared
  variables, empty shared sets and duplicates — on the index itself and,
  through VALUES tables, on the evaluator's join / OPTIONAL / MINUS, the
  OPTIONAL with residual conditions that error or test ``!bound``;
* end-to-end MINUS / OPTIONAL / UNION-under-OPTIONAL / GRAPH ?g queries,
  bag-equal across the planned profiles, the unplanned oracle on the hash
  store and the translation engine;
* a count test: n x m rows cost O(n + m) probes and no pairwise
  ``is_compatible`` call.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import SparqLogEngine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import satisfies
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding, CompatIndex
from repro.store import EncodedGraph

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"

VARIABLES = tuple(Variable(name) for name in "abcd")


def row(**values):
    return Binding({Variable(name): Literal.from_python(value) for name, value in values.items()})


# ----------------------------------------------------------------------
# the definitions the index must reproduce
# ----------------------------------------------------------------------
def spec_join(left, right):
    return [l.merge(r) for l in left for r in right if l.is_compatible(r)]


def spec_minus(left, right):
    return [
        l
        for l in left
        if not any(l.variables() & r.variables() and l.is_compatible(r) for r in right)
    ]


def spec_left_join(left, right, condition=None):
    results = []
    for l in left:
        extended = [
            l.merge(r)
            for r in right
            if l.is_compatible(r)
            and (condition is None or satisfies(condition, l.merge(r)))
        ]
        results.extend(extended or [l])
    return results


# Three values over four variables: collisions, duplicates, every domain
# from the empty one to all four, and shared variables bound on one side
# only are all frequent.
_rows = st.lists(
    st.dictionaries(st.sampled_from(VARIABLES), st.integers(0, 2), max_size=4),
    max_size=8,
).map(
    lambda mappings: [
        Binding({variable: Literal.from_python(value) for variable, value in mapping.items()})
        for mapping in mappings
    ]
)


# ----------------------------------------------------------------------
# the index against the definitions
# ----------------------------------------------------------------------
class TestIndexAgainstSpec:
    @given(_rows, _rows)
    @settings(max_examples=300, deadline=None)
    def test_merged_is_the_compatible_rows_in_right_order(self, left, right):
        index = CompatIndex(right)
        for l in left:
            assert index.merged(l) == [l.merge(r) for r in right if l.is_compatible(r)]

    @given(_rows, _rows)
    @settings(max_examples=300, deadline=None)
    def test_excludes_is_the_minus_condition(self, left, right):
        index = CompatIndex(right)
        assert [l for l in left if not index.excludes(l)] == spec_minus(left, right)

    def test_unbound_shared_variable_constrains_nothing(self):
        right = [row(a=1, b=1), row(a=1), row(a=2, b=1), row(b=2)]
        index = CompatIndex(right)
        assert index.merged(row(a=1)) == [row(a=1, b=1), row(a=1), row(a=1, b=2)]
        assert index.merged(row(b=1)) == [row(a=1, b=1), row(a=1, b=1), row(a=2, b=1)]
        assert index.merged(row(a=1, b=2)) == [row(a=1, b=2), row(a=1, b=2)]

    def test_empty_shared_set_cross_multiplies_but_never_excludes(self):
        right = [row(c=1), row(c=2), row(c=1)]
        index = CompatIndex(right)
        assert index.merged(row(a=0)) == [row(a=0, c=1), row(a=0, c=2), row(a=0, c=1)]
        assert not index.excludes(row(a=0))
        assert index.probes == 0
        # The empty mapping shares nothing with anything.
        assert not CompatIndex([Binding()]).excludes(row(a=0))
        assert CompatIndex([Binding()]).merged(row(a=0)) == [row(a=0)]
        assert not index.excludes(Binding())

    def test_right_order_is_kept_across_partitions(self):
        right = [row(a=1, b=1), row(a=1), row(a=1, b=1), row(a=1, c=3), row(a=1)]
        merged = CompatIndex(right).merged(row(a=1, b=1))
        assert merged == [
            row(a=1, b=1),
            row(a=1, b=1),
            row(a=1, b=1),
            row(a=1, b=1, c=3),
            row(a=1, b=1),
        ]

    def test_duplicates_multiply(self):
        index = CompatIndex([row(a=1, b=5)] * 3)
        assert index.merged(row(a=1)) == [row(a=1, b=5)] * 3
        assert index.excludes(row(a=1))
        assert not index.excludes(row(a=2))

    def test_one_probe_per_left_row_and_partition_sharing_a_variable(self):
        index = CompatIndex([row(a=i) for i in range(50)] + [row(c=1)])
        for i in range(20):
            index.merged(row(a=i, b=0))
        assert index.probes == 20
        for i in range(10):
            index.excludes(row(a=100 + i))
        assert index.probes == 30

    def test_equal_variables_need_not_be_identical_objects(self):
        index = CompatIndex([Binding({Variable("a"): EX.x, Variable("b"): EX.y})])
        assert index.merged(Binding({Variable("a"): EX.x})) == [
            Binding({Variable("a"): EX.x, Variable("b"): EX.y})
        ]
        assert index.excludes(Binding({Variable("b"): EX.y, Variable("z"): EX.x}))


# ----------------------------------------------------------------------
# the evaluator's operators over VALUES tables against the definitions
# ----------------------------------------------------------------------
def _values(rows):
    """A VALUES block over all four variables, UNDEF where a row is unbound."""
    lines = " ".join(
        "(" + " ".join(
            binding[variable].lexical if variable in binding else "UNDEF"
            for variable in VARIABLES
        ) + ")"
        for binding in rows
    )
    return "VALUES (?a ?b ?c ?d) { " + lines + " }"


def _evaluate(text):
    query = parse_query(text)
    return query, Counter(SparqlEvaluator(Dataset(EncodedGraph())).evaluate(query).bindings)


#: Residual OPTIONAL conditions: type errors on an unbound operand, a
#: division by zero, ``!bound``, and conjunctions the evaluator splits.
CONDITIONS = [
    "?a < ?c",
    "!bound(?b)",
    "?a = ?d || !bound(?c)",
    "?d / ?a = 1",
    "?a <= ?c && !bound(?d)",
    "bound(?b) && ?b != ?c",
]


class TestEvaluatorOperatorsAgainstSpec:
    @given(_rows, _rows)
    @settings(max_examples=150, deadline=None)
    def test_join(self, left, right):
        _, result = _evaluate(f"SELECT * WHERE {{ {{ {_values(left)} }} {{ {_values(right)} }} }}")
        assert result == Counter(spec_join(left, right))

    @given(_rows, _rows)
    @settings(max_examples=150, deadline=None)
    def test_minus(self, left, right):
        _, result = _evaluate(
            f"SELECT * WHERE {{ {{ {_values(left)} }} MINUS {{ {_values(right)} }} }}"
        )
        assert result == Counter(spec_minus(left, right))

    @given(_rows, _rows)
    @settings(max_examples=150, deadline=None)
    def test_optional(self, left, right):
        _, result = _evaluate(
            f"SELECT * WHERE {{ {{ {_values(left)} }} OPTIONAL {{ {_values(right)} }} }}"
        )
        assert result == Counter(spec_left_join(left, right))

    @given(_rows, _rows, st.sampled_from(CONDITIONS))
    @settings(max_examples=300, deadline=None)
    def test_optional_with_residual_condition(self, left, right, condition):
        query, result = _evaluate(
            f"SELECT * WHERE {{ {{ {_values(left)} }} "
            f"OPTIONAL {{ {_values(right)} FILTER({condition}) }} }}"
        )
        assert result == Counter(spec_left_join(left, right, query.pattern.condition))


# ----------------------------------------------------------------------
# end to end: every configuration answers the same bag
# ----------------------------------------------------------------------
def _triples():
    triples = []
    for i in range(12):
        person = EX[f"p{i}"]
        triples.append(Triple(person, EX.name, Literal(f"name{i}")))
        if i % 2 == 0:
            triples.append(Triple(person, EX.mail, Literal(f"p{i}@ex.org")))
        if i % 3 == 0:
            triples.append(Triple(person, EX.phone, Literal.from_python(1000 + i)))
            triples.append(Triple(person, EX.phone, Literal.from_python(2000 + i)))
        if i % 4 == 0:
            triples.append(Triple(person, EX.knows, EX[f"p{(i + 1) % 12}"]))
        if i % 5 == 0:
            triples.append(Triple(person, EX.banned, Literal.from_python(True)))
    return triples


def _dataset(backend):
    dataset = Dataset.from_graph(backend(_triples()))
    dataset.add_named_graph(
        IRI("http://g1"), backend([Triple(EX.p0, EX.name, Literal("zero")), Triple(EX.p1, EX.knows, EX.p0)])
    )
    dataset.add_named_graph(IRI("http://g2"), backend([Triple(EX.p2, EX.name, Literal("two"))]))
    return dataset


END_TO_END = [
    "SELECT ?p ?n WHERE { ?p ex:name ?n MINUS { ?p ex:banned ?b } }",
    "SELECT ?p ?n WHERE { ?p ex:name ?n MINUS { ?q ex:banned ?b } }",
    "SELECT ?p ?n WHERE { ?p ex:name ?n MINUS { { ?p ex:mail ?m } UNION { ?q ex:knows ?p } } }",
    "SELECT ?p ?n ?m WHERE { ?p ex:name ?n OPTIONAL { ?p ex:mail ?m } }",
    "SELECT ?p ?m ?t WHERE { ?p ex:name ?n OPTIONAL { ?p ex:mail ?m } OPTIONAL { ?p ex:phone ?t } }",
    "SELECT ?p ?t WHERE { ?p ex:name ?n OPTIONAL { ?p ex:phone ?t FILTER (?t > 1500) } }",
    'SELECT ?p ?t WHERE { ?p ex:name ?n OPTIONAL { ?p ex:phone ?t FILTER (?n = "name3") } }',
    "SELECT ?p ?m ?t WHERE { ?p ex:name ?n OPTIONAL { { ?p ex:mail ?m } UNION { ?p ex:phone ?t } } }",
    "SELECT ?p ?x WHERE { { ?p ex:mail ?x } UNION { ?p ex:name ?n } OPTIONAL { ?p ex:knows ?x } }",
    "SELECT ?p ?m ?q WHERE { { { ?p ex:mail ?m } UNION { ?q ex:phone ?t } } . { ?p ex:knows ?q } }",
    "SELECT ?g ?s ?n WHERE { GRAPH ?g { ?s ex:name ?n } }",
    "SELECT ?g ?s ?n WHERE { ?s ex:mail ?m GRAPH ?g { ?s ex:name ?n } }",
    "SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:name ?n MINUS { ?s ex:knows ?o } } }",
]


@pytest.mark.parametrize("text", END_TO_END)
def test_every_configuration_answers_the_same_bag(text):
    query = parse_query(PREFIX + text)
    reference = Counter(SparqlEvaluator(_dataset(EncodedGraph)).evaluate(query).rows())
    assert reference
    naive = SparqlEvaluator(_dataset(Graph), profile=ExecutionProfile.NAIVE)
    assert Counter(naive.evaluate(query).rows()) == reference
    translated = SparqLogEngine(_dataset(Graph)).query(PREFIX + text)
    assert Counter(translated.rows()) == reference


# ----------------------------------------------------------------------
# the pairwise loop is gone: counts, not wall clock
# ----------------------------------------------------------------------
def test_minus_and_optional_probe_once_per_left_row(monkeypatch):
    n, m = 60, 45
    graph = EncodedGraph(
        [Triple(EX[f"s{i}"], EX.p, Literal.from_python(i)) for i in range(n)]
        + [Triple(EX[f"s{i}"], EX.q, Literal.from_python(-i)) for i in range(m)]
    )
    calls = []
    original = Binding.is_compatible
    monkeypatch.setattr(
        Binding, "is_compatible", lambda self, other: calls.append(1) or original(self, other)
    )
    evaluator = SparqlEvaluator(Dataset.from_graph(graph))

    def run(text):
        before = evaluator.metrics()
        result = evaluator.evaluate(parse_query(PREFIX + text))
        after = evaluator.metrics()
        return len(result), {
            name: after[f"sparql_compat_index_{name}_total"]
            - before[f"sparql_compat_index_{name}_total"]
            for name in ("builds", "probes")
        }

    rows, counts = run("SELECT ?s WHERE { ?s ex:p ?v MINUS { ?s ex:q ?w } }")
    assert (rows, counts) == (n - m, {"builds": 1, "probes": n})
    rows, counts = run("SELECT ?s ?w WHERE { ?s ex:p ?v OPTIONAL { ?s ex:q ?w } }")
    assert (rows, counts) == (n, {"builds": 1, "probes": n})
    rows, counts = run(
        "SELECT ?s ?w WHERE { { { ?s ex:p ?v } UNION { ?s ex:none ?v } } . { ?s ex:q ?w } }"
    )
    assert (rows, counts) == (m, {"builds": 1, "probes": n})
    # Nothing shared: no probe at all, and MINUS keeps every row.
    rows, counts = run("SELECT ?s WHERE { ?s ex:p ?v MINUS { ?t ex:q ?w } }")
    assert (rows, counts) == (n, {"builds": 1, "probes": 0})
    assert calls == []
