"""Tests for the reference SPARQL evaluator (bag semantics, W3C behaviour):
planned on the encoded store, each answer checked against the unplanned
evaluation on the hash store."""

from collections import Counter

import pytest

from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Literal, Triple, Variable
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.expressions import positional
from repro.sparql.solutions import Binding, SolutionSequence, realign_rows
from repro.store import EncodedGraph

from tests.helpers import EX, countries_dataset, directors_dataset, on_hash_store

PREFIX = "PREFIX ex: <http://ex.org/>\n"


def run(dataset, query_text):
    query = parse_query(PREFIX + query_text)
    result = SparqlEvaluator(dataset).evaluate(query)
    naive = SparqlEvaluator(on_hash_store(dataset), profile=ExecutionProfile.NAIVE).evaluate(query)
    if isinstance(result, bool):
        assert result == naive
    else:
        assert Counter(result.rows()) == Counter(naive.rows())
    return result


class TestBasicGraphPatterns:
    def test_single_triple_pattern(self):
        result = run(countries_dataset(), "SELECT ?x WHERE { ex:spain ex:borders ?x }")
        assert result.to_set() == {(EX.france,)}

    def test_join_over_shared_variable(self):
        result = run(
            countries_dataset(),
            "SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }",
        )
        assert (EX.spain, EX.belgium) in result.to_set()
        assert (EX.spain, EX.germany) in result.to_set()

    def test_same_variable_twice_in_triple(self):
        graph = EncodedGraph([Triple(EX.a, EX.p, EX.a), Triple(EX.a, EX.p, EX.b)])
        result = run(Dataset.from_graph(graph), "SELECT ?x WHERE { ?x ex:p ?x }")
        assert result.to_set() == {(EX.a,)}

    def test_empty_pattern_yields_one_row(self):
        result = run(countries_dataset(), "SELECT * WHERE { }")
        assert len(result) == 1

    def test_bag_semantics_preserves_duplicates(self):
        # ?x bound twice through different journals produces duplicate rows.
        result = run(
            directors_dataset(),
            "SELECT ?n WHERE { ?x ex:name ?n . ?y ex:name ?n }",
        )
        # George and Steven each join with themselves only -> 2 rows.
        assert len(result) == 2


class TestOptionalUnionMinus:
    def test_optional_keeps_unmatched_left_rows(self):
        result = run(
            directors_dataset(),
            "SELECT ?n ?l WHERE { ?x ex:name ?n OPTIONAL { ?x ex:lastname ?l } }",
        )
        rows = result.to_set()
        assert (Literal("George"), Literal("Lucas")) in rows
        assert (Literal("Steven"), None) in rows

    def test_optional_filter_scoping(self):
        # The filter in the OPTIONAL refers to the outer variable; rows whose
        # extension fails the filter keep the left binding with ?l unbound.
        result = run(
            directors_dataset(),
            'SELECT ?n ?l WHERE { ?x ex:name ?n OPTIONAL { ?x ex:lastname ?l FILTER (?n = "Nobody") } }',
        )
        assert result.to_set() == {
            (Literal("George"), None),
            (Literal("Steven"), None),
        }

    def test_union_concatenates_bags(self):
        result = run(
            countries_dataset(),
            "SELECT ?x WHERE { { ex:spain ex:borders ?x } UNION { ex:spain ex:borders ?x } }",
        )
        assert len(result) == 2  # duplicates preserved

    def test_union_with_disjoint_variables(self):
        result = run(
            directors_dataset(),
            "SELECT ?n ?l WHERE { { ?x ex:name ?n } UNION { ?x ex:lastname ?l } }",
        )
        rows = result.to_set()
        assert (Literal("George"), None) in rows
        assert (None, Literal("Lucas")) in rows

    def test_minus_removes_matching_rows(self):
        result = run(
            countries_dataset(),
            "SELECT ?x WHERE { ?x ex:borders ?y MINUS { ?x ex:borders ex:germany } }",
        )
        assert EX.france not in {row[0] for row in result.rows()}
        assert EX.spain in {row[0] for row in result.rows()}

    def test_minus_with_disjoint_domains_removes_nothing(self):
        result = run(
            countries_dataset(),
            "SELECT ?x WHERE { ?x ex:borders ?y MINUS { ?a ex:nothing ?b } }",
        )
        assert len(result) == 5


class TestFiltersAndModifiers:
    def test_filter_equality(self):
        result = run(
            countries_dataset(),
            "SELECT ?b WHERE { ?a ex:borders ?b FILTER (?a = ex:france) }",
        )
        assert result.to_set() == {(EX.belgium,), (EX.germany,)}

    def test_filter_regex(self):
        result = run(
            directors_dataset(),
            'SELECT ?n WHERE { ?x ex:name ?n FILTER (REGEX(?n, "^Ge")) }',
        )
        assert result.to_set() == {(Literal("George"),)}

    def test_order_by_limit_offset(self):
        result = run(
            countries_dataset(),
            "SELECT ?b WHERE { ?a ex:borders ?b } ORDER BY ?b LIMIT 2 OFFSET 1",
        )
        values = [row[0] for row in result.rows()]
        assert len(values) == 2
        assert values == sorted(values, key=lambda t: t.value)

    def test_distinct(self):
        result = run(
            countries_dataset(),
            "SELECT DISTINCT ?b WHERE { ?a ex:borders ?b . ?c ex:borders ?b }",
        )
        assert len(result) == len(result.to_set())

    def test_ask(self):
        assert run(countries_dataset(), "ASK WHERE { ex:spain ex:borders ex:france }") is True
        assert run(countries_dataset(), "ASK WHERE { ex:spain ex:borders ex:austria }") is False

    def test_group_by_count(self):
        result = run(
            countries_dataset(),
            "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:borders ?b } GROUP BY ?a",
        )
        by_country = {row[0]: row[1].as_python() for row in result.rows()}
        assert by_country[EX.france] == 2
        assert by_country[EX.spain] == 1

    def test_bind(self):
        result = run(
            directors_dataset(),
            'SELECT ?n ?u WHERE { ?x ex:name ?n BIND(UCASE(?n) AS ?u) }',
        )
        rows = dict(result.rows())
        assert rows[Literal("George")] == Literal("GEORGE")

    def test_values(self):
        result = run(
            countries_dataset(),
            "SELECT ?x ?b WHERE { VALUES ?x { ex:spain ex:france } ?x ex:borders ?b }",
        )
        assert (EX.spain, EX.france) in result.to_set()
        assert all(row[0] in {EX.spain, EX.france} for row in result.rows())


    def test_select_expression_reads_an_earlier_one(self):
        # SPARQL 1.1 §18.2.4.4: (expr AS ?v) extends the row, so a later
        # select expression sees ?v.  Regression: every expression used
        # to be evaluated against the original row, leaving ?c unbound.
        graph = EncodedGraph([Triple(EX.a, EX.p, Literal.from_python(2))])
        result = run(
            Dataset.from_graph(graph),
            "SELECT ?s (?v + 1 AS ?b) (?b * 2 AS ?c) WHERE { ?s ex:p ?v }",
        )
        assert result.rows() == [(EX.a, Literal.from_python(3), Literal.from_python(6))]
        # An errored expression leaves its variable unbound for the next.
        result = run(
            Dataset.from_graph(graph),
            "SELECT (?s + 1 AS ?b) (?b * 2 AS ?c) (?v AS ?d) WHERE { ?s ex:p ?v }",
        )
        assert result.rows() == [(None, None, Literal.from_python(2))]


class TestBinding:
    """Value semantics of a row however it was built (lazy hash, sorted items)."""

    A, B, C = (Variable(name) for name in "abc")

    def _equal_rows(self):
        A, B, C = self.A, self.B, self.C
        return [
            Binding({A: EX.x, B: EX.y}),
            Binding({B: EX.y, A: EX.x}),
            Binding.from_sorted_items(((A, EX.x), (B, EX.y))),
            SolutionSequence([A, B], [(EX.x, EX.y)]).bindings[0],
            SolutionSequence([B, A, Variable("unused")], [(EX.y, EX.x, None)]).bindings[0],
            SolutionSequence([C, B, A], [(None, EX.y, EX.x)]).bindings[0],
            Binding({Variable("a"): EX.x, Variable("b"): EX.y}),
        ]

    def test_equal_rows_hash_equal_across_constructors(self):
        rows = self._equal_rows()
        for binding in rows:
            assert binding == rows[0]
            assert hash(binding) == hash(rows[0])
            assert binding.items() == rows[0].items()
        assert Binding({self.A: EX.x}) != rows[0]
        assert Binding() == Binding.from_sorted_items(()) == SolutionSequence([], [()]).bindings[0]
        assert hash(Binding()) == hash(Binding.from_sorted_items(()))

    def test_rows_are_counter_and_set_keys(self):
        rows = self._equal_rows()
        other = Binding({self.A: EX.x, self.B: EX.z})
        assert Counter(rows + [other]) == {rows[0]: len(rows), other: 1}
        assert set(rows) == {rows[3]}
        tuples = [(binding.get(self.A), binding.get(self.B)) for binding in rows + [other]]
        assert len(SolutionSequence([self.A, self.B], tuples).distinct()) == 2
        assert SolutionSequence([self.A, self.B], tuples) == SolutionSequence(
            [self.B, self.A], [(b, a) for a, b in reversed(tuples)]
        )

    def test_realign_rows_matches_by_name_and_leaves_unbound_none(self):
        A, B, C = self.A, self.B, self.C
        rows = [(EX.x, EX.y)]
        assert list(realign_rows(rows, [A, B], [B, C, Variable("a")])) == [(EX.y, None, EX.x)]
        assert list(realign_rows(rows, [A, B], [Variable("b")])) == [(EX.y,)]
        assert list(realign_rows([(EX.x,), (None,)], [A], [])) == [(), ()]
        assert realign_rows(rows, [A, B], [Variable("a"), Variable("b")]) is rows

    def test_a_positional_reader_reads_by_name_and_unbound_as_absent(self):
        A, B, C = self.A, self.B, self.C
        reader = positional([A, B])
        row = (EX.x, None)
        assert reader(Variable("a"))(row) == EX.x
        assert reader(B)(row) is None
        assert reader(C)(row) is None
        assert reader(B)((None, EX.y)) == EX.y and reader(A)((None, EX.y)) is None

    def test_lookup_by_equal_but_distinct_variable(self):
        binding = Binding({self.A: EX.x})
        assert binding[Variable("a")] == EX.x
        assert binding.get(Variable("a")) == EX.x
        assert Variable("a") in binding
        assert Variable("b") not in binding
        assert binding.get(Variable("b")) is None
        with pytest.raises(KeyError):
            binding[Variable("b")]


class TestJoinSharedVariables:
    def test_heterogeneous_union_join_is_exact(self):
        # Regression: _join used to infer shared variables from only the
        # first 16 bindings per side, so a shared variable appearing later
        # in a heterogeneous sequence (e.g. from UNION) was missed and the
        # join silently misbehaved on large inputs.
        graph = EncodedGraph()
        for i in range(40):
            graph.add(Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"]))
        graph.add(Triple(EX.special, EX.q, EX.o0))
        graph.add(Triple(EX.o0, EX.r, EX.hit))
        dataset = Dataset.from_graph(graph)
        # Left side of the join: 40 {?y} rows from ex:p plus one {?x ?y}
        # row from ex:q — the ?x variable only appears past position 16.
        result = run(
            dataset,
            "SELECT ?x ?z WHERE { "
            "{ { ?a ex:p ?y } UNION { ?x ex:q ?y } } . ?y ex:r ?z }",
        )
        assert (EX.special, EX.hit) in result.to_set()

    def test_join_with_unbound_shared_variable_on_left(self):
        result = run(
            directors_dataset(),
            "SELECT ?n ?l WHERE { "
            "{ { ?x ex:name ?n } UNION { ?y ex:lastname ?l } } . ?x ex:lastname ?l }",
        )
        rows = result.to_set()
        # The UNION row binding only ?l joins with the ?x/?l pattern.
        assert (None, Literal("Lucas")) in rows
        assert (Literal("George"), Literal("Lucas")) in rows


class TestOrderByEdgeCases:
    def _optional_dataset(self):
        return directors_dataset()

    def test_unbound_sorts_first_ascending(self):
        result = run(
            self._optional_dataset(),
            "SELECT ?n ?l WHERE { ?x ex:name ?n OPTIONAL { ?x ex:lastname ?l } } "
            "ORDER BY ?l",
        )
        rows = result.rows()
        assert rows[0][1] is None  # Steven's unbound lastname first
        assert rows[1][1] == Literal("Lucas")

    def test_unbound_sorts_last_descending(self):
        # SPARQL ranks unbound lowest and DESC reverses the whole
        # ordering, so unbound keys move to the *end* under DESC — the
        # reference-engine placement (Jena ARQ, Virtuoso).
        result = run(
            self._optional_dataset(),
            "SELECT ?n ?l WHERE { ?x ex:name ?n OPTIONAL { ?x ex:lastname ?l } } "
            "ORDER BY DESC(?l)",
        )
        rows = result.rows()
        assert rows[0][1] == Literal("Lucas")
        assert rows[-1][1] is None  # Steven's unbound lastname last under DESC

    def test_mixed_direction_keys(self):
        result = run(
            countries_dataset(),
            "SELECT ?a ?b WHERE { ?a ex:borders ?b } ORDER BY DESC(?a) ?b",
        )
        subjects = [row[0].value for row in result.rows()]
        assert subjects == sorted(subjects, reverse=True)

    def test_reversed_wrapper_rejects_foreign_comparand(self):
        from repro.sparql.modifiers import _Reversed

        with pytest.raises(TypeError):
            _Reversed((1, "a")) < (1, "a")
        assert _Reversed((1, "a")) != (1, "a")


class TestNamedGraphs:
    def _dataset(self):
        dataset = Dataset.from_graph(countries_dataset().default_graph)
        named = EncodedGraph([Triple(EX.a, EX.p, EX.b)])
        dataset.add_named_graph(IRI("http://g1"), named)
        return dataset

    def test_graph_with_iri(self):
        result = run(
            self._dataset(),
            "SELECT ?s WHERE { GRAPH <http://g1> { ?s ex:p ?o } }",
        )
        assert result.to_set() == {(EX.a,)}

    def test_graph_with_variable_binds_graph_name(self):
        result = run(
            self._dataset(),
            "SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:p ?o } }",
        )
        assert result.to_set() == {(IRI("http://g1"), EX.a)}

    def test_default_graph_not_visible_inside_graph(self):
        result = run(
            self._dataset(),
            "SELECT ?s WHERE { GRAPH <http://g1> { ?s ex:borders ?o } }",
        )
        assert len(result) == 0
