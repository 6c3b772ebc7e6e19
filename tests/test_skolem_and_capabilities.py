"""Tests for the Skolem generator, capabilities registry and solution containers."""

from repro.core.capabilities import (
    FEATURE_TABLE,
    feature_rows_by_group,
    supported_features,
)
from repro.core.skolem import SET_ID, SkolemFunctionGenerator
from repro.datalog.rules import Assignment, SkolemExpr
from repro.datalog.terms import Var
from repro.rdf.terms import IRI, Literal, Variable
from repro.sparql.solutions import SolutionSequence


class TestSkolemGenerator:
    def test_ids_are_unique_per_rule(self):
        generator = SkolemFunctionGenerator()
        first = generator.tuple_id_assignment(Var("Id"), [Var("X")], "join")
        second = generator.tuple_id_assignment(Var("Id"), [Var("X")], "join")
        assert isinstance(first.expression, SkolemExpr)
        assert first.expression.functor != second.expression.functor

    def test_body_variables_sorted_and_deduplicated(self):
        generator = SkolemFunctionGenerator()
        assignment = generator.tuple_id_assignment(
            Var("Id"), [Var("B"), Var("A"), Var("B")], "test"
        )
        assert assignment.expression.arguments == (Var("A"), Var("B"))

    def test_label_is_embedded_in_functor(self):
        generator = SkolemFunctionGenerator()
        assignment = generator.tuple_id_assignment(Var("Id"), [], "union-left")
        assert "union-left" in assignment.expression.functor

    def test_set_semantics_assignment_is_constant(self):
        assignment = SkolemFunctionGenerator.set_semantics_assignment(Var("Id"))
        assert isinstance(assignment, Assignment)
        assert assignment.expression == SET_ID


class TestCapabilities:
    def test_table_has_paper_row_count(self):
        assert len(FEATURE_TABLE) == 40

    def test_headline_features_supported(self):
        supported = supported_features()
        for feature in (
            "OPTIONAL", "UNION", "MINUS", "SELECT", "ASK", "DISTINCT",
            "ZeroOrMorePath (exp*)", "OneOrMorePath (exp+)", "GROUP BY",
        ):
            assert feature in supported

    def test_unsupported_features_match_paper(self):
        supported = supported_features()
        for feature in ("CONSTRUCT", "DESCRIBE", "BIND", "VALUES", "HAVING"):
            assert feature not in supported

    def test_grouping_by_general_feature(self):
        grouped = feature_rows_by_group()
        assert "Property paths" in grouped
        assert len(grouped["Property paths"]) == 8


class TestSolutionSequence:
    def _sequence(self):
        x, y = Variable("x"), Variable("y")
        rows = [
            (IRI("http://a"), Literal("1")),
            (IRI("http://a"), Literal("1")),
            (IRI("http://b"), None),
        ]
        return SolutionSequence([x, y], rows)

    def test_len_and_rows(self):
        sequence = self._sequence()
        assert len(sequence) == 3
        assert sequence.rows()[2] == (IRI("http://b"), None)

    def test_bag_equality_ignores_order(self):
        left = self._sequence()
        right = SolutionSequence(left.variables, list(reversed(left.rows())))
        assert left == right

    def test_distinct(self):
        assert len(self._sequence().distinct()) == 2

    def test_counter_counts_duplicates(self):
        counts = self._sequence().counter()
        assert max(counts.values()) == 2

    def test_sorted_rows_deterministic(self):
        sequence = self._sequence()
        assert sequence.sorted_rows() == sorted(
            sequence.rows(), key=lambda row: [str(value) for value in row]
        ) or len(sequence.sorted_rows()) == 3
