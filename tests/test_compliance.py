"""Tests for the compliance framework (metrics, classification, voting)."""

from collections import Counter

import pytest

from repro.compliance.compare import (
    ComparisonOutcome,
    classify_result,
    completeness,
    correctness,
    majority_vote,
    results_equal,
)
from repro.compliance.runner import ComplianceRunner
from repro.baselines.virtuoso_like import VirtuosoLikeEngine
from repro.core.engine import SparqLogEngine
from repro.engine import create_engine
from repro.rdf.terms import BlankNode, IRI, Literal, Variable
from repro.sparql.solutions import SolutionSequence
from repro.workloads.beseppi import BeSEPPIWorkload

from tests.helpers import countries_dataset


def sequence(rows):
    return SolutionSequence([Variable("x")], [(value,) for value in rows])


A, B, C = IRI("http://a"), IRI("http://b"), IRI("http://c")


class TestMetrics:
    def test_correctness_and_completeness_perfect_match(self):
        actual, expected = sequence([A, B]), sequence([B, A])
        assert correctness(actual, expected) == 1.0
        assert completeness(actual, expected) == 1.0
        assert classify_result(actual, expected) is ComparisonOutcome.CORRECT

    def test_incomplete_but_correct(self):
        actual, expected = sequence([A]), sequence([A, B])
        assert correctness(actual, expected) == 1.0
        assert completeness(actual, expected) == 0.5
        assert classify_result(actual, expected) is ComparisonOutcome.INCOMPLETE_CORRECT

    def test_complete_but_incorrect(self):
        actual, expected = sequence([A, B, C]), sequence([A, B])
        assert classify_result(actual, expected) is ComparisonOutcome.COMPLETE_INCORRECT

    def test_incomplete_and_incorrect(self):
        actual, expected = sequence([A, C]), sequence([A, B])
        assert classify_result(actual, expected) is ComparisonOutcome.INCOMPLETE_INCORRECT

    def test_error_classification(self):
        assert classify_result(None, sequence([A]), errored=True) is ComparisonOutcome.ERROR

    def test_duplicates_matter(self):
        actual, expected = sequence([A]), sequence([A, A])
        assert classify_result(actual, expected) is ComparisonOutcome.INCOMPLETE_CORRECT

    def test_empty_results(self):
        assert correctness(sequence([]), sequence([])) == 1.0
        assert completeness(sequence([]), sequence([])) == 1.0

    def test_boolean_results(self):
        assert classify_result(True, True) is ComparisonOutcome.CORRECT
        assert classify_result(False, True) is ComparisonOutcome.INCOMPLETE_INCORRECT

    def test_expected_as_counter(self):
        expected = Counter({(A,): 2, (B,): 1})
        assert classify_result(sequence([A, A, B]), expected) is ComparisonOutcome.CORRECT

    def test_blank_nodes_compare_equal_regardless_of_label(self):
        left = sequence([BlankNode("x1")])
        right = sequence([BlankNode("y9")])
        assert results_equal(left, right)


class TestMajorityVote:
    def test_two_out_of_three(self):
        winner = majority_vote([sequence([A]), sequence([A]), sequence([B])])
        assert results_equal(winner, sequence([A]))

    def test_errors_do_not_vote(self):
        winner = majority_vote([None, sequence([A]), sequence([A])])
        assert results_equal(winner, sequence([A]))

    def test_no_majority_falls_back_to_first(self):
        winner = majority_vote([sequence([A]), sequence([B]), sequence([C])])
        assert results_equal(winner, sequence([A]))

    def test_all_errors(self):
        assert majority_vote([None, None]) is None


class TestRunner:
    def test_beseppi_runner_on_sample(self):
        workload = BeSEPPIWorkload()
        queries = workload.queries()[:8]
        engines = {
            "Native": create_engine(workload.dataset()),
            "SparqLog": SparqLogEngine(workload.dataset(), timeout_seconds=20),
        }
        report = ComplianceRunner(engines).run_with_expected("BeSEPPI", queries)
        assert report.total_queries() == len(queries)
        for name in engines:
            assert report.correct_count(name) == len(queries)

    def test_majority_vote_runner(self):
        from repro.workloads.sp2bench import BenchmarkQuery

        queries = [
            BenchmarkQuery(
                "mv-1",
                "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ex:spain ex:borders ?x }",
                ("BGP",),
            )
        ]
        dataset = countries_dataset()
        engines = {
            "Native": create_engine(dataset),
            "VirtuosoLike": VirtuosoLikeEngine(dataset),
            "SparqLog": SparqLogEngine(dataset, timeout_seconds=20),
        }
        report = ComplianceRunner(engines).run_with_majority_vote("tiny", queries)
        for name in engines:
            assert report.correct_count(name) == 1

    def test_what_an_engine_raises_is_recorded_as_an_error(self):
        from repro.workloads.sp2bench import BenchmarkQuery

        queries = [
            BenchmarkQuery("malformed", "SELECT WHERE {", ("BGP",)),
            BenchmarkQuery(
                "closure",
                "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:borders+ ?y }",
                ("PP",),
            ),
        ]
        dataset = countries_dataset()
        engines = {
            "Native": create_engine(dataset),
            "VirtuosoLike": VirtuosoLikeEngine(dataset),
            "SparqLog": SparqLogEngine(dataset, timeout_seconds=20),
        }
        report = ComplianceRunner(engines, timeout_seconds=20).run_with_majority_vote(
            "errors", queries
        )
        records = {(r.engine, r.query_id): r for r in report.records}
        for name in engines:
            malformed = records[name, "malformed"]
            assert malformed.outcome is ComparisonOutcome.ERROR
            assert malformed.error.startswith("SparqlSyntaxError: ")
        closure = records["VirtuosoLike", "closure"]
        assert closure.outcome is ComparisonOutcome.ERROR
        assert "transitive start" in closure.error
        for name in ("Native", "SparqLog"):
            assert records[name, "closure"].outcome is ComparisonOutcome.CORRECT
            assert records[name, "closure"].error is None
