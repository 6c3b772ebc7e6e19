"""Tests for property-path semantics: the id path engine of planned
evaluation and the term-level ALP procedure of the unplanned one."""

from collections import Counter

import pytest

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Literal, Triple
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.paths import (
    OneOrMorePath,
    RepeatPath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    LinkPath,
    expand_repeat,
    normalize_path,
)

from repro.store import EncodedGraph

from tests.helpers import EX, NAIVE, countries_dataset

PREFIX = "PREFIX ex: <http://ex.org/>\n"


def run(dataset, query_text):
    """The answer on the encoded store (the id path engine), checked against
    the unplanned evaluation on the hash store (the term-level ALP)."""
    query = parse_query(PREFIX + query_text)
    graph = dataset.default_graph
    planned = SparqlEvaluator(Dataset.from_graph(EncodedGraph(graph))).evaluate(query)
    unplanned = SparqlEvaluator(Dataset.from_graph(Graph(graph)), profile=NAIVE).evaluate(query)
    assert Counter(planned.rows()) == Counter(unplanned.rows())
    return planned


def cyclic_dataset() -> Dataset:
    graph = Graph(
        [
            Triple(EX.a, EX.p, EX.b),
            Triple(EX.b, EX.p, EX.c),
            Triple(EX.c, EX.p, EX.a),  # cycle
            Triple(EX.c, EX.q, EX.d),
        ]
    )
    return Dataset.from_graph(graph)


class TestClosurePaths:
    def test_one_or_more_from_bound_subject(self):
        result = run(
            countries_dataset(),
            "SELECT ?b WHERE { ex:spain ex:borders+ ?b }",
        )
        assert result.to_set() == {
            (EX.france,), (EX.belgium,), (EX.germany,), (EX.austria,),
        }

    def test_one_or_more_set_semantics_no_duplicates(self):
        # germany is reachable from france via two paths, but + has set semantics.
        result = run(
            countries_dataset(),
            "SELECT ?b WHERE { ex:france ex:borders+ ?b }",
        )
        assert len(result) == len(result.to_set())

    def test_one_or_more_on_cycle_includes_start(self):
        result = run(cyclic_dataset(), "SELECT ?x WHERE { ex:a ex:p+ ?x }")
        assert (EX.a,) in result.to_set()

    def test_zero_or_more_includes_start_even_without_edges(self):
        result = run(
            countries_dataset(),
            "SELECT ?b WHERE { ex:austria ex:borders* ?b }",
        )
        assert result.to_set() == {(EX.austria,)}

    def test_zero_or_more_for_node_not_in_graph(self):
        # The zero-length path must exist for a bound term absent from the
        # graph — the corner case the paper fixes (Section 5.2).
        result = run(
            countries_dataset(),
            "SELECT ?b WHERE { ex:atlantis ex:borders* ?b }",
        )
        assert result.to_set() == {(IRI("http://ex.org/atlantis"),)}

    def test_zero_or_one(self):
        result = run(
            countries_dataset(),
            "SELECT ?b WHERE { ex:spain ex:borders? ?b }",
        )
        assert result.to_set() == {(EX.spain,), (EX.france,)}

    def test_zero_or_more_two_variables_includes_all_nodes(self):
        result = run(cyclic_dataset(), "SELECT ?x ?y WHERE { ?x ex:p* ?y }")
        nodes = {EX.a, EX.b, EX.c, EX.d}
        for node in nodes:
            assert (node, node) in result.to_set()

    def test_backwards_evaluation_with_bound_object(self):
        result = run(
            countries_dataset(),
            "SELECT ?a WHERE { ?a ex:borders+ ex:austria }",
        )
        assert result.to_set() == {
            (EX.spain,), (EX.france,), (EX.belgium,), (EX.germany,),
        }


class TestStructuralPaths:
    def test_inverse(self):
        result = run(
            countries_dataset(), "SELECT ?x WHERE { ex:germany ^ex:borders ?x }"
        )
        assert result.to_set() == {(EX.france,), (EX.belgium,)}

    def test_sequence(self):
        result = run(
            countries_dataset(), "SELECT ?x WHERE { ex:spain ex:borders/ex:borders ?x }"
        )
        assert result.to_set() == {(EX.belgium,), (EX.germany,)}

    def test_alternative_preserves_duplicates(self):
        result = run(
            countries_dataset(),
            "SELECT ?x WHERE { ex:spain (ex:borders|ex:borders) ?x }",
        )
        assert len(result) == 2

    def test_negated_property_set(self):
        dataset = cyclic_dataset()
        result = run(dataset, "SELECT ?x ?y WHERE { ?x !(ex:p) ?y }")
        assert result.to_set() == {(EX.c, EX.d)}

    def test_negated_with_inverse_member(self):
        dataset = cyclic_dataset()
        result = run(dataset, "SELECT ?x ?y WHERE { ?x !(ex:p|^ex:p) ?y }")
        # forward: only the q edge; inverse: only the reversed q edge.
        assert result.to_set() == {(EX.c, EX.d), (EX.d, EX.c)}

    def test_bounded_repetition(self):
        result = run(
            countries_dataset(),
            "SELECT ?x WHERE { ex:spain ex:borders{2,3} ?x }",
        )
        assert result.to_set() == {(EX.belgium,), (EX.germany,), (EX.austria,)}

    def test_sequence_of_inverse_and_forward(self):
        result = run(
            countries_dataset(),
            "SELECT ?x WHERE { ex:belgium ^ex:borders/ex:borders ?x }",
        )
        assert (EX.germany,) in result.to_set()


class TestRepeatExpansion:
    def test_exact_repeat(self):
        path = expand_repeat(RepeatPath(LinkPath(EX.p), 3, 3))
        assert isinstance(path, SequencePath)

    def test_zero_to_n(self):
        path = expand_repeat(RepeatPath(LinkPath(EX.p), 0, 2))
        assert isinstance(path, SequencePath)
        assert isinstance(path.left, ZeroOrOnePath)

    def test_n_or_more(self):
        path = expand_repeat(RepeatPath(LinkPath(EX.p), 2, None))
        assert isinstance(path, SequencePath)
        assert isinstance(path.right, OneOrMorePath)

    def test_zero_or_more_equivalent(self):
        assert isinstance(expand_repeat(RepeatPath(LinkPath(EX.p), 0, None)), ZeroOrMorePath)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            expand_repeat(RepeatPath(LinkPath(EX.p), 3, 2))
        with pytest.raises(ValueError):
            expand_repeat(RepeatPath(LinkPath(EX.p), 0, 0))

    def test_normalize_is_recursive(self):
        path = normalize_path(SequencePath(RepeatPath(LinkPath(EX.p), 1, 2), LinkPath(EX.q)))
        assert not any(
            isinstance(node, RepeatPath)
            for node in [path, path.left, path.right]
        )

    def test_is_recursive_flag(self):
        assert OneOrMorePath(LinkPath(EX.p)).is_recursive()
        assert RepeatPath(LinkPath(EX.p), 1, None).is_recursive()
        assert not RepeatPath(LinkPath(EX.p), 1, 3).is_recursive()
        assert not LinkPath(EX.p).is_recursive()


class TestSequenceClosureRegressions:
    """Regressions for the ``None`` endpoint-hint bug and its relatives.

    Sequences hand their halves ``None`` for the shared middle position;
    ``_closure_pairs`` used to misread that as a *bound* endpoint and
    expand from the non-term ``None``, so any sequence containing a
    closure with free outer endpoints silently returned nothing.
    """

    def _chain_dataset(self):
        graph = Graph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.b, EX.q, EX.c),
                Triple(EX.c, EX.q, EX.d),
                Triple(EX.x, EX.q, EX.y),
            ]
        )
        return Dataset.from_graph(graph)

    def test_closure_on_right_of_sequence_with_free_endpoints(self):
        result = run(
            self._chain_dataset(), "SELECT ?x ?y WHERE { ?x ex:p/ex:q+ ?y }"
        )
        assert result.to_set() == {(EX.a, EX.c), (EX.a, EX.d)}

    def test_closure_on_left_of_sequence_with_free_endpoints(self):
        result = run(
            self._chain_dataset(), "SELECT ?x ?y WHERE { ?x ex:q*/ex:p ?y }"
        )
        assert result.to_set() == {(EX.a, EX.b)}

    def test_sequence_of_optionals_matches_bound_non_node(self):
        # A bound endpoint outside the graph still zero-length-matches
        # through a sequence whose halves both admit zero length.
        result = run(
            self._chain_dataset(),
            "SELECT ?y WHERE { ex:atlantis ex:p?/ex:q? ?y }",
        )
        assert (EX.atlantis,) in result.to_set()
        result = run(
            self._chain_dataset(),
            "SELECT ?x WHERE { ?x ex:p?/ex:q? ex:atlantis }",
        )
        assert (EX.atlantis,) in result.to_set()

    def test_bound_non_node_both_endpoints_yields_single_solution(self):
        # Regression: the zero-length graft used to re-append the
        # (subject, subject) self-pair the left half already contained,
        # doubling the solution when both endpoints were the same bound
        # term outside the graph.
        result = run(
            self._chain_dataset(),
            "SELECT ?z WHERE { ex:atlantis ex:p?/ex:q? ex:atlantis . BIND(1 AS ?z) }",
        )
        assert list(result.rows()) == [(Literal("1", IRI("http://www.w3.org/2001/XMLSchema#integer")),)]

    def test_datalog_translation_agreement_on_sequence_closure(self):
        from collections import Counter

        from repro.core.engine import SparqLogEngine

        dataset = self._chain_dataset()
        query = "SELECT ?x ?y WHERE { ?x ex:p/ex:q+ ?y }"
        reference = run(dataset, query)
        translated = SparqLogEngine(dataset).query(PREFIX + query)
        assert Counter(reference.rows()) == Counter(translated.rows())


class TestBoundEndpointShortCircuit:
    """The both-endpoints-bound closure stops at the first target sighting."""

    class _CountingGraph(Graph):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.probes = 0

        def triples(self, subject=None, predicate=None, obj=None):
            self.probes += 1
            return super().triples(subject, predicate, obj)

    def _long_chain(self, length=200):
        graph = self._CountingGraph()
        for i in range(length):
            graph.add(Triple(EX[f"n{i}"], EX.next, EX[f"n{i + 1}"]))
        return graph

    def test_reachability_probe_stops_at_adjacent_target(self):
        graph = self._long_chain()
        evaluator = SparqlEvaluator(Dataset.from_graph(graph), profile=NAIVE)
        graph.probes = 0
        result = evaluator.evaluate(
            parse_query(PREFIX + "ASK { ex:n0 ex:next+ ex:n1 }")
        )
        assert result is True
        # Without the short-circuit the expansion walks the whole chain
        # (~200 probes); with it, the target is adjacent, so only a
        # handful of index probes happen.
        assert graph.probes < 10

    def test_unreachable_target_still_correct(self):
        graph = self._long_chain()
        evaluator = SparqlEvaluator(Dataset.from_graph(graph), profile=NAIVE)
        assert (
            evaluator.evaluate(
                parse_query(PREFIX + "ASK { ex:n5 ex:next+ ex:n0 }")
            )
            is False
        )

    def test_short_circuit_preserves_bound_pair_results(self):
        graph = self._long_chain(20)
        evaluator = SparqlEvaluator(Dataset.from_graph(graph), profile=NAIVE)
        result = evaluator.evaluate(
            parse_query(PREFIX + "SELECT ?x WHERE { ex:n0 ex:next* ex:n20 . ?x ex:next ex:n1 }")
        )
        assert result.to_set() == {(EX.n0,)}
