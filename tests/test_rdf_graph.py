"""Unit tests for graphs and datasets."""

import pytest

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Literal, Triple, Variable

from tests.helpers import EX, countries_graph


class TestGraph:
    def test_add_and_len(self):
        graph = Graph()
        graph.add(Triple(EX.a, EX.p, EX.b))
        graph.add(Triple(EX.a, EX.p, EX.b))  # duplicate ignored
        assert len(graph) == 1

    def test_add_rejects_non_ground_triples(self):
        graph = Graph()
        with pytest.raises(ValueError):
            graph.add(Triple(Variable("x"), EX.p, EX.b))

    def test_contains_and_iteration(self):
        triple = Triple(EX.a, EX.p, EX.b)
        graph = Graph([triple])
        assert triple in graph
        assert list(graph) == [triple]

    def test_pattern_matching_all_index_shapes(self):
        graph = countries_graph()
        assert len(list(graph.triples(EX.spain, None, None))) == 1
        assert len(list(graph.triples(None, EX.borders, None))) == 5
        assert len(list(graph.triples(None, None, EX.germany))) == 2
        assert len(list(graph.triples(EX.france, EX.borders, None))) == 2
        assert len(list(graph.triples(None, EX.borders, EX.germany))) == 2
        assert len(list(graph.triples(EX.spain, None, EX.france))) == 1
        assert len(list(graph.triples(EX.spain, EX.borders, EX.france))) == 1
        assert len(list(graph.triples(None, None, None))) == 5

    def test_pattern_matching_misses(self):
        graph = countries_graph()
        assert list(graph.triples(EX.austria, EX.borders, None)) == []
        assert list(graph.triples(None, EX.unknown, None)) == []

    def test_remove(self):
        graph = countries_graph()
        graph.remove(Triple(EX.spain, EX.borders, EX.france))
        assert len(graph) == 4
        assert list(graph.triples(EX.spain, None, None)) == []
        # removing again is a no-op
        graph.remove(Triple(EX.spain, EX.borders, EX.france))
        assert len(graph) == 4

    def test_remove_prunes_index_shells(self):
        # Regression: remove() used to leave empty inner sets and dict
        # shells behind, so term accessors reported stale terms and memory
        # grew monotonically under add/remove churn.
        graph = Graph()
        triple = Triple(EX.a, EX.p, EX.b)
        graph.add(triple)
        graph.remove(triple)
        assert graph.subjects() == set()
        assert graph.predicates() == set()
        assert graph.objects() == set()
        assert graph.terms() == set()
        assert graph.nodes() == set()
        assert graph._spo == {} and graph._pos == {} and graph._osp == {}

    def test_remove_churn_keeps_memory_bounded(self):
        graph = Graph()
        for i in range(200):
            triple = Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"])
            graph.add(triple)
            graph.remove(triple)
        assert len(graph) == 0
        assert len(graph._spo) == 0
        assert len(graph._pos) == 0
        assert len(graph._osp) == 0

    def test_remove_keeps_sibling_entries(self):
        graph = countries_graph()
        graph.remove(Triple(EX.france, EX.borders, EX.belgium))
        assert EX.france in graph.subjects()  # still borders germany
        assert EX.belgium not in graph.objects()
        assert graph.objects_for(EX.france, EX.borders) == {EX.germany}

    def test_subjects_predicates_objects(self):
        graph = countries_graph()
        assert EX.spain in graph.subjects()
        assert graph.predicates() == {EX.borders}
        assert EX.austria in graph.objects()

    def test_nodes_excludes_predicates(self):
        graph = countries_graph()
        assert EX.borders not in graph.nodes()
        assert EX.spain in graph.nodes()

    def test_copy_is_independent(self):
        graph = countries_graph()
        clone = graph.copy()
        clone.add(Triple(EX.austria, EX.borders, EX.italy))
        assert len(graph) == 5
        assert len(clone) == 6

    def test_objects_for_and_subjects_for(self):
        graph = countries_graph()
        assert graph.objects_for(EX.france, EX.borders) == {EX.belgium, EX.germany}
        assert graph.subjects_for(EX.borders, EX.germany) == {EX.france, EX.belgium}


class TestDataset:
    def test_default_graph_wrapping(self):
        graph = countries_graph()
        dataset = Dataset.from_graph(graph)
        assert dataset.graph() is graph
        assert len(dataset) == 5

    def test_named_graphs(self):
        dataset = Dataset()
        named = Graph([Triple(EX.a, EX.p, EX.b)])
        dataset.add_named_graph(IRI("http://g1"), named)
        assert dataset.graph(IRI("http://g1")) is named
        assert dataset.names() == {IRI("http://g1")}
        # unknown graph name yields an empty graph
        assert len(dataset.graph(IRI("http://nope"))) == 0

    def test_quads_iteration(self):
        dataset = Dataset.from_graph(countries_graph())
        dataset.add_named_graph(IRI("http://g1"), Graph([Triple(EX.a, EX.p, EX.b)]))
        quads = list(dataset.quads())
        assert len(quads) == 6
        names = {name for _, name in quads}
        assert names == {None, IRI("http://g1")}

    def test_copy_deep(self):
        dataset = Dataset.from_graph(countries_graph())
        clone = dataset.copy()
        clone.default_graph.add(Triple(EX.x, EX.p, EX.y))
        assert len(dataset.default_graph) == 5
