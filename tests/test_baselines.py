"""Tests for the baseline engines and their documented behaviour profiles."""

import pytest

from repro.baselines.stardog_like import StardogLikeEngine
from repro.baselines.virtuoso_like import EngineError, VirtuosoLikeEngine
from repro.engine import create_engine
from repro.rdf.graph import Dataset
from repro.rdf.terms import RDF, Triple
from repro.store import EncodedGraph

from tests.helpers import EX, countries_dataset
from tests.test_ontology import university_graph, university_ontology

PREFIX = "PREFIX ex: <http://ex.org/>\n"


class TestNativeEngine:
    def test_select_and_ask(self):
        engine = create_engine(countries_dataset())
        result = engine.query(PREFIX + "SELECT ?x WHERE { ex:spain ex:borders ?x }")
        assert result.to_set() == {(EX.france,)}
        assert engine.query(PREFIX + "ASK WHERE { ex:spain ex:borders ex:france }") is True


class TestVirtuosoLikeDeviations:
    def test_two_variable_recursive_path_errors(self):
        engine = VirtuosoLikeEngine(countries_dataset())
        with pytest.raises(EngineError, match="transitive start"):
            engine.query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:borders+ ?y }")

    def test_bound_subject_recursive_path_still_works(self):
        engine = VirtuosoLikeEngine(countries_dataset())
        result = engine.query(PREFIX + "SELECT ?x WHERE { ex:spain ex:borders+ ?x }")
        assert (EX.austria,) in result.to_set()

    def test_one_or_more_drops_cycle_start_node(self):
        cyclic = EncodedGraph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.b, EX.p, EX.c),
                Triple(EX.c, EX.p, EX.a),
            ]
        )
        virtuoso = VirtuosoLikeEngine(Dataset.from_graph(cyclic))
        native = create_engine(Dataset.from_graph(cyclic))
        correct = native.query(PREFIX + "SELECT ?x WHERE { ex:a ex:p+ ?x }")
        deviant = virtuoso.query(PREFIX + "SELECT ?x WHERE { ex:a ex:p+ ?x }")
        assert (EX.a,) in correct.to_set()
        assert (EX.a,) not in deviant.to_set()
        assert deviant.to_set() < correct.to_set()

    def test_alternative_path_loses_duplicates(self):
        virtuoso = VirtuosoLikeEngine(countries_dataset())
        native = create_engine(countries_dataset())
        query = PREFIX + "SELECT ?x WHERE { ex:spain (ex:borders|ex:borders) ?x }"
        assert len(native.query(query)) == 2
        assert len(virtuoso.query(query)) == 1

    def test_union_duplicates_omitted(self):
        virtuoso = VirtuosoLikeEngine(countries_dataset())
        query = (
            PREFIX
            + "SELECT ?x WHERE { { ex:spain ex:borders ?x } UNION { ex:spain ex:borders ?x } }"
        )
        assert len(virtuoso.query(query)) == 1

    def test_non_path_queries_are_standard(self):
        virtuoso = VirtuosoLikeEngine(countries_dataset())
        native = create_engine(countries_dataset())
        query = PREFIX + "SELECT ?a ?b WHERE { ?a ex:borders ?b FILTER (?a != ex:spain) }"
        assert virtuoso.query(query).to_set() == native.query(query).to_set()


class TestStardogLike:
    def test_materialised_reasoning(self):
        engine = StardogLikeEngine(
            Dataset.from_graph(university_graph()), ontology=university_ontology()
        )
        result = engine.query(
            PREFIX
            + "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            + "SELECT ?x WHERE { ?x rdf:type ex:Person }"
        )
        assert {row[0] for row in result.rows()} == {EX.alice, EX.bob}

    def test_reload_invalidates_materialisation(self):
        engine = StardogLikeEngine(
            Dataset.from_graph(university_graph()), ontology=university_ontology()
        )
        engine.load(Dataset.from_graph(EncodedGraph()))
        result = engine.query(
            PREFIX
            + "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
            + "SELECT ?x WHERE { ?x rdf:type ex:Person }"
        )
        assert len(result) == 0

    def test_one_engine_per_dataset_rebuilt_by_load(self):
        engine = StardogLikeEngine(
            Dataset.from_graph(university_graph()), ontology=university_ontology()
        )
        query = PREFIX + "SELECT ?x WHERE { ?x ex:involvedIn ?y }"
        engine.query(query)
        kept = engine.engine
        engine.query(query)
        assert engine.engine is kept
        engine.load(Dataset.from_graph(university_graph()))
        engine.query(query)
        assert engine.engine is not None and engine.engine is not kept

    def test_agrees_with_sparqlog_under_ontology(self):
        from repro.core.engine import SparqLogEngine
        from repro.compliance.compare import results_equal

        dataset = Dataset.from_graph(university_graph())
        ontology = university_ontology()
        stardog = StardogLikeEngine(dataset, ontology=ontology)
        sparqlog = SparqLogEngine(dataset, ontology=ontology)
        queries = [
            "SELECT ?x WHERE { ?x rdf:type ex:Person }",
            "SELECT ?x ?y WHERE { ?x ex:involvedIn ?y }",
            "SELECT DISTINCT ?x ?y WHERE { ?x ex:involvedIn/^ex:involvedIn ?y }",
        ]
        full_prefix = PREFIX + "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
        for query in queries:
            assert results_equal(stardog.query(full_prefix + query), sparqlog.query(full_prefix + query))
