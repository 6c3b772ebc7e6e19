"""Tests for ontology axioms, their Datalog± translation and materialisation."""

from repro.core.engine import SparqLogEngine
from repro.core.ontology import Ontology, OntologyAxiom
from repro.datalog.wardedness import analyze_wardedness
from repro.rdf.graph import Dataset, Graph
from repro.store import EncodedGraph
from repro.rdf.terms import BlankNode, IRI, RDF, RDFS, Triple

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"


def university_graph() -> EncodedGraph:
    graph = EncodedGraph()
    graph.add(Triple(EX.alice, RDF.type, EX.Professor))
    graph.add(Triple(EX.bob, RDF.type, EX.Student))
    graph.add(Triple(EX.alice, EX.teaches, EX.databases))
    graph.add(Triple(EX.bob, EX.attends, EX.databases))
    return graph


def university_ontology() -> Ontology:
    ontology = Ontology()
    ontology.add_subclass(EX.Professor, EX.Person)
    ontology.add_subclass(EX.Student, EX.Person)
    ontology.add_subproperty(EX.teaches, EX.involvedIn)
    ontology.add_subproperty(EX.attends, EX.involvedIn)
    ontology.add_domain(EX.teaches, EX.Teacher)
    ontology.add_range(EX.attends, EX.Course)
    return ontology


class TestOntologyTranslation:
    def test_rule_counts(self):
        program = university_ontology().to_rules()
        assert len(program.rules) == 6

    def test_rules_are_warded(self):
        ontology = university_ontology()
        ontology.add_existential(EX.Person, EX.hasParent, EX.Person)
        assert analyze_wardedness(ontology.to_rules()).warded

    def test_from_graph_extraction(self):
        graph = Graph()
        graph.add(Triple(EX.Professor, RDFS.subClassOf, EX.Person))
        graph.add(Triple(EX.teaches, RDFS.subPropertyOf, EX.involvedIn))
        graph.add(Triple(EX.teaches, RDFS.domain, EX.Teacher))
        graph.add(Triple(EX.teaches, RDFS.range, EX.Course))
        ontology = Ontology.from_graph(graph)
        kinds = sorted(axiom.kind for axiom in ontology.axioms)
        assert kinds == ["domain", "range", "subClassOf", "subPropertyOf"]


class TestReasoningThroughSparqLog:
    def _engine(self) -> SparqLogEngine:
        return SparqLogEngine(
            Dataset.from_graph(university_graph()), ontology=university_ontology()
        )

    def test_subclass_inference(self):
        result = self._engine().query(
            PREFIX + "SELECT ?x WHERE { ?x rdf:type ex:Person }"
        )
        assert {row[0] for row in result.rows()} == {EX.alice, EX.bob}

    def test_subproperty_inference(self):
        result = self._engine().query(
            PREFIX + "SELECT ?x ?y WHERE { ?x ex:involvedIn ?y }"
        )
        assert (EX.alice, EX.databases) in result.to_set()
        assert (EX.bob, EX.databases) in result.to_set()

    def test_domain_and_range_inference(self):
        engine = self._engine()
        teachers = engine.query(PREFIX + "SELECT ?x WHERE { ?x rdf:type ex:Teacher }")
        courses = engine.query(PREFIX + "SELECT ?x WHERE { ?x rdf:type ex:Course }")
        assert {row[0] for row in teachers.rows()} == {EX.alice}
        assert {row[0] for row in courses.rows()} == {EX.databases}

    def test_reasoning_combines_with_property_paths(self):
        result = self._engine().query(
            PREFIX + "SELECT DISTINCT ?x WHERE { ?x ex:involvedIn/^ex:involvedIn ?y }"
        )
        assert {row[0] for row in result.rows()} == {EX.alice, EX.bob}

    def test_existential_axiom_produces_labelled_null(self):
        ontology = university_ontology()
        ontology.add_existential(EX.Student, EX.hasAdvisor, EX.Professor)
        engine = SparqLogEngine(Dataset.from_graph(university_graph()), ontology=ontology)
        result = engine.query(PREFIX + "SELECT ?a WHERE { ex:bob ex:hasAdvisor ?a }")
        assert len(result) == 1
        (advisor,) = result.rows()[0]
        assert isinstance(advisor, BlankNode)

    def test_distinct_labelled_nulls_are_distinct_blank_nodes(self):
        graph = university_graph()
        graph.add(Triple(EX.carol, RDF.type, EX.Student))
        ontology = university_ontology()
        ontology.add_existential(EX.Student, EX.hasAdvisor, EX.Professor)
        engine = SparqLogEngine(Dataset.from_graph(graph), ontology=ontology)
        rows = engine.query(PREFIX + "SELECT ?s ?a WHERE { ?s ex:hasAdvisor ?a }").rows()
        assert sorted(student for student, _ in rows) == [EX.bob, EX.carol]
        advisors = {advisor for _, advisor in rows}
        assert len(advisors) == 2 and all(isinstance(a, BlankNode) for a in advisors)

    def test_without_ontology_no_inference(self):
        engine = SparqLogEngine(Dataset.from_graph(university_graph()))
        result = engine.query(PREFIX + "SELECT ?x WHERE { ?x rdf:type ex:Person }")
        assert len(result) == 0


class TestMaterialization:
    def test_materialize_closure(self):
        graph = university_graph()
        materialised = university_ontology().materialize(graph)
        assert Triple(EX.alice, RDF.type, EX.Person) in materialised
        assert Triple(EX.alice, EX.involvedIn, EX.databases) in materialised
        # original graph untouched
        assert Triple(EX.alice, RDF.type, EX.Person) not in graph

    def test_materialize_is_idempotent(self):
        ontology = university_ontology()
        once = ontology.materialize(university_graph())
        twice = ontology.materialize(once)
        assert len(once) == len(twice)
