"""Ontological reasoning: query answering under an OWL 2 QL-style ontology.

SparqLog inherits ontological reasoning from its Warded Datalog± substrate
(requirement RQ3 of the paper): ontology axioms become extra rules that are
evaluated together with the translated query.  The example builds a small
research-group knowledge graph, adds a class/property hierarchy plus an
existential axiom, and compares SparqLog with the materialise-then-query
Stardog-like baseline.

Run with:  python examples/ontology_reasoning.py
"""

from repro import (
    Dataset,
    Ontology,
    Namespace,
    SparqLogEngine,
    StardogLikeEngine,
    open_graph,
    parse_turtle,
)

EX = Namespace("http://ex.org/")

TURTLE_DATA = """
@prefix ex: <http://ex.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .

ex:alice rdf:type ex:Professor ; ex:teaches ex:databases ; ex:advises ex:bob .
ex:bob   rdf:type ex:PhDStudent ; ex:attends ex:databases ; ex:authored ex:paper1 .
ex:carol rdf:type ex:Postdoc ; ex:teaches ex:logic ; ex:authored ex:paper1 .
ex:paper1 rdf:type ex:Publication ; ex:cites ex:paper2 .
ex:paper2 rdf:type ex:Publication ; ex:cites ex:paper3 .
ex:paper3 rdf:type ex:Publication .
"""

PREFIXES = (
    "PREFIX ex: <http://ex.org/>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)


def build_ontology() -> Ontology:
    ontology = Ontology()
    # Class hierarchy.
    ontology.add_subclass(EX.Professor, EX.Researcher)
    ontology.add_subclass(EX.Postdoc, EX.Researcher)
    ontology.add_subclass(EX.PhDStudent, EX.Researcher)
    ontology.add_subclass(EX.Researcher, EX.Person)
    # Property hierarchy.
    ontology.add_subproperty(EX.teaches, EX.involvedIn)
    ontology.add_subproperty(EX.attends, EX.involvedIn)
    ontology.add_subproperty(EX.cites, EX.references)
    # Domain / range.
    ontology.add_domain(EX.advises, EX.Supervisor)
    ontology.add_range(EX.authored, EX.Publication)
    # Existential axiom: every publication has some (possibly unknown) author.
    ontology.add_existential(EX.Publication, EX.hasAuthor, EX.Person)
    return ontology


QUERIES = {
    "all persons (via subclass chain)":
        "SELECT ?x WHERE { ?x rdf:type ex:Person }",
    "everyone involved in a course (via subproperty)":
        "SELECT DISTINCT ?x ?c WHERE { ?x ex:involvedIn ?c }",
    "supervisors (via domain axiom)":
        "SELECT ?x WHERE { ?x rdf:type ex:Supervisor }",
    "citation closure (recursive path over inferred property)":
        "SELECT DISTINCT ?p WHERE { ex:paper1 ex:references+ ?p }",
    "publications with an (invented) author":
        "SELECT ?pub ?author WHERE { ?pub ex:hasAuthor ?author }",
}


def short(term) -> str:
    if term is None:
        return "-"
    value = getattr(term, "value", None) or getattr(term, "label", None) or str(term)
    return str(value).rsplit("/", 1)[-1]


def main() -> None:
    dataset = Dataset.from_graph(parse_turtle(TURTLE_DATA, graph=open_graph()))
    ontology = build_ontology()
    sparqlog = SparqLogEngine(dataset, ontology=ontology)
    stardog = StardogLikeEngine(dataset, ontology=ontology)

    for title, body in QUERIES.items():
        query = PREFIXES + body
        print(f"=== {title} ===")
        result = sparqlog.query(query)
        for row in sorted(result.rows(), key=str):
            print("  " + "  ".join(short(term) for term in row))
        try:
            stardog_result = stardog.query(query)
            note = (
                "matches SparqLog"
                if len(stardog_result) == len(result)
                else f"{len(stardog_result)} rows (materialisation cannot invent authors)"
            )
        except Exception as error:  # noqa: BLE001 - example output only
            note = f"error: {error}"
        print(f"  [Stardog-like baseline: {note}]")
        print()


if __name__ == "__main__":
    main()
