"""FEASIBLE(S)-like workload: 77 diverse real-world-style queries.

FEASIBLE (Saleem et al. 2015) samples benchmark queries from real query
logs; the paper uses the variant generated from the Semantic Web Dog Food
(SWDF) log, reduced to 77 unique queries after stripping LIMIT / OFFSET
duplicates.  The suite's value is its *feature diversity*: heavy DISTINCT
(≈56 %), FILTER (≈27 %), OPTIONAL (≈32 %), UNION (≈34 %), GRAPH (10 %),
GROUP BY (25 %), plus ORDER BY with complex arguments, string functions
(UCASE, CONTAINS) and DATATYPE — the features the paper added to SparqLog
specifically to cover this benchmark.

This module generates an SWDF-flavoured dataset (conferences, papers,
people, talks, organisations, spread over a default and a named graph) and
77 queries instantiated from templates with that same feature mix.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.rdf.graph import Dataset, Graph
from repro.store import create_graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI, Literal, XSD_INTEGER
from repro.workloads.sp2bench import BenchmarkQuery

SWDF = Namespace("http://data.semanticweb.org/")
SWC = Namespace("http://data.semanticweb.org/ns/swc/ontology#")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
DC = Namespace("http://purl.org/dc/elements/1.1/")
DCTERMS = Namespace("http://purl.org/dc/terms/")
RDF_NS = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
ICAL = Namespace("http://www.w3.org/2002/12/cal/ical#")

NAMED_GRAPH_IRI = IRI("http://data.semanticweb.org/graph/metadata")

_CONFERENCE_NAMES = ["ISWC", "ESWC", "WWW", "VLDB", "SIGMOD", "EDBT", "ICDE"]
_TOPICS = [
    "ontologies", "reasoning", "query processing", "knowledge graphs",
    "linked data", "provenance", "stream processing", "federation",
]


def generate_swdf_graph(
    n_people: int = 150,
    n_papers: int = 220,
    n_conferences: int = 14,
    n_organisations: int = 30,
    seed: int = 3,
) -> Dataset:
    """Generate the SWDF-like dataset (default graph + one named graph)."""
    rng = random.Random(seed)
    default = create_graph()
    metadata = create_graph()

    organisations = []
    for index in range(n_organisations):
        organisation = SWDF[f"organization/org{index}"]
        organisations.append(organisation)
        default.add_triple(organisation, RDF_NS.type, FOAF.Organization)
        default.add_triple(organisation, FOAF.name, Literal(f"Organisation {index}"))

    people = []
    for index in range(n_people):
        person = SWDF[f"person/person{index}"]
        people.append(person)
        default.add_triple(person, RDF_NS.type, FOAF.Person)
        default.add_triple(person, FOAF.name, Literal(f"Researcher {index}"))
        if rng.random() < 0.6:
            default.add_triple(person, FOAF.member, rng.choice(organisations))
        if rng.random() < 0.4:
            default.add_triple(
                person, FOAF.homepage, IRI(f"http://people.example.org/{index}")
            )
        metadata.add_triple(person, DCTERMS.modified, Literal(str(2005 + index % 15)))

    conferences = []
    for index in range(n_conferences):
        conference = SWDF[f"conference/conf{index}"]
        conferences.append(conference)
        name = _CONFERENCE_NAMES[index % len(_CONFERENCE_NAMES)]
        year = 2005 + index
        default.add_triple(conference, RDF_NS.type, SWC.ConferenceEvent)
        default.add_triple(conference, DC.title, Literal(f"{name} {year}"))
        default.add_triple(conference, ICAL.dtstart, Literal(str(year), XSD_INTEGER))

    for index in range(n_papers):
        paper = SWDF[f"paper/paper{index}"]
        default.add_triple(paper, RDF_NS.type, SWC.Paper)
        topic = rng.choice(_TOPICS)
        default.add_triple(paper, DC.title, Literal(f"A study of {topic} ({index})"))
        default.add_triple(paper, SWC.isPartOf, rng.choice(conferences))
        default.add_triple(paper, DCTERMS.issued, Literal(str(2005 + index % 15), XSD_INTEGER))
        for _ in range(1 + rng.randint(0, 2)):
            author = rng.choice(people)
            default.add_triple(paper, DC.creator, author)
            default.add_triple(author, FOAF.made, paper)
        if rng.random() < 0.3:
            default.add_triple(paper, SWC.hasTopic, Literal(topic))
        metadata.add_triple(paper, DCTERMS.source, Literal("swdf-dump"))

    return Dataset(default_graph=default, named_graphs={NAMED_GRAPH_IRI: metadata})


_PREFIXES = """PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX swc: <http://data.semanticweb.org/ns/swc/ontology#>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX ical: <http://www.w3.org/2002/12/cal/ical#>
"""


def feasible_queries(seed: int = 5) -> List[BenchmarkQuery]:
    """Generate the 77-query FEASIBLE(S)-like suite."""
    rng = random.Random(seed)
    queries: List[BenchmarkQuery] = []

    def add(body: str, *features: str) -> None:
        index = len(queries) + 1
        queries.append(
            BenchmarkQuery(f"feasible-{index}", _PREFIXES + body, tuple(features))
        )

    # 1–10: DISTINCT + FILTER over papers of specific years.
    for year in range(2005, 2015):
        add(
            f"""SELECT DISTINCT ?paper ?title
WHERE {{
  ?paper rdf:type swc:Paper .
  ?paper dc:title ?title .
  ?paper dcterms:issued ?year .
  FILTER (?year = {year})
}}""",
            "DISTINCT", "FILTER",
        )

    # 11–18: OPTIONAL author homepages.
    for index in range(8):
        add(
            f"""SELECT ?person ?name ?hp
WHERE {{
  ?person rdf:type foaf:Person .
  ?person foaf:name ?name .
  OPTIONAL {{ ?person foaf:homepage ?hp }}
  FILTER (CONTAINS(?name, "{index}"))
}}""",
            "OPTIONAL", "FILTER",
        )

    # 19–28: UNION of papers and people with a given keyword / regex.
    for topic in _TOPICS[:5]:
        add(
            f"""SELECT DISTINCT ?entity ?label
WHERE {{
  {{ ?entity rdf:type swc:Paper . ?entity dc:title ?label }}
  UNION
  {{ ?entity rdf:type foaf:Person . ?entity foaf:name ?label }}
  FILTER (REGEX(?label, "{topic.split()[0]}", "i"))
}}""",
            "DISTINCT", "UNION", "FILTER", "REGEX",
        )
        add(
            f"""SELECT ?entity
WHERE {{
  {{ ?entity swc:hasTopic "{topic}" }}
  UNION
  {{ ?entity dc:title ?t . FILTER (STRSTARTS(?t, "A study")) }}
}}""",
            "UNION", "FILTER",
        )

    # 29–36: GRAPH queries over the metadata named graph.
    for index in range(8):
        add(
            f"""SELECT ?s ?o
WHERE {{
  GRAPH <http://data.semanticweb.org/graph/metadata> {{
    ?s dcterms:modified ?o .
    FILTER (?o = "{2005 + index}")
  }}
}}""",
            "GRAPH", "FILTER",
        )

    # 37–46: ORDER BY with complex arguments, string functions, DATATYPE.
    for index in range(5):
        add(
            f"""SELECT ?paper ?title
WHERE {{
  ?paper rdf:type swc:Paper .
  ?paper dc:title ?title .
  OPTIONAL {{ ?paper swc:hasTopic ?topic }}
}}
ORDER BY DESC(BOUND(?topic)) ?title
LIMIT {10 + index}""",
            "OPTIONAL", "ORDER BY", "LIMIT",
        )
        add(
            f"""SELECT DISTINCT ?up
WHERE {{
  ?person foaf:name ?name .
  FILTER (STRLEN(?name) > {10 + index})
  FILTER (UCASE(?name) != ?name)
}}
ORDER BY ?up""",
            "DISTINCT", "FILTER", "ORDER BY",
        )

    # 47–56: GROUP BY / aggregates.
    for index in range(10):
        if index % 2 == 0:
            add(
                """SELECT ?conf (COUNT(?paper) AS ?papers)
WHERE {
  ?paper rdf:type swc:Paper .
  ?paper swc:isPartOf ?conf .
}
GROUP BY ?conf""",
                "GROUP BY",
            )
        else:
            add(
                f"""SELECT ?author (COUNT(?paper) AS ?works)
WHERE {{
  ?paper dc:creator ?author .
  ?paper dcterms:issued ?year .
  FILTER (?year >= {2005 + index})
}}
GROUP BY ?author""",
                "GROUP BY", "FILTER",
            )

    # 57–64: MINUS and negated patterns.
    for index in range(8):
        add(
            f"""SELECT DISTINCT ?person
WHERE {{
  ?person rdf:type foaf:Person .
  MINUS {{ ?person foaf:member ?org . FILTER(ISIRI(?org)) }}
  ?person foaf:name ?name .
  FILTER (CONTAINS(?name, "{index}"))
}}""",
            "DISTINCT", "MINUS", "FILTER",
        )

    # 65–72: ASK queries and DATATYPE checks.
    for index in range(4):
        add(
            f"""ASK WHERE {{
  ?paper dcterms:issued ?year .
  FILTER (?year = {2006 + index})
}}""",
            "ASK", "FILTER",
        )
        add(
            f"""SELECT ?paper
WHERE {{
  ?paper dcterms:issued ?year .
  FILTER (DATATYPE(?year) = <http://www.w3.org/2001/XMLSchema#integer>)
  FILTER (?year > {2008 + index})
}}""",
            "FILTER",
        )

    # 73–77: plain BGP star/chain queries of increasing size.
    for size in range(2, 7):
        lines = ["?paper rdf:type swc:Paper .", "?paper dc:title ?title ."]
        if size >= 3:
            lines.append("?paper dc:creator ?author .")
        if size >= 4:
            lines.append("?author foaf:name ?name .")
        if size >= 5:
            lines.append("?paper swc:isPartOf ?conf .")
        if size >= 6:
            lines.append("?conf dc:title ?confTitle .")
        body = "SELECT * WHERE {\n  " + "\n  ".join(lines) + "\n}"
        add(body, "BGP")

    assert len(queries) == 77, f"expected 77 queries, generated {len(queries)}"
    return queries


class FeasibleWorkload:
    """SWDF-like dataset plus the 77-query FEASIBLE(S) suite."""

    name = "FEASIBLE (S)"

    def __init__(self, scale: float = 1.0, seed: int = 3) -> None:
        self.seed = seed
        self._dataset = generate_swdf_graph(
            n_people=max(20, int(150 * scale)),
            n_papers=max(25, int(220 * scale)),
            n_conferences=max(4, int(14 * scale)),
            n_organisations=max(5, int(30 * scale)),
            seed=seed,
        )
        self._queries = feasible_queries(seed=seed + 2)

    def dataset(self) -> Dataset:
        return self._dataset.copy()

    def queries(self) -> List[BenchmarkQuery]:
        return list(self._queries)

    def statistics(self) -> Dict[str, int]:
        graph = self._dataset.default_graph
        return {
            "triples": len(self._dataset),
            "predicates": len(graph.predicates()),
            "queries": len(self._queries),
        }
