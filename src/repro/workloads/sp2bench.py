"""SP2Bench-like workload: a DBLP-style synthetic dataset and 17 queries.

SP2Bench (Schmidt et al. 2009) generates DBLP-like bibliographic data —
journals, articles, inproceedings, proceedings, people — together with 17
hand-crafted queries designed to stress query optimisation.  The original
generator is a C program; this module reimplements the data model with the
same schema vocabulary and degree characteristics (power-law-ish author
productivity, journal/issue structure, citations) at laptop scale, and
ships 17 queries with the same feature mix the paper's Table 2 reports for
SP2Bench: heavy FILTER use (≈59 %), DISTINCT (≈35 %), OPTIONAL and UNION
(≈18 % each), no property paths, plus three ASK queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.rdf.graph import Dataset, Graph
from repro.store import create_graph
from repro.rdf.terms import IRI, Literal, Triple, XSD_INTEGER
from repro.rdf.namespace import Namespace

BENCH = Namespace("http://localhost/vocabulary/bench/")
DC = Namespace("http://purl.org/dc/elements/1.1/")
DCTERMS = Namespace("http://purl.org/dc/terms/")
FOAF = Namespace("http://xmlns.com/foaf/0.1/")
SWRC = Namespace("http://swrc.ontoware.org/ontology#")
RDFS_NS = Namespace("http://www.w3.org/2000/01/rdf-schema#")
RDF_NS = Namespace("http://www.w3.org/1999/02/22-rdf-syntax-ns#")
PERSON = Namespace("http://localhost/persons/")
ARTICLE = Namespace("http://localhost/articles/")
INPROC = Namespace("http://localhost/inproceedings/")
PROC = Namespace("http://localhost/proceedings/")
JOURNAL = Namespace("http://localhost/journals/")

RDF_TYPE = RDF_NS.type

_FIRST_NAMES = [
    "Adam", "Bea", "Carla", "Dmitri", "Elena", "Farid", "Grete", "Hiro",
    "Ines", "Jonas", "Karin", "Lucas", "Mara", "Noor", "Oskar", "Paula",
    "Quentin", "Rosa", "Sven", "Tara", "Ugo", "Vera", "Wim", "Xenia",
    "Yara", "Zeno",
]
_LAST_NAMES = [
    "Abiteboul", "Bernstein", "Codd", "Date", "Eswaran", "Fagin", "Gray",
    "Halevy", "Imielinski", "Jagadish", "Klug", "Lenzerini", "Maier",
    "Naughton", "Ozsu", "Papadimitriou", "Quass", "Ramakrishnan", "Stone",
    "Tanaka", "Ullman", "Vardi", "Widom", "Yannakakis", "Zaniolo",
]
_TITLE_WORDS = [
    "efficient", "scalable", "distributed", "adaptive", "incremental",
    "declarative", "recursive", "optimal", "parallel", "streaming",
    "query", "evaluation", "reasoning", "indexing", "optimization",
    "graphs", "datalog", "joins", "views", "constraints",
]


@dataclass
class BenchmarkQuery:
    """A query of a workload: identifier, SPARQL text and feature tags."""

    query_id: str
    text: str
    features: Tuple[str, ...] = ()


def _person_name(rng: random.Random) -> str:
    return f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"


def _title(rng: random.Random) -> str:
    words = rng.sample(_TITLE_WORDS, k=rng.randint(3, 6))
    return " ".join(words)


def generate_sp2bench_graph(
    n_articles: int = 400,
    n_inproceedings: int = 300,
    n_persons: int = 250,
    n_journals: int = 40,
    n_proceedings: int = 30,
    seed: int = 1,
) -> Graph:
    """Generate a DBLP-like graph.

    The default parameters produce roughly 8–10 thousand triples; the
    compliance experiments use a smaller instance, the performance
    experiments a larger one (both just scale these counts).
    """
    rng = random.Random(seed)
    graph = create_graph()

    persons = []
    for index in range(n_persons):
        person = PERSON[f"Person{index}"]
        persons.append(person)
        graph.add_triple(person, RDF_TYPE, FOAF.Person)
        graph.add_triple(person, FOAF.name, Literal(_person_name(rng)))

    journals = []
    for index in range(n_journals):
        journal = JOURNAL[f"Journal{index}"]
        journals.append(journal)
        graph.add_triple(journal, RDF_TYPE, BENCH.Journal)
        year = 1940 + (index % 70)
        graph.add_triple(
            journal, DC.title, Literal(f"Journal {1 + index % 60} ({year})")
        )
        graph.add_triple(
            journal, DCTERMS.issued, Literal(str(year), XSD_INTEGER)
        )

    proceedings = []
    for index in range(n_proceedings):
        proc = PROC[f"Proceeding{index}"]
        proceedings.append(proc)
        graph.add_triple(proc, RDF_TYPE, BENCH.Proceedings)
        graph.add_triple(proc, DC.title, Literal(f"Proceedings {index}"))
        graph.add_triple(
            proc, DCTERMS.issued, Literal(str(1990 + index % 30), XSD_INTEGER)
        )

    articles = []
    for index in range(n_articles):
        article = ARTICLE[f"Article{index}"]
        articles.append(article)
        graph.add_triple(article, RDF_TYPE, BENCH.Article)
        graph.add_triple(article, DC.title, Literal(_title(rng)))
        year = 1950 + rng.randint(0, 69)
        graph.add_triple(article, DCTERMS.issued, Literal(str(year), XSD_INTEGER))
        graph.add_triple(article, SWRC.journal, rng.choice(journals))
        graph.add_triple(article, SWRC.pages, Literal(str(rng.randint(1, 400)), XSD_INTEGER))
        # Power-law-ish authorship: a few prolific authors.
        author_count = 1 + min(rng.randint(0, 3), rng.randint(0, 3))
        for _ in range(author_count):
            weight = rng.random()
            author = persons[int(weight * weight * (len(persons) - 1))]
            graph.add_triple(article, DC.creator, author)
        if rng.random() < 0.35:
            graph.add_triple(article, BENCH.abstract, Literal(_title(rng) + " abstract"))
        if rng.random() < 0.25:
            graph.add_triple(
                article, RDFS_NS.seeAlso, IRI(f"http://dblp.example.org/ref/{index}")
            )
        if rng.random() < 0.5 and articles[:-1]:
            graph.add_triple(article, BENCH.cites, rng.choice(articles[:-1]))

    for index in range(n_inproceedings):
        paper = INPROC[f"Inproceeding{index}"]
        graph.add_triple(paper, RDF_TYPE, BENCH.Inproceedings)
        graph.add_triple(paper, DC.title, Literal(_title(rng)))
        graph.add_triple(paper, DCTERMS.partOf, rng.choice(proceedings))
        graph.add_triple(
            paper, DCTERMS.issued, Literal(str(1990 + rng.randint(0, 29)), XSD_INTEGER)
        )
        for _ in range(1 + rng.randint(0, 2)):
            graph.add_triple(paper, DC.creator, rng.choice(persons))
        if rng.random() < 0.3:
            graph.add_triple(paper, FOAF.homepage, IRI(f"http://conf.example.org/p/{index}"))

    return graph


_PREFIXES = """PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX swrc: <http://swrc.ontoware.org/ontology#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
"""


def sp2bench_queries() -> List[BenchmarkQuery]:
    """The 17 queries of the SP2Bench-like workload.

    The queries mirror the intent of the original SP2Bench q1–q12 set
    (including the a/b/c variants), restricted to the SPARQL features
    SparqLog supports.
    """
    queries: List[BenchmarkQuery] = []

    def add(query_id: str, body: str, *features: str) -> None:
        queries.append(BenchmarkQuery(query_id, _PREFIXES + body, tuple(features)))

    add(
        "q1",
        """SELECT ?yr
WHERE {
  ?journal rdf:type bench:Journal .
  ?journal dc:title "Journal 1 (1940)" .
  ?journal dcterms:issued ?yr .
}""",
        "BGP",
    )
    add(
        "q2",
        """SELECT ?inproc ?author ?booktitle ?proc
WHERE {
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?author .
  ?inproc dcterms:partOf ?proc .
  ?proc dc:title ?booktitle .
  OPTIONAL { ?inproc foaf:homepage ?hp }
}
ORDER BY ?author""",
        "OPTIONAL", "ORDER BY",
    )
    add(
        "q3a",
        """SELECT ?article
WHERE {
  ?article rdf:type bench:Article .
  ?article swrc:pages ?value .
  FILTER (?value > 300)
}""",
        "FILTER",
    )
    add(
        "q3b",
        """SELECT ?article
WHERE {
  ?article rdf:type bench:Article .
  ?article dcterms:issued ?value .
  FILTER (?value >= 2010)
}""",
        "FILTER",
    )
    add(
        "q3c",
        """SELECT ?article
WHERE {
  ?article rdf:type bench:Article .
  ?article rdfs:seeAlso ?ref .
  FILTER (isIRI(?ref))
}""",
        "FILTER",
    )
    add(
        "q4",
        """SELECT DISTINCT ?name1 ?name2
WHERE {
  ?article1 rdf:type bench:Article .
  ?article2 rdf:type bench:Article .
  ?article1 dc:creator ?author1 .
  ?author1 foaf:name ?name1 .
  ?article2 dc:creator ?author2 .
  ?author2 foaf:name ?name2 .
  ?article1 swrc:journal ?journal .
  ?article2 swrc:journal ?journal .
  FILTER (?name1 < ?name2)
}""",
        "DISTINCT", "FILTER",
    )
    add(
        "q5a",
        """SELECT DISTINCT ?person ?name
WHERE {
  ?article rdf:type bench:Article .
  ?article dc:creator ?person .
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?person2 .
  ?person foaf:name ?name .
  ?person2 foaf:name ?name2 .
  FILTER (?name = ?name2)
}""",
        "DISTINCT", "FILTER",
    )
    add(
        "q5b",
        """SELECT DISTINCT ?person ?name
WHERE {
  ?article rdf:type bench:Article .
  ?article dc:creator ?person .
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?person .
  ?person foaf:name ?name .
}""",
        "DISTINCT",
    )
    add(
        "q6",
        """SELECT ?yr ?name ?document
WHERE {
  ?document rdf:type bench:Article .
  ?document dcterms:issued ?yr .
  ?document dc:creator ?author .
  ?author foaf:name ?name .
  OPTIONAL {
    ?document bench:abstract ?abstract
  }
}""",
        "OPTIONAL",
    )
    add(
        "q7",
        """SELECT DISTINCT ?title
WHERE {
  ?doc rdf:type bench:Article .
  ?doc dc:title ?title .
  ?doc bench:cites ?cited .
  ?cited bench:cites ?cited2 .
}""",
        "DISTINCT",
    )
    add(
        "q8",
        """SELECT DISTINCT ?name
WHERE {
  {
    ?article rdf:type bench:Article .
    ?article dc:creator ?author .
    ?author foaf:name ?name .
  } UNION {
    ?inproc rdf:type bench:Inproceedings .
    ?inproc dc:creator ?author .
    ?author foaf:name ?name .
  }
}""",
        "DISTINCT", "UNION",
    )
    add(
        "q9",
        """SELECT DISTINCT ?predicate
WHERE {
  {
    ?person rdf:type foaf:Person .
    ?subject ?predicate ?person .
  } UNION {
    ?person rdf:type foaf:Person .
    ?person ?predicate ?object .
  }
}""",
        "DISTINCT", "UNION",
    )
    add(
        "q10",
        """SELECT ?subject ?predicate
WHERE {
  ?subject ?predicate <http://localhost/persons/Person1>
}""",
        "BGP",
    )
    add(
        "q11",
        """SELECT ?ee
WHERE {
  ?publication rdfs:seeAlso ?ee
}
ORDER BY ?ee
LIMIT 10
OFFSET 5""",
        "ORDER BY", "LIMIT", "OFFSET",
    )
    add(
        "q12a",
        """ASK WHERE {
  ?article rdf:type bench:Article .
  ?article dc:creator ?person .
  ?inproc rdf:type bench:Inproceedings .
  ?inproc dc:creator ?person .
}""",
        "ASK",
    )
    add(
        "q12b",
        """ASK WHERE {
  ?person rdf:type foaf:Person .
  ?person foaf:name "Erwin Schroedinger" .
}""",
        "ASK",
    )
    add(
        "q12c",
        """ASK WHERE {
  <http://localhost/persons/Person0> rdf:type foaf:Person .
}""",
        "ASK",
    )
    return queries


class SP2BenchWorkload:
    """Dataset plus queries, packaged for the experiment harness."""

    name = "SP2Bench"

    def __init__(self, scale: float = 1.0, seed: int = 1) -> None:
        self.scale = scale
        self.seed = seed
        self._graph: Graph = generate_sp2bench_graph(
            n_articles=max(20, int(400 * scale)),
            n_inproceedings=max(15, int(300 * scale)),
            n_persons=max(10, int(250 * scale)),
            n_journals=max(5, int(40 * scale)),
            n_proceedings=max(5, int(30 * scale)),
            seed=seed,
        )

    @property
    def graph(self) -> Graph:
        return self._graph

    def dataset(self) -> Dataset:
        """Return a fresh dataset wrapping a copy of the generated graph."""
        return Dataset.from_graph(self._graph.copy())

    def queries(self) -> List[BenchmarkQuery]:
        return sp2bench_queries()

    def statistics(self) -> Dict[str, int]:
        """Triple / predicate / query counts (Table 6)."""
        return {
            "triples": len(self._graph),
            "predicates": len(self._graph.predicates()),
            "queries": len(self.queries()),
        }
