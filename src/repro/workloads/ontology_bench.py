"""Ontology benchmark: property paths combined with ontological reasoning.

Section 6.3 / Appendix D.8 of the paper (Figure 10) evaluates query
answering in the presence of an ontology: the SP2Bench dataset is extended
with ``rdfs:subClassOf`` and ``rdfs:subPropertyOf`` statements and queried
with property-path queries — including recursive property paths with two
variables (queries 4 and 5), the cases on which SparqLog clearly beats the
materialise-then-query baseline.

This module builds that benchmark: the SP2Bench-like graph, a citation /
reference hierarchy ontology, and eight queries numbered as in Figure 10.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.ontology import Ontology
from repro.rdf.graph import Dataset, Graph
from repro.rdf.namespace import Namespace
from repro.workloads.sp2bench import (
    BENCH,
    BenchmarkQuery,
    DC,
    FOAF,
    SWRC,
    generate_sp2bench_graph,
)

_PREFIXES = """PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX bench: <http://localhost/vocabulary/bench/>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX swrc: <http://swrc.ontoware.org/ontology#>
"""


def build_ontology() -> Ontology:
    """The class / property hierarchy used by the benchmark.

    * every ``bench:Article`` and ``bench:Inproceedings`` is a
      ``bench:Publication``, every ``bench:Publication`` a ``bench:Document``;
    * ``bench:cites`` and ``dcterms:partOf`` are sub-properties of
      ``bench:references``;
    * ``dc:creator`` is a sub-property of ``bench:contributor``;
    * ``bench:references`` has domain/range ``bench:Document``.
    """
    ontology = Ontology()
    ontology.add_subclass(BENCH.Article, BENCH.Publication)
    ontology.add_subclass(BENCH.Inproceedings, BENCH.Publication)
    ontology.add_subclass(BENCH.Publication, BENCH.Document)
    ontology.add_subclass(BENCH.Journal, BENCH.Document)
    ontology.add_subproperty(BENCH.cites, BENCH.references)
    ontology.add_subproperty(
        Namespace("http://purl.org/dc/terms/").partOf, BENCH.references
    )
    ontology.add_subproperty(DC.creator, BENCH.contributor)
    ontology.add_domain(BENCH.references, BENCH.Document)
    ontology.add_range(BENCH.references, BENCH.Document)
    return ontology


def ontology_queries() -> List[BenchmarkQuery]:
    """The eight queries of the Figure 10 experiment."""
    queries: List[BenchmarkQuery] = []

    def add(query_id: str, body: str, *features: str) -> None:
        queries.append(BenchmarkQuery(query_id, _PREFIXES + body, tuple(features)))

    # 1: simple inferred class membership.
    add(
        "onto-1",
        """SELECT ?doc WHERE { ?doc rdf:type bench:Publication }""",
        "Reasoning",
    )
    # 2: inferred property (subPropertyOf) plus a join.
    add(
        "onto-2",
        """SELECT ?doc ?person
WHERE {
  ?doc bench:contributor ?person .
  ?doc rdf:type bench:Publication .
}""",
        "Reasoning",
    )
    # 3: bounded property path over the inferred references property.
    add(
        "onto-3",
        """SELECT ?a ?b
WHERE {
  ?a bench:references/bench:references ?b .
}""",
        "Reasoning", "PropertyPath",
    )
    # 4: recursive property path with two variables over inferred edges.
    add(
        "onto-4",
        """SELECT DISTINCT ?a ?b
WHERE {
  ?a bench:references+ ?b .
}""",
        "Reasoning", "PropertyPath", "RecursivePath", "TwoVariables",
    )
    # 5: the hardest case — zero-or-more with two variables and a join.
    add(
        "onto-5",
        """SELECT DISTINCT ?a ?b
WHERE {
  ?a bench:references* ?b .
  ?b rdf:type bench:Document .
}""",
        "Reasoning", "PropertyPath", "RecursivePath", "TwoVariables",
    )
    # 6: recursive path from a bound start node.
    add(
        "onto-6",
        """SELECT ?doc
WHERE {
  <http://localhost/articles/Article1> bench:references+ ?doc .
}""",
        "Reasoning", "PropertyPath", "RecursivePath",
    )
    # 7: inferred types combined with OPTIONAL.
    add(
        "onto-7",
        """SELECT ?doc ?title
WHERE {
  ?doc rdf:type bench:Document .
  OPTIONAL { ?doc dc:title ?title }
}""",
        "Reasoning", "OPTIONAL",
    )
    # 8: aggregation over inferred contributors.
    add(
        "onto-8",
        """SELECT ?person (COUNT(?doc) AS ?works)
WHERE {
  ?doc bench:contributor ?person .
}
GROUP BY ?person""",
        "Reasoning", "GROUP BY",
    )
    return queries


class OntologyBenchmark:
    """Dataset, ontology and queries of the Figure 10 experiment."""

    name = "SP2Bench+Ontology"

    def __init__(self, scale: float = 0.5, seed: int = 1) -> None:
        self._graph: Graph = generate_sp2bench_graph(
            n_articles=max(20, int(400 * scale)),
            n_inproceedings=max(15, int(300 * scale)),
            n_persons=max(10, int(250 * scale)),
            n_journals=max(5, int(40 * scale)),
            n_proceedings=max(5, int(30 * scale)),
            seed=seed,
        )
        self.ontology = build_ontology()

    @property
    def graph(self) -> Graph:
        return self._graph

    def dataset(self) -> Dataset:
        return Dataset.from_graph(self._graph.copy())

    def queries(self) -> List[BenchmarkQuery]:
        return ontology_queries()

    def statistics(self) -> Dict[str, int]:
        return {
            "triples": len(self._graph),
            "predicates": len(self._graph.predicates()),
            "queries": len(self.queries()),
            "axioms": len(self.ontology),
        }
