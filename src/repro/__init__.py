"""repro — a reproduction of SparqLog (VLDB 2023).

SparqLog evaluates SPARQL 1.1 queries by translating them, together with
the RDF dataset, into Warded Datalog± programs.  This package contains the
full stack needed to reproduce the paper on a laptop:

* :mod:`repro.rdf` — RDF data model and serialisation,
* :mod:`repro.sparql` — SPARQL 1.1 parser, algebra and reference evaluator,
* :mod:`repro.datalog` — Warded Datalog± engine (the Vadalog substrate),
* :mod:`repro.core` — the SparqLog translation and engine,
* :mod:`repro.engine` — the native engine, :func:`create_engine`, which
  also plays the Fuseki role of the paper's experiments,
* :mod:`repro.baselines` — the Virtuoso- and Stardog-like behaviour
  profiles the experiments compare against,
* :mod:`repro.workloads` — benchmark generators (SP2Bench-, gMark-,
  BeSEPPI-, FEASIBLE-like and the ontology benchmark),
* :mod:`repro.compliance` — result comparison and the compliance metrics,
* :mod:`repro.harness` — experiment drivers for every table and figure.

Quickstart::

    from repro import SparqLogEngine, parse_turtle, Dataset

    graph = parse_turtle(open("data.ttl").read())
    engine = SparqLogEngine(Dataset.from_graph(graph))
    for row in engine.query("SELECT ?s WHERE { ?s a <http://example.org/City> }"):
        print(row)
"""

from repro.rdf import (
    BlankNode,
    Dataset,
    Graph,
    IRI,
    Literal,
    Namespace,
    Triple,
    Variable,
    parse_ntriples,
    parse_turtle,
)
from repro.store import (
    EncodedGraph,
    TermDictionary,
    bulk_load_ntriples,
    bulk_load_path,
    bulk_load_turtle,
    create_graph,
    load_snapshot,
    open_graph,
    save_snapshot,
)
from repro.sparql import ExecutionProfile, SparqlEvaluator, parse_query
from repro.engine import Engine, create_engine
from repro.ivm import MaterializedView, ViewRegistry
from repro.core import Ontology, SparqLogEngine
from repro.baselines import StardogLikeEngine, VirtuosoLikeEngine

__version__ = "1.0.0"

__all__ = [
    "BlankNode",
    "Dataset",
    "EncodedGraph",
    "Engine",
    "ExecutionProfile",
    "Graph",
    "IRI",
    "Literal",
    "MaterializedView",
    "Namespace",
    "Ontology",
    "SparqLogEngine",
    "SparqlEvaluator",
    "StardogLikeEngine",
    "TermDictionary",
    "Triple",
    "Variable",
    "ViewRegistry",
    "VirtuosoLikeEngine",
    "bulk_load_ntriples",
    "bulk_load_path",
    "bulk_load_turtle",
    "create_engine",
    "create_graph",
    "load_snapshot",
    "open_graph",
    "parse_ntriples",
    "parse_query",
    "parse_turtle",
    "save_snapshot",
    "__version__",
]
