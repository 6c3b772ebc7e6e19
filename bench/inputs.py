"""Workload sizes, frozen, and the inputs generated from ``--seed``.

The *structure* of every dataset (degree distribution, result sizes) and
the *shapes* of the generated queries are frozen by ``GENERATOR_SEEDS``.
The driver takes the spread of every metric over runs with *different*
seeds and wants it within the metric's bound; with the generator seeds
following ``--seed`` that spread was 17 % on ``op_p90_ms`` and 23 % on
``ops_per_s`` of ``sp2bench_native`` (4-7 % frozen), and the work of 50
generated gMark queries differs 30x between generator seeds (README.md,
"What --seed draws").  What ``--seed`` draws is everything the program
can be sensitive to without the amount of work changing: the order in
which triples reach the loaders (hence term ids, index layout and hash-set
iteration order), the order of the queries in every pass, and the change
batches of ``ivm_churn``.  Answers are therefore the same bag for every
seed, which lets one committed digest file per workload check every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.rdf.graph import Dataset
from repro.rdf.terms import IRI, Triple
from repro.workloads.feasible import feasible_queries, generate_swdf_graph
from repro.workloads.gmark import (
    generate_gmark_graph,
    generate_gmark_queries,
    social_scenario,
)
from repro.workloads.sp2bench import SP2BenchWorkload, sp2bench_queries

#: Seeds handed to the repo's generators; part of the workload definition.
GENERATOR_SEEDS = {
    "sp2bench": 1,
    "gmark_graph": 7,
    "gmark_queries": 38,
    "feasible_graph": 3,
    "feasible_queries": 5,
}

#: Frozen sizes (calibrated on the 2-core reference box, see README.md).
SIZES: Dict[str, Dict[str, float]] = {
    "sp2bench_sparqlog": {"scale": 0.06},
    "gmark_sparqlog": {"scale": 0.06, "queries": 30},
    "sp2bench_native": {"scale": 0.4},
    "gmark_native": {"scale": 0.5, "queries": 50},
    "feasible_native": {"scale": 1.0},
    "bulk_load": {"scale": 14.0},
    "ivm_churn": {"scale": 2.0, "batch": 24, "period": 20},
}

#: Sizes of the smoke test: every code path, a few hundred triples.
TINY_SIZES: Dict[str, Dict[str, float]] = {
    "sp2bench_sparqlog": {"scale": 0.02, "queries": 5},
    "gmark_sparqlog": {"scale": 0.02, "queries": 6},
    "sp2bench_native": {"scale": 0.05},
    "gmark_native": {"scale": 0.05, "queries": 10},
    "feasible_native": {"scale": 0.2},
    "bulk_load": {"scale": 0.1},
    "ivm_churn": {"scale": 0.1, "batch": 4, "period": 3},
}


@dataclass
class GraphInput:
    """One graph's triples in the order the seed drew, parsed and as text."""

    triples: List[Triple]
    lines: List[str]

    @cached_property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class Inputs:
    """What a workload's program receives: graphs, queries, query order."""

    graphs: Dict[Optional[IRI], GraphInput]
    queries: List[Tuple[str, str]] = field(default_factory=list)
    rng: random.Random = field(default_factory=random.Random)

    @property
    def default(self) -> GraphInput:
        return self.graphs[None]

    @property
    def triple_count(self) -> int:
        return sum(len(graph.lines) for graph in self.graphs.values())

    def query_order(self) -> List[Tuple[str, str]]:
        """The queries in the next pass's order (drawn from the seed)."""
        order = list(self.queries)
        self.rng.shuffle(order)
        return order


def triple_line(triple: Triple) -> str:
    return f"{triple.subject.n3()} {triple.predicate.n3()} {triple.object.n3()} ."


def _graph_input(graph, rng: random.Random) -> GraphInput:
    # Sort first: iteration order of the generator's hash graph depends on
    # the interpreter's hash seed, the drawn order must depend on --seed only.
    pairs = sorted((triple_line(triple), triple) for triple in graph)
    rng.shuffle(pairs)
    return GraphInput([triple for _, triple in pairs], [line for line, _ in pairs])


def _sp2bench_graph(scale: float):
    return SP2BenchWorkload(scale=scale, seed=GENERATOR_SEEDS["sp2bench"]).graph


def _dataset_inputs(dataset: Dataset, queries, rng: random.Random) -> Inputs:
    graphs = {None: _graph_input(dataset.default_graph, rng)}
    for name in sorted(dataset.named_graphs, key=lambda iri: iri.value):
        graphs[name] = _graph_input(dataset.named_graphs[name], rng)
    return Inputs(graphs, [(query.query_id, query.text) for query in queries], rng)


def sp2bench_inputs(size: Dict[str, float], seed: int) -> Inputs:
    graph = _sp2bench_graph(size["scale"])
    queries = sp2bench_queries()[: int(size.get("queries", 17))]
    return _dataset_inputs(Dataset.from_graph(graph), queries, random.Random(seed))


def gmark_inputs(size: Dict[str, float], seed: int) -> Inputs:
    scenario = social_scenario().scaled(size["scale"])
    graph = generate_gmark_graph(scenario, seed=GENERATOR_SEEDS["gmark_graph"])
    queries = generate_gmark_queries(
        scenario, graph, seed=GENERATOR_SEEDS["gmark_queries"], count=int(size["queries"])
    )
    return _dataset_inputs(Dataset.from_graph(graph), queries, random.Random(seed))


def feasible_inputs(size: Dict[str, float], seed: int) -> Inputs:
    scale = size["scale"]
    dataset = generate_swdf_graph(
        n_people=max(20, int(150 * scale)),
        n_papers=max(25, int(220 * scale)),
        n_conferences=max(4, int(14 * scale)),
        n_organisations=max(5, int(30 * scale)),
        seed=GENERATOR_SEEDS["feasible_graph"],
    )
    queries = feasible_queries(seed=GENERATOR_SEEDS["feasible_queries"])
    return _dataset_inputs(dataset, queries, random.Random(seed))


# ----------------------------------------------------------------------
# ivm_churn: views, ad-hoc queries and the churn stream
# ----------------------------------------------------------------------
_SP2_PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX bench: <http://localhost/vocabulary/bench/>\n"
    "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
    "PREFIX dcterms: <http://purl.org/dc/terms/>\n"
    "PREFIX swrc: <http://swrc.ontoware.org/ontology#>\n"
)

#: name -> (query, expected maintenance route).
IVM_VIEWS: Dict[str, Tuple[str, str]] = {
    "two_hop": (
        _SP2_PREFIXES
        + "SELECT ?a ?c WHERE { ?a bench:cites ?b . ?b bench:cites ?c . FILTER(?a != ?c) }",
        "delta",
    ),
    "star": (
        _SP2_PREFIXES
        + "SELECT ?a ?p ?j WHERE { ?a rdf:type bench:Article . ?a dc:creator ?p . "
        "?a swrc:journal ?j }",
        "delta",
    ),
    "distinct": (
        _SP2_PREFIXES
        + "SELECT DISTINCT ?p ?j WHERE { ?a dc:creator ?p . ?a swrc:journal ?j }",
        "delta",
    ),
    "path": (
        _SP2_PREFIXES
        + "SELECT ?b WHERE { <http://localhost/articles/Article7> bench:cites+ ?b }",
        "reeval",
    ),
}

#: Ad-hoc reads, one per tick in rotation; none is a view, so each one
#: re-plans against the store version the batch just bumped.
IVM_ADHOC: List[str] = [
    _SP2_PREFIXES
    + "SELECT ?a ?y WHERE { ?a swrc:journal <http://localhost/journals/Journal3> . "
    "?a dcterms:issued ?y }",
    _SP2_PREFIXES
    + "SELECT DISTINCT ?q WHERE { ?a dc:creator <http://localhost/persons/Person2> . "
    "?a dc:creator ?q }",
    _SP2_PREFIXES
    + "SELECT ?a ?t WHERE { ?a bench:cites ?b . ?b dc:title ?t . "
    "?a swrc:journal <http://localhost/journals/Journal5> }",
]

_CHURN_PREDICATES = (
    "http://localhost/vocabulary/bench/cites",
    "http://purl.org/dc/elements/1.1/creator",
    "http://swrc.ontoware.org/ontology#journal",
)


@dataclass
class ChurnInputs:
    """Base graph plus one cycle of change batches drawn from the seed.

    Every batch toggles its edges (present -> removed, absent -> added), so
    running the ``period`` batches twice restores the base graph: tick
    ``k`` of every cycle meets the same store and view state and does the
    same work, which is what makes its best-of-cycles latency meaningful.
    Half of the pool is absent at the start (rewired edges), so adds and
    removes are mixed from the first tick on.
    """

    base: GraphInput
    #: Edges the batches are drawn from: the churned predicates' edges
    #: plus as many rewired ones.
    pool_size: int
    #: ``(adds, removes)`` for every tick of one cycle (two toggle rounds).
    cycle: List[Tuple[List[Triple], List[Triple]]]


def churn_inputs(size: Dict[str, float], seed: int) -> ChurnInputs:
    rng = random.Random(seed)
    base = _graph_input(_sp2bench_graph(size["scale"]), rng)
    edges = sorted(
        (triple for triple in base.triples if triple.predicate.value in _CHURN_PREDICATES),
        key=triple_line,
    )
    by_predicate: Dict[str, List[Triple]] = {}
    for triple in edges:
        by_predicate.setdefault(triple.predicate.value, []).append(triple)
    existing = set(edges)
    rewired: List[Triple] = []
    for triple in edges:
        # Same subject and predicate, an object another edge of the
        # predicate points to: the typed shape of the data is preserved.
        for _ in range(8):
            other = rng.choice(by_predicate[triple.predicate.value]).object
            candidate = Triple(triple.subject, triple.predicate, other)
            if candidate not in existing:
                existing.add(candidate)
                rewired.append(candidate)
                break
    pool = edges + rewired
    batches = [rng.sample(pool, int(size["batch"])) for _ in range(int(size["period"]))]
    present = set(edges)
    cycle = []
    for batch in batches + batches:
        adds = [triple for triple in batch if triple not in present]
        removes = [triple for triple in batch if triple in present]
        present.difference_update(removes)
        present.update(adds)
        cycle.append((adds, removes))
    return ChurnInputs(base, len(pool), cycle)


def make_inputs(name: str, tiny: bool, seed: int):
    """The inputs of workload ``name``, drawn from ``seed``."""
    size = (TINY_SIZES if tiny else SIZES)[name]
    if name == "ivm_churn":
        return churn_inputs(size, seed)
    if name.startswith("gmark"):
        return gmark_inputs(size, seed)
    if name.startswith("feasible"):
        return feasible_inputs(size, seed)
    return sp2bench_inputs(size, seed)
