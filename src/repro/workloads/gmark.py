"""gMark-like workload: schema-driven graphs and path-query workloads.

gMark (Bagan et al. 2017) generates graph instances from a schema (node
types, edge predicates, degree distributions) together with a workload of
*path queries* — conjunctions of property-path patterns, including the
recursive operators missing from every other SPARQL benchmark.  The paper
uses gMark's ``test`` and ``social`` demo scenarios (50 queries each) to
evaluate recursive-property-path performance (Figures 8 and 9, Tables
6–10).

This module reimplements the two scenarios as seeded synthetic generators:
the social scenario has 27 predicates over persons, posts, tags, cities
and universities; the test scenario has 4 predicates over a single node
type.  The query generator produces 50 SPARQL queries per scenario with a
controlled mix of recursive (``+``, ``*``, bounded repetition) and
non-recursive path expressions, bound and unbound endpoints — including
the two-variable recursive queries that separate the engines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.rdf.graph import Dataset, Graph
from repro.store import create_graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import IRI
from repro.workloads.sp2bench import BenchmarkQuery

GMARK = Namespace("http://example.org/gMark/")


@dataclass
class EdgeSpec:
    """One predicate of the schema: source type, target type, fan-out."""

    predicate: str
    source_type: str
    target_type: str
    average_out_degree: float


@dataclass
class GMarkScenario:
    """A gMark scenario: node-type sizes plus edge specifications."""

    name: str
    node_counts: Dict[str, int]
    edges: List[EdgeSpec]
    query_count: int = 50

    def scaled(self, scale: float) -> "GMarkScenario":
        """Return a copy with node counts scaled by ``scale``."""
        return GMarkScenario(
            name=self.name,
            node_counts={
                node_type: max(5, int(count * scale))
                for node_type, count in self.node_counts.items()
            },
            edges=list(self.edges),
            query_count=self.query_count,
        )

    def predicates(self) -> List[str]:
        return [edge.predicate for edge in self.edges]


def social_scenario() -> GMarkScenario:
    """The social-network demo scenario (27 predicates)."""
    node_counts = {
        "Person": 600,
        "Post": 900,
        "Comment": 700,
        "Forum": 120,
        "Tag": 150,
        "City": 60,
        "Country": 25,
        "University": 40,
        "Company": 50,
    }
    edges = [
        EdgeSpec("knows", "Person", "Person", 4.0),
        EdgeSpec("follows", "Person", "Person", 3.0),
        EdgeSpec("likes", "Person", "Post", 3.0),
        EdgeSpec("created", "Person", "Post", 1.5),
        EdgeSpec("commented", "Person", "Comment", 1.2),
        EdgeSpec("replyOf", "Comment", "Post", 1.0),
        EdgeSpec("replyOfComment", "Comment", "Comment", 0.5),
        EdgeSpec("hasTag", "Post", "Tag", 1.5),
        EdgeSpec("hasTagComment", "Comment", "Tag", 0.7),
        EdgeSpec("subTagOf", "Tag", "Tag", 0.8),
        EdgeSpec("moderates", "Person", "Forum", 0.2),
        EdgeSpec("memberOf", "Person", "Forum", 2.0),
        EdgeSpec("containerOf", "Forum", "Post", 5.0),
        EdgeSpec("livesIn", "Person", "City", 1.0),
        EdgeSpec("partOf", "City", "Country", 1.0),
        EdgeSpec("studyAt", "Person", "University", 0.7),
        EdgeSpec("locatedIn", "University", "City", 1.0),
        EdgeSpec("worksAt", "Person", "Company", 0.9),
        EdgeSpec("companyIn", "Company", "Country", 1.0),
        EdgeSpec("friendOf", "Person", "Person", 2.0),
        EdgeSpec("influences", "Person", "Person", 1.0),
        EdgeSpec("mentions", "Post", "Person", 0.8),
        EdgeSpec("linksTo", "Post", "Post", 1.2),
        EdgeSpec("derivedFrom", "Post", "Post", 0.4),
        EdgeSpec("interestedIn", "Person", "Tag", 1.3),
        EdgeSpec("endorses", "Person", "Company", 0.4),
        EdgeSpec("travelsTo", "Person", "City", 0.6),
    ]
    return GMarkScenario("social", node_counts, edges)


def test_scenario() -> GMarkScenario:
    """The small test demo scenario (4 predicates over one node type)."""
    node_counts = {"Node": 800}
    edges = [
        EdgeSpec("p0", "Node", "Node", 2.5),
        EdgeSpec("p1", "Node", "Node", 2.0),
        EdgeSpec("p2", "Node", "Node", 1.5),
        EdgeSpec("p3", "Node", "Node", 1.0),
    ]
    return GMarkScenario("test", node_counts, edges)


def generate_gmark_graph(scenario: GMarkScenario, seed: int = 7) -> Graph:
    """Materialise a graph instance of the scenario."""
    rng = random.Random(seed)
    graph = create_graph()
    nodes: Dict[str, List[IRI]] = {}
    for node_type, count in scenario.node_counts.items():
        nodes[node_type] = [GMARK[f"{node_type}{index}"] for index in range(count)]
    for edge in scenario.edges:
        sources = nodes[edge.source_type]
        targets = nodes[edge.target_type]
        predicate = GMARK[edge.predicate]
        for source in sources:
            # Zipf-flavoured out-degree around the configured average.
            degree = rng.randint(0, max(1, int(edge.average_out_degree * 2)))
            for _ in range(degree):
                weight = rng.random()
                target = targets[int(weight * weight * (len(targets) - 1))]
                graph.add_triple(source, predicate, target)
    return graph


# ----------------------------------------------------------------------
# query generation
# ----------------------------------------------------------------------
def _random_path_expression(
    rng: random.Random, predicates: Sequence[str], recursive: bool
) -> str:
    """Build a property-path expression string over the given predicates."""

    def atom() -> str:
        predicate = rng.choice(predicates)
        prefixed = f"gmark:{predicate}"
        if rng.random() < 0.2:
            return f"^{prefixed}"
        return prefixed

    def simple() -> str:
        kind = rng.random()
        if kind < 0.45:
            return atom()
        if kind < 0.75:
            return f"({atom()}/{atom()})"
        return f"({atom()}|{atom()})"

    if not recursive:
        parts = [simple() for _ in range(rng.randint(1, 3))]
        return "/".join(parts)

    body = simple()
    modifier = rng.random()
    if modifier < 0.4:
        closed = f"({body})+"
    elif modifier < 0.7:
        closed = f"({body})*"
    elif modifier < 0.85:
        closed = f"({body})?"
    else:
        closed = f"({body}){{1,{rng.randint(2, 4)}}}"
    if rng.random() < 0.4:
        return f"{simple()}/{closed}"
    return closed


def generate_gmark_queries(
    scenario: GMarkScenario,
    graph: Graph,
    seed: int = 11,
    count: Optional[int] = None,
    recursive_only: bool = False,
) -> List[BenchmarkQuery]:
    """Generate the path-query workload for a scenario.

    Roughly half of the queries contain a recursive path operator, and a
    third of those leave both endpoints unbound (the case Virtuoso rejects
    and Fuseki struggles with).  ``recursive_only=True`` makes every query
    recursive — the slice the path-perf CI gate and the paper's Figures
    8/9 stress.
    """
    rng = random.Random(seed)
    count = count if count is not None else scenario.query_count
    prefix = "PREFIX gmark: <http://example.org/gMark/>\n"
    node_pool = sorted(graph.nodes(), key=lambda term: getattr(term, "value", str(term)))
    queries: List[BenchmarkQuery] = []
    for index in range(count):
        recursive = recursive_only or rng.random() < 0.55
        expression = _random_path_expression(rng, scenario.predicates(), recursive)
        endpoint_choice = rng.random()
        features: List[str] = ["PropertyPath"]
        if recursive:
            features.append("RecursivePath")
        if endpoint_choice < 0.4 and node_pool:
            source = rng.choice(node_pool)
            body = f"SELECT ?y WHERE {{ <{source.value}> {expression} ?y }}"
            features.append("BoundSubject")
        elif endpoint_choice < 0.6 and node_pool:
            target = rng.choice(node_pool)
            body = f"SELECT ?x WHERE {{ ?x {expression} <{target.value}> }}"
            features.append("BoundObject")
        else:
            body = f"SELECT ?x ?y WHERE {{ ?x {expression} ?y }}"
            features.append("TwoVariables")
        queries.append(
            BenchmarkQuery(f"{scenario.name}-{index}", prefix + body, tuple(features))
        )
    return queries


class GMarkWorkload:
    """A generated gMark scenario instance plus its query workload."""

    def __init__(
        self,
        scenario: Optional[GMarkScenario] = None,
        scale: float = 1.0,
        seed: int = 7,
        query_count: Optional[int] = None,
        recursive_only: bool = False,
    ) -> None:
        self.scenario = (scenario or social_scenario()).scaled(scale)
        self.seed = seed
        self.name = f"gMark-{self.scenario.name}"
        self._graph = generate_gmark_graph(self.scenario, seed=seed)
        self._queries = generate_gmark_queries(
            self.scenario,
            self._graph,
            seed=seed + 13,
            count=query_count,
            recursive_only=recursive_only,
        )

    @property
    def graph(self) -> Graph:
        return self._graph

    def dataset(self) -> Dataset:
        return Dataset.from_graph(self._graph.copy())

    def queries(self) -> List[BenchmarkQuery]:
        return list(self._queries)

    def statistics(self) -> Dict[str, int]:
        """Triple / predicate / query counts (Table 6)."""
        return {
            "triples": len(self._graph),
            "predicates": len(self._graph.predicates()),
            "queries": len(self._queries),
        }
