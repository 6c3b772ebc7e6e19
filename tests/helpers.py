"""Shared helpers for the test suite."""

from __future__ import annotations

from collections import Counter
from typing import Union

from repro.rdf.graph import Dataset, Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Literal, Triple
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import SolutionSequence
from repro.store import EncodedGraph

EX = Namespace("http://ex.org/")

#: Textual-order evaluation, the planner's baseline: the oracle that shares
#: no code with the step compiler, reading any store's term surface (the
#: named presets live in ``profile.py``).
NAIVE = ExecutionProfile.FULL.with_options(use_planner=False)


def countries_graph() -> EncodedGraph:
    """The bordering-countries example graph from the paper (Section 4.2)."""
    graph = EncodedGraph()
    graph.add(Triple(EX.spain, EX.borders, EX.france))
    graph.add(Triple(EX.france, EX.borders, EX.belgium))
    graph.add(Triple(EX.france, EX.borders, EX.germany))
    graph.add(Triple(EX.belgium, EX.borders, EX.germany))
    graph.add(Triple(EX.germany, EX.borders, EX.austria))
    return graph


def directors_graph() -> EncodedGraph:
    """The film-directors example graph from the paper (Section 3.1)."""
    graph = EncodedGraph()
    graph.add(Triple(EX.glucas, EX.name, Literal("George")))
    graph.add(Triple(EX.glucas, EX.lastname, Literal("Lucas")))
    graph.add(Triple(EX.sspielberg, EX.name, Literal("Steven")))
    return graph


def chain_graph(n_chains: int) -> EncodedGraph:
    """gMark-style chains of three :p edges, one chain's end marked :hit."""
    graph = EncodedGraph()
    for i in range(n_chains):
        for step in range(3):
            graph.add(Triple(EX[f"c{i}_{step}"], EX.p, EX[f"c{i}_{step + 1}"]))
    graph.add(Triple(EX.c0_3, EX.hit, EX.flag))
    return graph


def countries_dataset() -> Dataset:
    return Dataset.from_graph(countries_graph())


def directors_dataset() -> Dataset:
    return Dataset.from_graph(directors_graph())


def on_hash_store(dataset: Dataset) -> Dataset:
    """``dataset`` copied onto the hash store, where ``NAIVE`` runs as the
    oracle that shares neither code nor store with planned evaluation."""
    return Dataset(
        Graph(dataset.default_graph),
        {name: Graph(graph) for name, graph in dataset.named_graphs.items()},
    )


def rows_multiset(result: Union[SolutionSequence, bool]) -> Counter:
    """Multiset of result rows for order-insensitive comparisons."""
    if isinstance(result, bool):
        return Counter([(result,)])
    return Counter(result.rows())


def assert_same_solutions(left, right) -> None:
    """Assert two engine results are equal as multisets."""
    assert rows_multiset(left) == rows_multiset(right)


def scan_work(evaluator) -> tuple:
    """``(probes, rows)`` of the evaluator's latest execution, summed over its scans.

    Index probes issued and rows they returned: the deterministic price
    of a join ("Skew Strikes Back"), what the count gates assert instead
    of elapsed time.
    """
    scans = [
        entry for entry in evaluator.last_physical_plan.counters() if entry["operator"] == "Scan"
    ]
    return sum(entry["probes"] for entry in scans), sum(entry["rows"] for entry in scans)


def plan_cache_lookup(evaluator):
    """``(cache, lookup)`` for an evaluator's plan cache.

    ``lookup(graph, patterns)`` goes through ``cache.get`` with the key
    shape the evaluator uses for a BGP without FILTERs or projection.
    """
    cache = evaluator.lowered_plans
    return cache, lambda graph, patterns: cache.get(graph, patterns, (), evaluator.profile)
