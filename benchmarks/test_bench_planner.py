"""Benchmark: cost-based BGP planner vs textual-order evaluation.

SP2Bench- and gMark-style star / chain / cycle patterns where the
selective pattern is listed *last*, so textual-order evaluation pays the
full unselective cross-join before ever seeing the filter.  The planner
must reorder by estimated cardinality and stream, turning the star query
into a handful of index probes.

Expected shape: the planned evaluator is at least 5x faster on the star
query (the acceptance gate) and no slower elsewhere, with multiset-equal
results everywhere.
"""

import time
from collections import Counter

from repro.rdf.graph import Dataset, Graph
from repro.rdf.namespace import Namespace
from repro.rdf.terms import Triple
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile

EX = Namespace("http://ex.org/")
PREFIX = "PREFIX ex: <http://ex.org/>\n"
#: Textual-order evaluation, the baseline the planner is gated against.
NAIVE = ExecutionProfile.FULL.with_options(use_planner=False)


def _star_dataset(n_subjects: int = 350, fanout: int = 5) -> Dataset:
    """SP2Bench-style star: wide :a / :b fans, one :selective edge."""
    graph = Graph()
    for i in range(n_subjects):
        subject = EX[f"s{i}"]
        for j in range(fanout):
            graph.add(Triple(subject, EX.a, EX[f"a{i}_{j}"]))
            graph.add(Triple(subject, EX.b, EX[f"b{i}_{j}"]))
    graph.add(Triple(EX.s0, EX.selective, EX.target))
    return Dataset.from_graph(graph)


def _chain_dataset(n_chains: int = 250, length: int = 3) -> Dataset:
    """gMark-style chain: long :p chains, one chain marked :hit."""
    graph = Graph()
    for i in range(n_chains):
        for step in range(length):
            graph.add(Triple(EX[f"c{i}_{step}"], EX.p, EX[f"c{i}_{step + 1}"]))
    graph.add(Triple(EX[f"c0_{length}"], EX.hit, EX.flag))
    return Dataset.from_graph(graph)


def _cycle_dataset(n_nodes: int = 120) -> Dataset:
    """gMark-style cycle: a :p ring plus a single :marked node."""
    graph = Graph()
    for i in range(n_nodes):
        graph.add(Triple(EX[f"n{i}"], EX.p, EX[f"n{(i + 1) % n_nodes}"]))
        graph.add(Triple(EX[f"n{i}"], EX.q, EX[f"n{(i + 7) % n_nodes}"]))
    graph.add(Triple(EX.n0, EX.marked, EX.yes))
    return Dataset.from_graph(graph)


def _best_time(evaluator, query, rounds: int = 3) -> float:
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = evaluator.evaluate(query)
        best = min(best, time.perf_counter() - start)
    return best, result


def _compare(dataset, query_text):
    query = parse_query(PREFIX + query_text)
    naive_time, naive = _best_time(SparqlEvaluator(dataset, profile=NAIVE), query)
    planned_time, planned = _best_time(SparqlEvaluator(dataset), query)
    assert Counter(planned.rows()) == Counter(naive.rows())
    return naive_time, planned_time


def test_bench_planner_star_speedup(bench_metrics):
    """Acceptance gate: >= 5x on a 3-pattern star, selective pattern last."""
    dataset = _star_dataset()
    naive_time, planned_time = _compare(
        dataset,
        "SELECT ?v ?x ?y WHERE { ?v ex:a ?x . ?v ex:b ?y . ?v ex:selective ex:target }",
    )
    speedup = naive_time / max(planned_time, 1e-9)
    print(f"\nstar: naive={naive_time * 1e3:.2f}ms planned={planned_time * 1e3:.2f}ms "
          f"speedup={speedup:.1f}x")
    bench_metrics.record("planner", "star", "speedup_ratio", speedup, "x")
    assert speedup >= 5.0, f"expected >=5x speedup, got {speedup:.2f}x"


def test_bench_planner_chain(bench_metrics):
    dataset = _chain_dataset()
    naive_time, planned_time = _compare(
        dataset,
        "SELECT ?a WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?d . ?d ex:hit ex:flag }",
    )
    speedup = naive_time / max(planned_time, 1e-9)
    print(f"\nchain: naive={naive_time * 1e3:.2f}ms planned={planned_time * 1e3:.2f}ms "
          f"speedup={speedup:.1f}x")
    bench_metrics.record("planner", "chain", "speedup_ratio", speedup, "x")
    assert speedup >= 2.0, f"expected >=2x speedup, got {speedup:.2f}x"


def test_bench_planner_cycle():
    dataset = _cycle_dataset()
    naive_time, planned_time = _compare(
        dataset,
        "SELECT ?a ?b WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c ex:p ?a . ?a ex:marked ex:yes }",
    )
    speedup = naive_time / max(planned_time, 1e-9)
    print(f"\ncycle: naive={naive_time * 1e3:.2f}ms planned={planned_time * 1e3:.2f}ms "
          f"speedup={speedup:.1f}x")
    # Cycles join back on the first variable; planned evaluation must not
    # regress even though every pattern touches the same predicate fan.
    assert planned_time <= naive_time * 1.5


def test_bench_planner_ask_short_circuits():
    dataset = _star_dataset()
    query = parse_query(
        PREFIX + "ASK WHERE { ?v ex:a ?x . ?v ex:b ?y . ?v ex:selective ex:target }"
    )
    planned_time, result = _best_time(SparqlEvaluator(dataset), query)
    assert result is True
    naive_time, naive_result = _best_time(
        SparqlEvaluator(dataset, profile=NAIVE), query
    )
    assert naive_result is True
    print(f"\nask: naive={naive_time * 1e3:.2f}ms planned={planned_time * 1e3:.2f}ms")
    assert planned_time <= naive_time
