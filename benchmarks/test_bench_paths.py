"""Benchmark: id-native property paths vs the term-level ALP baseline.

A gMark test-scenario graph (4 predicates over one node type, the
recursive-path workload of the paper's Figure 9) queried with a fixed,
deterministic mix of recursive path shapes:

* bound-subject closures over compound inner paths (``(p0|p1)+``,
  ``(p2|^p0)*``) — the ALP baseline re-materialises the full inner
  extension at every expansion step, the id engine probes per-node int
  successors,
* a sequence feeding a closure (``p2/(p3/p1)+``) — the shape the
  term-level evaluator must evaluate as a full two-free closure joined
  afterwards, while the id engine binds the middle and expands from
  single nodes,
* backward expansion from a bound object, bounded repetition, a
  two-variable closure, and a both-endpoints-bound reachability ASK
  (bidirectional meet-in-the-middle).

Acceptance gates:

* the id-native path engine is at least **3x** faster over the whole
  workload (measured orders of magnitude more), with identical
  multisets per query,
* a non-recursive path workload (links / sequences / alternatives only)
  does not regress.
"""

import time
from collections import Counter

from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.workloads.gmark import GMarkWorkload
from repro.workloads.gmark import test_scenario as gmark_test_scenario

SCALE = 0.25  # ~1.3k triples, 200 nodes: the ALP side stays CI-sized.

PREFIX = "PREFIX gmark: <http://example.org/gMark/>\n"
NODE = "http://example.org/gMark/Node"

RECURSIVE_QUERIES = [
    f"SELECT ?y WHERE {{ <{NODE}52> (gmark:p0|gmark:p1)+ ?y }}",
    f"SELECT ?y WHERE {{ <{NODE}72> (gmark:p2|^gmark:p0)* ?y }}",
    f"SELECT ?y WHERE {{ <{NODE}62> gmark:p2/(gmark:p3/gmark:p1)+ ?y }}",
    f"SELECT ?x WHERE {{ ?x (gmark:p0)+ <{NODE}110> }}",
    f"SELECT ?x WHERE {{ ?x (gmark:p1/gmark:p2)/(gmark:p2)* <{NODE}136> }}",
    f"SELECT ?y WHERE {{ <{NODE}59> gmark:p0{{1,4}} ?y }}",
    "SELECT ?x ?y WHERE { ?x (gmark:p3)+ ?y }",
    f"ASK {{ <{NODE}52> (gmark:p0|gmark:p1)+ <{NODE}110> }}",
]

NON_RECURSIVE_QUERIES = [
    "SELECT ?x ?y WHERE { ?x gmark:p0/gmark:p1 ?y }",
    f"SELECT ?y WHERE {{ <{NODE}52> (gmark:p0|gmark:p2)/gmark:p1 ?y }}",
    "SELECT ?x ?y WHERE { ?x ^gmark:p2/gmark:p3 ?y }",
]

_WORKLOAD_CACHE = None


def _dataset():
    """Memoised encoded-store gMark instance (built once per session)."""
    global _WORKLOAD_CACHE
    if _WORKLOAD_CACHE is None:
        workload = GMarkWorkload(
            scenario=gmark_test_scenario(), scale=SCALE, backend="encoded"
        )
        _WORKLOAD_CACHE = workload.dataset()
    return _WORKLOAD_CACHE


def _run_workload(evaluator, queries):
    """Evaluate every query, returning (wall seconds, comparable results)."""
    start = time.perf_counter()
    results = [evaluator.evaluate(query) for query in queries]
    elapsed = time.perf_counter() - start
    comparable = [
        result if isinstance(result, bool) else Counter(result.rows())
        for result in results
    ]
    return elapsed, comparable


def _compare(query_texts):
    dataset = _dataset()
    queries = [parse_query(PREFIX + text) for text in query_texts]
    term_time, term_results = _run_workload(
        SparqlEvaluator(
            dataset, profile=ExecutionProfile.FULL.with_options(use_id_paths=False)
        ),
        queries,
    )
    id_time, id_results = _run_workload(SparqlEvaluator(dataset), queries)
    for position, (expected, actual) in enumerate(zip(term_results, id_results)):
        assert actual == expected, f"result mismatch on query {position}"
    assert any(
        result if isinstance(result, bool) else sum(result.values())
        for result in term_results
    ), "workload produced no solutions at all"
    return term_time, id_time


def test_bench_paths_recursive_speedup(bench_metrics):
    """Acceptance gate: >=3x on the recursive gMark-style workload."""
    term_time, id_time = _compare(RECURSIVE_QUERIES)
    speedup = term_time / max(id_time, 1e-9)
    print(
        f"\nrecursive paths: term-alp={term_time * 1e3:.1f}ms "
        f"id-native={id_time * 1e3:.1f}ms speedup={speedup:.1f}x"
    )
    bench_metrics.record(
        "paths", "gmark_recursive", "speedup_ratio", speedup, "x"
    )
    bench_metrics.record(
        "paths", "gmark_recursive", "idpaths_time", id_time, "s"
    )
    assert speedup >= 3.0, f"expected >=3x id-path speedup, got {speedup:.2f}x"


def test_bench_paths_non_recursive_no_regression(bench_metrics):
    """Non-recursive paths must not regress under the id engine."""
    term_time, id_time = _compare(NON_RECURSIVE_QUERIES)
    speedup = term_time / max(id_time, 1e-9)
    print(
        f"\nnon-recursive paths: term-alp={term_time * 1e3:.1f}ms "
        f"id-native={id_time * 1e3:.1f}ms speedup={speedup:.2f}x"
    )
    bench_metrics.record(
        "paths", "non_recursive", "speedup_ratio", speedup, "x"
    )
    assert id_time <= term_time * 1.2 + 0.01
