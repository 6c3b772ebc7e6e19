"""Benchmark: leapfrog-triejoin (WCOJ) vs binary joins on cyclic BGPs.

The workload is the classic worst case for binary join plans: a skewed
"hub" relation (every spoke points at one hub node and back) plus a
small clique.  A binary index-nested-loop triangle plan must enumerate
every wedge through the hub — Θ(N²) intermediate pairs that almost all
die at the closing pattern — while the leapfrog-triejoin operator
intersects the sorted id runs level by level and only ever touches
candidates that extend to a result ("Skew Strikes Back", Ngo/Ré/Rudra
2013).  The clique supplies the actual triangles/4-cliques so the result
multiset is non-trivial in both plans.

Acceptance gates:

* ``LeapfrogJoin`` is what lowering selects for the cyclic queries on
  the encoded store, with the identical multiset to the binary plan,
* >= **3x** on the triangle query and the 4-clique query
  (``speedup_ratio`` metrics, regression-gated by
  ``benchmarks/compare_trajectory.py``),
* acyclic chains still lower to the binary operator, and leaving the
  WCOJ knob on costs them no more than noise (``overhead_ratio`` metric,
  recorded for the trajectory but not speedup-gated).
"""

import time
from collections import Counter

from repro.rdf.graph import Dataset
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.physical import IndexNestedLoopJoin, LeapfrogJoin
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.store import bulk_load_ntriples

#: Spokes of the hub: each contributes the wedge (spoke -> hub -> spoke').
N_SPOKES = 700

#: Clique nodes: all ordered pairs are edges (132 for 12 nodes).
N_CLIQUE = 12

#: Length of the linear r-chain used by the acyclic no-regression case.
N_CHAIN = 2000

TRIANGLE_QUERY = (
    "SELECT ?a ?b ?c WHERE {"
    " ?a <http://ex.org/p> ?b ."
    " ?b <http://ex.org/p> ?c ."
    " ?c <http://ex.org/p> ?a }"
)

CLIQUE4_QUERY = (
    "SELECT ?a ?b ?c ?d WHERE {"
    " ?a <http://ex.org/p> ?b ."
    " ?a <http://ex.org/p> ?c ."
    " ?a <http://ex.org/p> ?d ."
    " ?b <http://ex.org/p> ?c ."
    " ?b <http://ex.org/p> ?d ."
    " ?c <http://ex.org/p> ?d }"
)

CHAIN_QUERY = (
    "SELECT ?a ?b ?c ?d WHERE {"
    " ?a <http://ex.org/r> ?b ."
    " ?b <http://ex.org/r> ?c ."
    " ?c <http://ex.org/r> ?d }"
)

_GRAPH_CACHE = None


def _encoded_graph():
    """Memoised workload graph: hub wedges + clique + acyclic chain."""
    global _GRAPH_CACHE
    if _GRAPH_CACHE is None:
        lines = []
        hub = "<http://ex.org/hub>"
        for i in range(N_SPOKES):
            spoke = f"<http://ex.org/n{i}>"
            lines.append(f"{spoke} <http://ex.org/p> {hub} .")
            lines.append(f"{hub} <http://ex.org/p> {spoke} .")
        for i in range(N_CLIQUE):
            for j in range(N_CLIQUE):
                if i != j:
                    lines.append(
                        f"<http://ex.org/c{i}> <http://ex.org/p>"
                        f" <http://ex.org/c{j}> ."
                    )
        for i in range(N_CHAIN):
            lines.append(
                f"<http://ex.org/u{i}> <http://ex.org/r>"
                f" <http://ex.org/u{i + 1}> ."
            )
        _GRAPH_CACHE = bulk_load_ntriples("\n".join(lines))
    return _GRAPH_CACHE


def _best_time(evaluator, query, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = evaluator.evaluate(query)
        best = min(best, time.perf_counter() - start)
    return best, result


def _compare_cyclic(query_text, rounds):
    """Time the binary-join plan vs the leapfrog plan on a cyclic query."""
    dataset = Dataset.from_graph(_encoded_graph())
    query = parse_query(query_text)
    binary_evaluator = SparqlEvaluator(dataset, profile=ExecutionProfile.ID_NATIVE)
    leapfrog_evaluator = SparqlEvaluator(dataset)
    binary_time, binary = _best_time(binary_evaluator, query, rounds)
    leapfrog_time, leapfrog = _best_time(leapfrog_evaluator, query, rounds)
    assert isinstance(
        binary_evaluator.last_physical_plan.root.child, IndexNestedLoopJoin
    )
    assert isinstance(
        leapfrog_evaluator.last_physical_plan.root.child, LeapfrogJoin
    ), "lowering must select the leapfrog operator for the cyclic BGP"
    assert Counter(binary.rows()) == Counter(leapfrog.rows())
    assert len(leapfrog) > 0
    return binary_time, leapfrog_time


def test_bench_wcoj_triangle_speedup(bench_metrics):
    """Acceptance gate: >=3x on the skewed triangle query."""
    binary_time, leapfrog_time = _compare_cyclic(TRIANGLE_QUERY, rounds=2)
    speedup = binary_time / max(leapfrog_time, 1e-9)
    print(
        f"\ntriangle: binary={binary_time * 1e3:.1f}ms "
        f"leapfrog={leapfrog_time * 1e3:.1f}ms speedup={speedup:.1f}x"
    )
    bench_metrics.record("wcoj", "triangle", "speedup_ratio", speedup, "x")
    bench_metrics.record("wcoj", "triangle", "leapfrog_time", leapfrog_time, "s")
    assert speedup >= 3.0, f"expected >=3x leapfrog speedup, got {speedup:.2f}x"


def test_bench_wcoj_clique4_speedup(bench_metrics):
    """Acceptance gate: >=3x on the 4-clique query."""
    binary_time, leapfrog_time = _compare_cyclic(CLIQUE4_QUERY, rounds=2)
    speedup = binary_time / max(leapfrog_time, 1e-9)
    print(
        f"\nclique4: binary={binary_time * 1e3:.1f}ms "
        f"leapfrog={leapfrog_time * 1e3:.1f}ms speedup={speedup:.1f}x"
    )
    bench_metrics.record("wcoj", "clique4", "speedup_ratio", speedup, "x")
    assert speedup >= 3.0, f"expected >=3x leapfrog speedup, got {speedup:.2f}x"


def test_bench_wcoj_acyclic_no_regression(bench_metrics):
    """Leaving the WCOJ knob on must not slow down acyclic BGPs.

    The chain lowers to the binary operator either way (GYO finds it
    acyclic), so the only possible cost is the eligibility analysis —
    recorded as ``overhead_ratio`` (not a gated speedup metric) and
    asserted against a generous noise bound.
    """
    dataset = Dataset.from_graph(_encoded_graph())
    query = parse_query(CHAIN_QUERY)
    wcoj_on = SparqlEvaluator(dataset)
    wcoj_off = SparqlEvaluator(dataset, profile=ExecutionProfile.ID_NATIVE)
    off_time, off_rows = _best_time(wcoj_off, query, rounds=3)
    on_time, on_rows = _best_time(wcoj_on, query, rounds=3)
    assert isinstance(wcoj_on.last_physical_plan.root.child, IndexNestedLoopJoin)
    assert Counter(off_rows.rows()) == Counter(on_rows.rows())
    assert len(on_rows) == N_CHAIN - 2
    ratio = on_time / max(off_time, 1e-9)
    print(
        f"\nacyclic chain: wcoj-off={off_time * 1e3:.1f}ms "
        f"wcoj-on={on_time * 1e3:.1f}ms ratio={ratio:.2f}"
    )
    bench_metrics.record("wcoj", "acyclic_chain", "overhead_ratio", ratio, "x")
    assert ratio <= 1.5, f"WCOJ eligibility analysis cost {ratio:.2f}x on acyclic BGP"
