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
* >= **3x** fewer index probes on the triangle query and the 4-clique
  query: the binary plan's summed scan ``probes`` (one per wedge, Θ(N²))
  against the leapfrog plan's (one per sorted run fetched) — counts both
  executors publish and that repeat exactly, 493 685 vs 4 492 and 522 725
  vs 10 698 when the gate was written.  Not the scans' ``rows``: on the
  leapfrog side those are run lengths the galloping search skips through,
  not rows enumerated.  The two wall times and their ratio are recorded
  (``binary_time`` / ``leapfrog_time`` / ``time_ratio``) and not asserted:
  the binary pipeline is the numerator, so every speed-up of it would eat
  the margin of a wall-clock gate without anything regressing,
* acyclic chains still lower to the binary operator, and leaving the
  WCOJ knob on costs them no more than noise (``overhead_ratio`` metric,
  recorded for the trajectory but not speedup-gated).
"""

import time
from collections import Counter

from repro.rdf.graph import Dataset
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.physical import IndexNestedLoopJoin, LeapfrogJoin, Scan
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


def _scan_probes(evaluator):
    """Index probes of the evaluator's latest execution, summed over its scans."""
    return sum(
        operator.stats.probes
        for operator in evaluator.last_physical_plan.operators()
        if isinstance(operator, Scan)
    )


def _compare_cyclic(query_text, rounds, test, bench_metrics):
    """Run the binary-join plan and the leapfrog plan on a cyclic query.

    Asserts the operator choice, bag equality and the probe-count gate;
    records the probe counts and the (ungated) wall times.
    """
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
    binary_probes = _scan_probes(binary_evaluator)
    leapfrog_probes = _scan_probes(leapfrog_evaluator)
    probe_ratio = binary_probes / max(leapfrog_probes, 1)
    time_ratio = binary_time / max(leapfrog_time, 1e-9)
    print(
        f"\n{test}: probes binary={binary_probes} leapfrog={leapfrog_probes} "
        f"({probe_ratio:.1f}x)  time binary={binary_time * 1e3:.1f}ms "
        f"leapfrog={leapfrog_time * 1e3:.1f}ms ({time_ratio:.1f}x, not asserted)"
    )
    bench_metrics.record("wcoj", test, "binary_probes", binary_probes, "count")
    bench_metrics.record("wcoj", test, "leapfrog_probes", leapfrog_probes, "count")
    bench_metrics.record("wcoj", test, "probe_ratio", probe_ratio, "x")
    bench_metrics.record("wcoj", test, "binary_time", binary_time, "s")
    bench_metrics.record("wcoj", test, "leapfrog_time", leapfrog_time, "s")
    bench_metrics.record("wcoj", test, "time_ratio", time_ratio, "x")
    assert probe_ratio >= 3.0, (
        f"expected >=3x fewer index probes under leapfrog, got {probe_ratio:.2f}x "
        f"({binary_probes} vs {leapfrog_probes})"
    )


def test_bench_wcoj_triangle_speedup(bench_metrics):
    """Acceptance gate: >=3x fewer index probes on the skewed triangle query."""
    _compare_cyclic(TRIANGLE_QUERY, 2, "triangle", bench_metrics)


def test_bench_wcoj_clique4_speedup(bench_metrics):
    """Acceptance gate: >=3x fewer index probes on the 4-clique query."""
    _compare_cyclic(CLIQUE4_QUERY, 2, "clique4", bench_metrics)


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
