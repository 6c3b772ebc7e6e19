"""Benchmark: incremental view maintenance vs re-evaluation under churn.

The workload holds a two-hop join view (with a FILTER) open over an
encoded graph while a mixed add/remove churn stream mutates ~1% of the
edges per tick.  The IVM engine maintains the view through the delta
pipeline — per changed triple it probes the two scan positions and joins
only the affected bindings, O(|Δ| · degree) work — while the reference
engine re-evaluates the full join after every tick, O(|G|) work that
re-derives everything it already knew.

Acceptance gates:

* the view is delta-maintained (``maintenance == "delta"``) and its
  final state equals a fresh evaluation (multiset equality),
* IVM maintenance is >= **10x** faster than per-tick re-evaluation
  (``speedup_ratio`` metric, regression-gated by
  ``benchmarks/compare_trajectory.py``).

The re-evaluating engine runs the ``BASELINE`` profile — the planned,
term-level evaluation kept as the differential oracle — so the
denominator is pinned: the ratio moves with the cost of maintenance, not
with how fast the production join executor has become.
"""

import time
from collections import Counter

from repro.engine import create_engine
from repro.rdf.terms import Triple
from repro.rdf.namespace import Namespace
from repro.sparql import ExecutionProfile
from repro.sparql.parser import parse_query
from repro.store import EncodedGraph

EX = Namespace("http://ex.org/")

#: Nodes in the graph; out-degree 2 → twice as many edges.
N_NODES = 2500

#: Churn ticks to run; each toggles ``CHURN_PER_TICK`` edges.
TICKS = 8

VIEW_QUERY = (
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?a ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . FILTER(?a != ?c) }"
)


def _base_edges():
    """Deterministic pseudo-random graph: every node has out-degree 2."""
    edges = []
    for i in range(N_NODES):
        edges.append(Triple(EX[f"n{i}"], EX.p, EX[f"n{(i * 7 + 1) % N_NODES}"]))
        edges.append(Triple(EX[f"n{i}"], EX.p, EX[f"n{(i * 13 + 5) % N_NODES}"]))
    return edges


def _churn_plan(edges):
    """Mixed add/remove toggles: 1% of the edge pool per tick.

    Walking a rolling window over the pool first *removes* present edges
    and, once the window wraps, *adds* them back — so every tick is a
    mix of insertions and deletions without any RNG (benchmarks must be
    deterministic).
    """
    per_tick = max(1, len(edges) // 100)
    plan = []
    for tick in range(TICKS):
        start = tick * per_tick
        plan.append([edges[(start + k) % len(edges)] for k in range(per_tick)])
    return plan


def _toggle(graph, triple):
    if triple in graph:
        graph.remove(triple)
    else:
        graph.add(triple)


def test_bench_ivm_churn_speedup(bench_metrics):
    """Acceptance gate: >=10x IVM speedup over re-evaluation on churn."""
    edges = _base_edges()
    plan = _churn_plan(edges)
    query = parse_query(VIEW_QUERY)

    ivm_engine = create_engine(EncodedGraph(edges))
    reeval_engine = create_engine(
        EncodedGraph(edges), profile=ExecutionProfile.BASELINE
    )
    view = ivm_engine.materialize(query)
    assert view.maintenance == "delta"
    baseline_rows = len(view)
    assert baseline_rows > 0

    ivm_time = 0.0
    reeval_time = 0.0
    for batch in plan:
        # IVM side: the mutation itself drives the delta pipeline, so
        # the maintained state is already current when the loop ends.
        start = time.perf_counter()
        for triple in batch:
            _toggle(ivm_engine.graph, triple)
        ivm_time += time.perf_counter() - start
        # Re-evaluation side: same mutations (untimed), then the full
        # query answers from scratch (timed).
        for triple in batch:
            _toggle(reeval_engine.graph, triple)
        start = time.perf_counter()
        reference = reeval_engine.query(query)
        reeval_time += time.perf_counter() - start

    assert Counter(view.rows()) == Counter(tuple(r) for r in reference.rows())
    changes = sum(len(batch) for batch in plan)
    speedup = reeval_time / max(ivm_time, 1e-9)
    print(
        f"\nivm churn: {changes} changes over {TICKS} ticks, "
        f"maintain={ivm_time * 1e3:.1f}ms reeval={reeval_time * 1e3:.1f}ms "
        f"speedup={speedup:.1f}x"
    )
    bench_metrics.record("ivm", "churn", "speedup_ratio", speedup, "x")
    bench_metrics.record("ivm", "churn", "maintain_time", ivm_time, "s")
    bench_metrics.record(
        "ivm", "churn", "delta_rows", float(view.delta_stats.rows), "rows"
    )
    assert speedup >= 10.0, f"expected >=10x IVM speedup, got {speedup:.2f}x"


def test_bench_ivm_subscription_latency(bench_metrics):
    """Informational: per-change delta latency with a live subscriber."""
    edges = _base_edges()
    engine = create_engine(EncodedGraph(edges))
    view = engine.materialize(VIEW_QUERY)
    events = []
    view.on_change(events.append)
    probes = [
        Triple(EX[f"n{i}"], EX.p, EX[f"n{(i * 3 + 11) % N_NODES}"])
        for i in range(200)
    ]
    start = time.perf_counter()
    for triple in probes:
        _toggle(engine.graph, triple)
    elapsed = time.perf_counter() - start
    per_change = elapsed / len(probes)
    assert events, "subscriber must observe deltas"
    print(
        f"\nivm subscription: {len(probes)} changes in {elapsed * 1e3:.1f}ms "
        f"({per_change * 1e6:.0f}us/change, {len(events)} events)"
    )
    bench_metrics.record("ivm", "subscription", "change_latency", per_change, "s")
