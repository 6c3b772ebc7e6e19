"""Benchmark: id-native BGP execution + FILTER pushdown vs the decoded path.

A ~90k-triple two-fan workload over the encoded store: every subject
carries a small ``:small`` fan and a larger ``:big`` fan, and the query
joins both fans then FILTERs the ``:small`` object down to a handful of
rows.  The PR 2 decoded path (id execution and FILTER pushdown off in
the profile) materialises the full two-fan join as boxed
``Term`` bindings and post-filters it; the id-native pipeline joins over
raw dictionary ids and kills non-qualifying rows right after the step
that binds the filtered variable, so the second fan is only probed for
the survivors.

Acceptance gates:

* the id-native + pushdown evaluator is at least **3x** faster on the
  FILTER-selective join (measured ~30-50x), with the identical multiset,
* id-native execution without any FILTER does not regress against the
  decoded path on the same join.
"""

import time
from collections import Counter

from repro.rdf.graph import Dataset
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.store import bulk_load_ntriples

#: The decoded, post-filtered pipeline on the encoded store.
DECODED = ExecutionProfile.FULL.with_options(
    use_id_execution=False, use_filter_pushdown=False
)

N_TRIPLES = 90_000

#: The two subject/predicate strides must stay coprime so every subject
#: receives both fans (a shared divisor would segregate the predicates
#: by subject and empty the join).
N_SUBJECTS = 4999

FILTER_QUERY = (
    "SELECT ?s ?a ?b WHERE {"
    " ?s <http://ex.org/small> ?a ."
    " ?s <http://ex.org/big> ?b ."
    " FILTER(?a = <http://ex.org/o42>) }"
)

JOIN_QUERY = (
    "SELECT ?s ?a WHERE {"
    " ?s <http://ex.org/small> ?a ."
    " ?s <http://ex.org/big> <http://ex.org/hub> }"
)

_GRAPH_CACHE = None


def _encoded_graph():
    """Memoised workload graph (built once per session, ~90k triples)."""
    global _GRAPH_CACHE
    if _GRAPH_CACHE is None:
        lines = []
        for i in range(N_TRIPLES):
            subject = f"<http://ex.org/s{i % N_SUBJECTS}>"
            if i % 4 == 0:
                predicate = "<http://ex.org/small>"
                obj = f"<http://ex.org/o{(i // 4) % 9973}>"
            elif i % 1000 == 1:
                predicate = "<http://ex.org/big>"
                obj = "<http://ex.org/hub>"
            else:
                predicate = "<http://ex.org/big>"
                obj = f"<http://ex.org/b{(i // 3) % 14983}>"
            lines.append(f"{subject} {predicate} {obj} .")
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


def _compare(query_text, rounds=3):
    """Time the PR 2 decoded path vs the id-native + pushdown pipeline."""
    dataset = Dataset.from_graph(_encoded_graph())
    query = parse_query(query_text)
    decoded_time, decoded = _best_time(
        SparqlEvaluator(dataset, profile=DECODED),
        query,
        rounds,
    )
    idnative_time, idnative = _best_time(SparqlEvaluator(dataset), query, rounds)
    assert Counter(decoded.rows()) == Counter(idnative.rows())
    assert len(decoded) > 0
    return decoded_time, idnative_time


def test_bench_idjoin_filter_selective_speedup(bench_metrics):
    """Acceptance gate: >=3x on the FILTER-selective two-fan join."""
    decoded_time, idnative_time = _compare(FILTER_QUERY, rounds=2)
    speedup = decoded_time / max(idnative_time, 1e-9)
    print(
        f"\nfilter-selective: decoded={decoded_time * 1e3:.1f}ms "
        f"id-native={idnative_time * 1e3:.1f}ms speedup={speedup:.1f}x"
    )
    bench_metrics.record(
        "idjoin", "filter_selective", "speedup_ratio", speedup, "x"
    )
    bench_metrics.record(
        "idjoin", "filter_selective", "idnative_time", idnative_time, "s"
    )
    assert speedup >= 3.0, f"expected >=3x id-native speedup, got {speedup:.2f}x"


def test_bench_idjoin_no_filter_no_regression(bench_metrics):
    """Id-native joins with no FILTER at all must not regress."""
    decoded_time, idnative_time = _compare(JOIN_QUERY)
    speedup = decoded_time / max(idnative_time, 1e-9)
    print(
        f"\njoin-only: decoded={decoded_time * 1e3:.1f}ms "
        f"id-native={idnative_time * 1e3:.1f}ms speedup={speedup:.2f}x"
    )
    bench_metrics.record("idjoin", "join_only", "speedup_ratio", speedup, "x")
    assert idnative_time <= decoded_time * 1.2 + 0.01
