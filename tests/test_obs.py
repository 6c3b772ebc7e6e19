"""Tests for the observability layer (:mod:`repro.obs`) and its wiring.

Covers the tracer (span nesting, disabled no-ops, iterator tracing), the
metrics registry (instrument kinds, get-or-create, Prometheus text
exposition), both trace exporters against the committed schema, and the
integration points: evaluator cache metrics, per-execution
operator-stat reset on cached physical plans, counter consistency under LIMIT/ASK early exit, the
WCOJ-fallback warning/counter, store and dictionary counters bound
through :func:`repro.obs.metrics.bind_store_metrics`, the Datalog
fixpoint-iteration counter, and the harness ``time_call`` tracer hook.
"""

import logging
from collections import Counter as MultiSet

import pytest

from repro.core.engine import SparqLogEngine
from repro.harness.timing import time_call
from repro.obs import (
    NULL_SPAN,
    Tracer,
    bind_store_metrics,
    to_chrome_trace,
    trace_to_dict,
    validate_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import trace_iterator
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Triple
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.store import EncodedGraph

from tests.helpers import EX, chain_graph

PREFIX = "PREFIX ex: <http://ex.org/>\n"

_TRIPLES = [
    Triple(EX.s1, EX.p, EX.a),
    Triple(EX.s1, EX.q, EX.b),
    Triple(EX.s2, EX.p, EX.a),
    Triple(EX.a, EX.p, EX.b),
    Triple(EX.b, EX.p, EX.c),
    Triple(EX.c, EX.p, EX.a),
]

_TRIANGLE = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_nesting_and_completion_order(self):
        tracer = Tracer("t")
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
            outer.annotate(detail=1)
        assert [span.name for span in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner.parent is outer
        assert outer.parent is None
        assert outer.args == {"detail": 1}
        assert inner.duration is not None and inner.duration >= 0.0

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("phase")
        assert span is NULL_SPAN
        with span as active:
            active.annotate(ignored=True)
        tracer.event("summary", duration=1.0)
        assert len(tracer) == 0

    def test_event_synthesises_start_from_duration(self):
        tracer = Tracer()
        tracer.event("op", category="operator", duration=0.25, rows=7)
        (span,) = tracer.spans
        assert span.end is not None
        assert span.duration == pytest.approx(0.25)
        assert span.args == {"rows": 7}

    def test_phase_totals_sums_by_name_within_category(self):
        tracer = Tracer()
        tracer.event("execute", category="phase", duration=0.1)
        tracer.event("execute", category="phase", duration=0.2)
        tracer.event("other", category="query", duration=5.0)
        totals = tracer.phase_totals()
        assert totals["execute"] == pytest.approx(0.3)
        assert "other" not in totals

    def test_clear_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert len(tracer) == 0

    def test_trace_iterator_counts_rows_and_is_lazy(self):
        tracer = Tracer()
        wrapped = trace_iterator(tracer, "stream", iter([1, 2, 3]))
        assert len(tracer) == 0  # nothing recorded before consumption
        assert list(wrapped) == [1, 2, 3]
        (span,) = tracer.spans
        assert span.name == "stream"
        assert span.args == {"rows": 3}

    def test_trace_iterator_passthrough_without_tracer(self):
        assert list(trace_iterator(None, "s", iter([1, 2]))) == [1, 2]


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_and_get_or_create(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "help text")
        counter.inc()
        counter.inc(2)
        assert registry.counter("hits_total") is counter
        gauge = registry.gauge("size")
        gauge.set(12.5)
        snapshot = registry.snapshot()
        assert snapshot == {"hits_total": 3, "size": 12.5}

    def test_kind_collision_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_invalid_name_is_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("1bad")
        with pytest.raises(ValueError):
            registry.counter("has space")

    def test_callback_instruments_read_live_state(self):
        registry = MetricsRegistry()
        state = {"value": 1}
        registry.gauge("live", callback=lambda: state["value"])
        assert registry.snapshot()["live"] == 1
        state["value"] = 9
        assert registry.snapshot()["live"] == 9

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        collected = histogram.collect()
        assert collected["count"] == 5
        assert collected["sum"] == pytest.approx(5.605)
        assert collected["buckets"] == {"0.01": 1, "0.1": 3, "1": 4, "+Inf": 5}

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", "Requests served").inc(4)
        registry.histogram("latency_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = registry.render_prometheus()
        assert "# HELP requests_total Requests served" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 4" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 1' in text
        assert "latency_seconds_count 1" in text
        assert text.endswith("\n")

    def test_instrument_kinds_exposed(self):
        assert Counter("c").kind == "counter"
        assert Gauge("g").kind == "gauge"
        assert Histogram("h").kind == "histogram"


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def _traced(self):
        tracer = Tracer("unit")
        with tracer.span("outer"):
            with tracer.span("inner", category="operator", rows=3):
                pass
        return tracer

    def test_trace_to_dict_validates_and_links_parents(self):
        payload = trace_to_dict(self._traced())
        assert validate_trace(payload) == []
        assert payload["name"] == "unit"
        by_name = {span["name"]: span for span in payload["spans"]}
        assert by_name["inner"]["parent"] == payload["spans"].index(by_name["outer"])
        assert "parent" not in by_name["outer"]
        assert by_name["inner"]["args"] == {"rows": 3}

    def test_validator_rejects_malformed_payloads(self):
        assert validate_trace({"spans": []})  # missing name
        assert validate_trace({"name": "", "spans": []})  # empty name
        assert validate_trace({"name": "x", "spans": [{}]})  # span missing keys
        assert validate_trace(
            {"name": "x", "spans": [], "extra": 1}
        )  # additionalProperties: false
        assert validate_trace(
            {
                "name": "x",
                "spans": [
                    {"name": "s", "category": "phase", "start_us": 0, "duration_us": -1}
                ],
            }
        )  # negative duration

    def test_chrome_trace_events(self):
        chrome = to_chrome_trace(self._traced())
        assert chrome["displayTimeUnit"] == "ms"
        events = chrome["traceEvents"]
        assert [event["name"] for event in events] == ["inner", "outer"]
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1


    def test_an_evaluation_trace_round_trips_through_both_exporters(self):
        tracer = Tracer("triangle")
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)), tracer=tracer)
        with tracer.span("parse"):
            query = parse_query(_TRIANGLE)
        evaluator.evaluate(query)
        assert {"parse", "plan", "lower", "execute"} <= set(tracer.phase_totals())
        payload = trace_to_dict(tracer)
        assert validate_trace(payload) == []
        assert any(span["category"] == "operator" for span in payload["spans"])
        events = to_chrome_trace(tracer)["traceEvents"]
        assert len(events) == len(payload["spans"])
        assert all(e["ph"] == "X" and e["ts"] >= 0 and e["dur"] >= 0 for e in events)


# ----------------------------------------------------------------------
# evaluator integration
# ----------------------------------------------------------------------
class TestEvaluatorObservability:
    @pytest.mark.parametrize("n_chains", [100, 400])
    def test_tracing_costs_spans_per_query_not_per_row(self, n_chains):
        """An enabled tracer records a handful of spans per evaluation
        however many rows flow, a disabled one none, and neither changes an
        answer.  (The time it costs is ``bench.trace_overhead_ratio`` of
        ``bench/run.py``.)"""
        dataset = Dataset.from_graph(chain_graph(n_chains))
        query = parse_query(PREFIX + "SELECT ?a WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?d }")
        expected = MultiSet(SparqlEvaluator(dataset).evaluate(query).rows())
        assert sum(expected.values()) == n_chains
        off, on = Tracer("off", enabled=False), Tracer("on")
        assert MultiSet(SparqlEvaluator(dataset, tracer=off).evaluate(query).rows()) == expected
        assert off.spans == []
        traced = SparqlEvaluator(dataset, tracer=on)
        assert MultiSet(traced.evaluate(query).rows()) == expected
        # plan, lower, execute, evaluate and one summary per operator
        # (Project, the join, three scans); a warm plan cache saves two.
        assert len(on.spans) == 9
        on.clear()
        assert MultiSet(traced.evaluate(query).rows()) == expected
        assert len(on.spans) == 7

    def test_cache_metrics(self):
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
        query = parse_query(_TRIANGLE)
        evaluator.evaluate(query)
        evaluator.evaluate(query)
        metrics = evaluator.metrics()
        assert metrics["sparql_physical_cache_misses_total"] == 1
        assert metrics["sparql_physical_cache_hits_total"] == 1
        assert metrics["sparql_physical_cache_size"] == 1

    def test_phase_spans_and_operator_events(self):
        tracer = Tracer("q")
        evaluator = SparqlEvaluator(
            Dataset.from_graph(EncodedGraph(_TRIPLES)), tracer=tracer
        )
        evaluator.evaluate(parse_query(_TRIANGLE))
        names = {span.name for span in tracer.spans}
        assert {"plan", "lower", "execute", "evaluate"} <= names
        operator_spans = [
            span for span in tracer.spans if span.category == "operator"
        ]
        assert {span.name for span in operator_spans} >= {"Project", "Scan"}
        execute = next(span for span in tracer.spans if span.name == "execute")
        assert execute.args["rows"] == 3

    def test_cached_plan_stats_reset_per_execution(self):
        # Regression: a physical-cache hit used to keep accumulating the
        # shared OperatorStats across executions.
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
        query = parse_query(_TRIANGLE)
        first = MultiSet(evaluator.evaluate(query).rows())
        plan_one = evaluator.last_physical_plan
        second = MultiSet(evaluator.evaluate(query).rows())
        plan_two = evaluator.last_physical_plan
        assert plan_two is plan_one  # cache hit: same physical plan object
        assert first == second
        assert plan_two.counters()[0]["rows"] == len(list(second.elements()))

    def test_limit_early_exit_counters_are_consistent(self):
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
        query = parse_query(
            PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a } LIMIT 1"
        )
        result = evaluator.evaluate(query)
        assert len(list(result.rows())) == 1
        counters = evaluator.last_physical_plan.counters()
        # The explicit stream close flushes the batched counters: the
        # root reports exactly the rows actually pulled, and no operator
        # reports fewer rows than its consumer received.
        assert counters[0]["operator"] == "Project"
        assert counters[0]["rows"] == 1
        assert all(entry["rows"] >= 0 for entry in counters)

    def test_ask_early_exit_counters_are_consistent(self):
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
        query = parse_query(
            PREFIX + "ASK WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"
        )
        assert evaluator.evaluate(query) is True
        counters = evaluator.last_physical_plan.counters()
        assert counters[0]["rows"] == 1  # stopped after the first witness

    def test_wcoj_fallback_counts_and_traces_without_a_warning(self, caplog):
        tracer = Tracer("f")
        evaluator = SparqlEvaluator(
            Dataset.from_graph(EncodedGraph(_TRIPLES)), tracer=tracer
        )
        # GYO-cyclic but with a variable predicate: structurally barred
        # from the leapfrog operator.
        query = parse_query(
            PREFIX + "SELECT * WHERE { ?a ?p ?b . ?b ?p ?c . ?c ?p ?a }"
        )
        with caplog.at_level(logging.DEBUG):
            evaluator.evaluate(query)
        # A counter, a span annotation, a plan field and a line of explain
        # say it; under write churn (one fresh lowering per store version)
        # a log record per rejection would be noise.
        assert not [record for record in caplog.records if record.levelno >= logging.WARNING]
        assert evaluator.metrics()["sparql_wcoj_fallback_total"] == 1
        assert evaluator.last_physical_plan.wcoj_fallback == "variable predicate"
        execute = next(span for span in tracer.spans if span.name == "execute")
        assert execute.args["wcoj_fallback"] == "variable predicate"
        # A physical-cache hit replays the decision without re-counting.
        evaluator.evaluate(query)
        assert evaluator.metrics()["sparql_wcoj_fallback_total"] == 1

    def test_acyclic_and_disabled_wcoj_stay_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.sparql.physical"):
            evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
            evaluator.evaluate(
                parse_query(PREFIX + "SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b }")
            )
            assert evaluator.metrics()["sparql_wcoj_fallback_total"] == 0
            # Deliberate opt-out is not a fallback either.
            opted_out = SparqlEvaluator(
                Dataset.from_graph(EncodedGraph(_TRIPLES)),
                profile=ExecutionProfile.ID_NATIVE,
            )
            opted_out.evaluate(parse_query(_TRIANGLE))
            assert opted_out.metrics()["sparql_wcoj_fallback_total"] == 0
        assert not [
            record
            for record in caplog.records
            if record.name == "repro.sparql.physical"
        ]


# ----------------------------------------------------------------------
# store / dictionary / datalog counters
# ----------------------------------------------------------------------
class TestStoreMetrics:
    def test_bind_store_metrics_counts_probes_and_dictionary_traffic(self):
        graph = EncodedGraph(_TRIPLES)
        evaluator = SparqlEvaluator(Dataset.from_graph(graph))
        registry = evaluator.metrics_registry
        bind_store_metrics(registry, graph)
        evaluator.evaluate(
            parse_query(PREFIX + "SELECT * WHERE { ?s ex:p ?a . ?s ex:q ?b }")
        )
        snapshot = registry.snapshot()
        assert snapshot["store_index_probes_total"] > 0
        assert snapshot["store_dictionary_decodes_total"] > 0
        # Query constants resolve through the non-interning ``id_for``
        # lookup; encodes tick when new terms are interned on mutation.
        assert snapshot["store_dictionary_encodes_total"] == 0
        graph.add(Triple(EX.fresh1, EX.p, EX.fresh2))
        assert registry.snapshot()["store_dictionary_encodes_total"] > 0

    def test_sorted_run_builds_and_invalidations(self):
        graph = EncodedGraph(_TRIPLES)
        counters = graph.enable_counters()
        evaluator = SparqlEvaluator(Dataset.from_graph(graph))
        triangle = parse_query(_TRIANGLE)
        evaluator.evaluate(triangle)  # leapfrog: builds sorted runs
        assert counters.sorted_run_builds > 0
        assert counters.sorted_run_invalidations == 0
        graph.add(Triple(EX.z1, EX.p, EX.z2))  # bump the version stamp
        evaluator.evaluate(triangle)
        assert counters.sorted_run_invalidations == 1

    def test_counters_are_idempotent_and_match_results(self):
        graph = EncodedGraph(_TRIPLES)
        first = graph.enable_counters()
        assert graph.enable_counters() is first
        baseline = MultiSet(
            SparqlEvaluator(Dataset.from_graph(EncodedGraph(_TRIPLES)))
            .evaluate(parse_query(_TRIANGLE))
            .rows()
        )
        counted = MultiSet(
            SparqlEvaluator(Dataset.from_graph(graph))
            .evaluate(parse_query(_TRIANGLE))
            .rows()
        )
        assert counted == baseline

    def test_datalog_fixpoint_iterations_surface(self):
        graph = Graph(
            [
                Triple(EX.n1, EX.p, EX.n2),
                Triple(EX.n2, EX.p, EX.n3),
                Triple(EX.n3, EX.p, EX.n4),
            ]
        )
        engine = SparqLogEngine(Dataset.from_graph(graph))
        result = engine.query(
            PREFIX + "SELECT ?x WHERE { ex:n1 ex:p+ ?x }"
        )
        assert len(list(result.rows())) == 3
        # The recursive closure needs at least one semi-naive delta round.
        assert engine.last_fixpoint_iterations >= 1


# ----------------------------------------------------------------------
# harness hook
# ----------------------------------------------------------------------
def test_time_call_records_harness_span():
    tracer = Tracer("h")
    result, elapsed = time_call(lambda: 42, tracer=tracer, label="load")
    assert result == 42 and elapsed >= 0.0
    (span,) = tracer.spans
    assert span.name == "load" and span.category == "harness"
    assert span.duration == pytest.approx(elapsed)
