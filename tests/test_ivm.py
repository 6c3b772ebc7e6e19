"""Tests for incremental view maintenance and change capture.

Four layers:

* change-capture units — both store backends notify listeners of exactly
  the effective mutations, through every mutation path (``add``/``remove``,
  bulk loaders, Turtle streaming, snapshots bump the version stamp),
* delta-view units — O(|Δ|) maintenance matches fresh evaluation through
  add/remove churn, multiplicities, DISTINCT support transitions,
  subscriptions and close(),
* loader regressions — a view can never serve stale rows after *any*
  loader touched its graph,
* listener robustness — re-entrant mutation is refused before the store
  is touched, a raising subscriber costs nobody else their delta,
* count tests — what a read, a write and a re-plan cost, as counters,
* hypothesis differentials — random add/remove churn against random
  BGP + FILTER views, and multi-triple ``update()`` batches against
  self-join views: the maintained Z-set equals the re-evaluated multiset,
  in presentation order, at every step.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import create_engine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.ntriples import NTriplesParseError
from repro.rdf.terms import Literal, Triple, Variable, XSD_DOUBLE, XSD_INTEGER
from repro.rdf.turtle import parse_turtle
from repro.sparql.algebra import BGP, Filter, ProjectionItem, SelectQuery, TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, FunctionCall, TermExpr, VariableExpr
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.store import (
    EncodedGraph,
    bulk_load_ntriples,
    bulk_load_turtle,
    load_snapshot,
    save_snapshot,
)
from repro.ivm import ViewRegistry, zset_diff, zset_from_rows, zset_merge
from repro.ivm.views import _row_sort_key
from repro.obs import Tracer

from tests.helpers import EX
from tests.test_join_project import Q4, factors, q4_triples

#: Both stores capture changes; views are maintained on the encoded one.
BACKENDS = [Graph, EncodedGraph]


def tp(subject, predicate, obj):
    return TriplePatternNode(Triple(subject, predicate, obj))


def chain(a, b):
    return Triple(EX[f"n{a}"], EX.p, EX[f"n{b}"])


TWO_HOP = (
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?a ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . FILTER(?a != ?c) }"
)


def fresh_counter(evaluator, query):
    return Counter(tuple(row) for row in evaluator.evaluate(query).rows())


# ----------------------------------------------------------------------
# change capture
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
class TestChangeCapture:
    def test_effective_mutations_notify_after_the_fact(self, backend):
        graph = backend()
        seen = []

        def listener(batch):
            # Post-mutation protocol: the graph already reflects the batch.
            for triple, weight in batch:
                assert (triple in graph) == (weight > 0)
            seen.extend(batch)

        graph.add_change_listener(listener)
        triple = chain(1, 2)
        graph.add(triple)
        graph.add(triple)  # duplicate: not an effective mutation
        graph.remove(triple)
        graph.remove(triple)  # already gone
        assert seen == [(triple, 1), (triple, -1)]

    def test_update_delivers_one_batch_of_the_effective_additions(self, backend):
        graph = backend([chain(1, 2)])
        batches = []
        graph.add_change_listener(lambda batch: batches.append(list(batch)))
        graph.update([chain(1, 2), chain(2, 3), chain(3, 4), chain(2, 3)])
        assert batches == [[(chain(2, 3), 1), (chain(3, 4), 1)]]
        graph.update([chain(1, 2)])  # nothing effective: nothing delivered
        assert len(batches) == 1

    def test_update_delivers_what_it_applied_before_failing(self, backend):
        graph = backend()
        batches = []
        graph.add_change_listener(lambda batch: batches.append(list(batch)))
        with pytest.raises(ValueError):
            graph.update([chain(1, 2), Triple(Variable("x"), EX.p, EX.n1), chain(2, 3)])
        assert batches == [[(chain(1, 2), 1)]]
        graph.add(chain(5, 6))  # and the graph is not left collecting
        assert batches[-1] == [(chain(5, 6), 1)]

    @pytest.mark.parametrize("mutate", ["add", "remove", "update"])
    def test_mutation_from_a_listener_is_refused_untouched(self, backend, mutate):
        graph = backend([chain(1, 2)])
        argument = {
            "add": chain(7, 8),
            "remove": chain(1, 2),
            "update": [chain(7, 8)],
        }[mutate]

        def listener(batch):
            getattr(graph, mutate)(argument)

        graph.add_change_listener(listener)
        with pytest.raises(RuntimeError, match="change listener"):
            graph.add(chain(2, 3))
        # The outer mutation stands, the inner one never reached the store.
        assert set(graph) == {chain(1, 2), chain(2, 3)}
        # The refusal ends with the notification.
        graph.remove_change_listener(listener)
        graph.add(chain(7, 8))
        assert chain(7, 8) in graph

    def test_removed_listener_stops_receiving(self, backend):
        graph = backend()
        seen = []
        listener = seen.append
        graph.add_change_listener(listener)
        graph.add(chain(1, 2))
        graph.remove_change_listener(listener)
        graph.remove_change_listener(listener)  # idempotent
        graph.add(chain(2, 3))
        assert len(seen) == 1


class TestEncodedLoaderCapture:
    @staticmethod
    def _watched(graph):
        """``(graph, batches)``: every batch delivered, with the graph's
        version and size when it arrived."""
        batches = []
        graph.add_change_listener(
            lambda batch: batches.append((list(batch), graph.version, len(graph)))
        )
        return graph, batches

    def test_bulk_load_fresh_notifies_once_after_the_statistics(self):
        graph, batches = self._watched(EncodedGraph())
        bulk_load_ntriples(
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n"
            "<http://ex.org/n2> <http://ex.org/p> <http://ex.org/n3> .\n"
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n",
            graph,
        )
        assert batches == [([(chain(1, 2), 1), (chain(2, 3), 1)], 1, 2)]
        assert graph.predicate_cardinality(EX.p) == 2

    def test_bulk_load_incremental_notifies_once(self):
        graph, batches = self._watched(EncodedGraph([chain(1, 2)]))
        bulk_load_ntriples(
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n"
            "<http://ex.org/n5> <http://ex.org/p> <http://ex.org/n6> .\n"
            "<http://ex.org/n6> <http://ex.org/p> <http://ex.org/n7> .\n",
            graph,
        )
        assert batches == [([(chain(5, 6), 1), (chain(6, 7), 1)], 3, 3)]

    def test_an_aborted_bulk_load_notifies_what_it_inserted_once(self):
        graph, batches = self._watched(EncodedGraph())
        with pytest.raises(NTriplesParseError):
            bulk_load_ntriples(
                "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n"
                "<http://ex.org/n2> <http://ex.org/p> <http://ex.org/n3> .\n"
                "this is not a statement\n",
                graph,
            )
        assert batches == [([(chain(1, 2), 1), (chain(2, 3), 1)], 1, 2)]
        assert graph.predicate_cardinality(EX.p) == 2

    def test_bulk_load_turtle_notifies_once(self):
        graph, batches = self._watched(EncodedGraph())
        bulk_load_turtle("@prefix ex: <http://ex.org/> . ex:n1 ex:p ex:n2 , ex:n3 .", graph)
        assert batches == [([(chain(1, 2), 1), (chain(1, 3), 1)], 2, 2)]

    def test_turtle_streaming_notifies(self):
        graph = EncodedGraph()
        seen = []
        graph.add_change_listener(seen.extend)
        parse_turtle(
            "@prefix ex: <http://ex.org/> . ex:n1 ex:p ex:n2 .", graph=graph
        )
        assert seen == [(chain(1, 2), 1)]

    def test_snapshot_load_bumps_version(self, tmp_path):
        target = tmp_path / "graph.snap"
        save_snapshot(EncodedGraph([chain(1, 2)]), target)
        loaded = load_snapshot(target)
        # A non-empty load is a mutation of the fresh graph: version-keyed
        # consumers (plan caches, views) must see a distinct stamp.
        assert loaded.version > EncodedGraph().version


# ----------------------------------------------------------------------
# delta views
# ----------------------------------------------------------------------
class TestDeltaViews:
    def _engine(self, triples=()):
        return create_engine(EncodedGraph(list(triples)))

    def test_two_hop_churn_matches_reference(self):
        engine = self._engine([chain(1, 2), chain(2, 3)])
        view = engine.materialize(TWO_HOP)
        assert view.maintenance == "delta"
        query = parse_query(TWO_HOP)
        script = [
            ("add", chain(3, 4)),
            ("add", chain(4, 1)),
            ("remove", chain(2, 3)),
            ("add", chain(2, 3)),
            ("remove", chain(1, 2)),
            ("add", chain(5, 5)),  # self loop: killed by the FILTER
            ("remove", chain(4, 1)),
        ]
        for action, triple in script:
            getattr(engine.graph, action)(triple)
            assert Counter(view.rows()) == fresh_counter(engine.evaluator, query)

    def test_bag_multiplicities_maintained(self):
        # SELECT ?a projects away ?b: two outgoing edges → multiplicity 2.
        engine = self._engine([chain(1, 2), chain(1, 3)])
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }"
        )
        assert view.maintenance == "delta"
        assert view.rows() == [(EX.n1,), (EX.n1,)]
        engine.graph.remove(chain(1, 3))
        assert view.rows() == [(EX.n1,)]
        engine.graph.remove(chain(1, 2))
        assert view.rows() == []

    def test_distinct_view_reports_support_transitions(self):
        engine = self._engine([chain(1, 2), chain(1, 3)])
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT DISTINCT ?a WHERE { ?a ex:p ?b }"
        )
        assert view.maintenance == "delta"
        events = []
        view.on_change(events.append)
        engine.graph.add(chain(1, 4))  # multiplicity 2 → 3: no transition
        assert events == []
        engine.graph.remove(chain(1, 2))
        engine.graph.remove(chain(1, 3))
        assert events == []  # still supported by n1 -> n4
        engine.graph.remove(chain(1, 4))
        assert events == [[((EX.n1,), -1)]]
        assert view.rows() == []

    def test_a_view_over_a_cut_distinct_bgp_equals_a_fresh_evaluation(self):
        # The query's own plan is a join-project plan (a Factor); the view
        # differentiates the BGP's patterns and conjuncts as written.
        engine = self._engine(q4_triples())
        view = engine.materialize(Q4)
        assert view.maintenance == "delta"
        query = parse_query(Q4)
        assert Counter(view.rows()) == fresh_counter(engine.evaluator, query)
        assert factors(engine.evaluator.last_physical_plan)
        article, person = EX.a9, EX.p9
        batches = [
            # a new article in journal j0 by a new person and an old one
            (
                [
                    Triple(person, EX.name, Literal("n00a")),
                    Triple(article, EX.type, EX.Article),
                    Triple(article, EX.journal, EX.j0),
                    Triple(article, EX.creator, person),
                    Triple(article, EX.creator, EX.p3),
                ],
                [],
            ),
            # it moves to j1; an old article loses a creator
            ([Triple(article, EX.journal, EX.j1)], [Triple(article, EX.journal, EX.j0)]),
            ([], [Triple(EX.a0_0, EX.creator, EX.p0), Triple(person, EX.name, Literal("n00a"))]),
            # a whole journal's links go
            ([], [Triple(EX[f"a2_{index}"], EX.journal, EX.j2) for index in range(5)]),
        ]
        for adds, removes in batches:
            engine.graph.update(adds)
            for triple in removes:
                engine.graph.remove(triple)
            assert Counter(view.rows()) == fresh_counter(engine.evaluator, query)
            assert factors(engine.evaluator.last_physical_plan)

    def test_on_change_delivers_weighted_rows_and_unsubscribes(self):
        engine = self._engine([chain(1, 2)])
        view = engine.materialize(TWO_HOP)
        events = []
        unsubscribe = view.on_change(events.append)
        engine.graph.add(chain(2, 3))
        assert events == [[((EX.n1, EX.n3), 1)]]
        unsubscribe()
        engine.graph.remove(chain(2, 3))
        assert len(events) == 1

    def test_closed_view_detaches_and_refuses_reads(self):
        engine = self._engine([chain(1, 2)])
        view = engine.materialize(TWO_HOP)
        assert len(engine.graph._delta_listeners) == 1
        view.close()
        assert engine.graph._delta_listeners == []
        engine.graph.add(chain(2, 3))  # must not blow up
        with pytest.raises(RuntimeError):
            view.rows()
        view.close()  # idempotent

    def test_engine_close_closes_views(self):
        engine = self._engine([chain(1, 2)])
        view = engine.materialize(TWO_HOP)
        engine.close()
        assert view.closed
        assert engine.graph._delta_listeners == []
        with pytest.raises(RuntimeError):
            engine.materialize(TWO_HOP)

    def test_a_view_opened_after_the_last_close_listens_again(self):
        engine = self._engine([chain(1, 2)])
        engine.materialize(TWO_HOP).close()
        assert engine.graph._delta_listeners == []
        view = engine.materialize(TWO_HOP)
        assert len(engine.graph._delta_listeners) == 1
        engine.graph.add(chain(2, 3))
        assert view.rows() == [(EX.n1, EX.n3)]


# ----------------------------------------------------------------------
# re-evaluation fallback
# ----------------------------------------------------------------------
class TestReevalFallback:
    def test_path_query_falls_back_and_stays_fresh(self):
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?x WHERE { ex:n1 ex:p+ ?x }"
        )
        assert view.maintenance == "reeval"
        engine.graph.add(chain(3, 4))
        assert view.rows() == [(EX.n2,), (EX.n3,), (EX.n4,)]
        engine.graph.remove(chain(2, 3))
        assert view.rows() == [(EX.n2,)]

    def test_cyclic_bgp_leapfrog_plan_is_maintained_by_deltas(self):
        triangle = (
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a ?b ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"
        )
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(triangle)
        # The planner lowers this cyclic BGP to a multiway join; the
        # delta reads its patterns, not its join operator.
        assert "LeapfrogJoin" in engine.explain(triangle)
        assert view.maintenance == "delta"
        refreshes = engine.metrics()["ivm_view_refreshes_total"]
        engine.graph.add(chain(3, 1))
        assert len(view.rows()) == 3
        engine.graph.remove(chain(1, 2))
        assert view.rows() == []
        assert engine.metrics()["ivm_view_refreshes_total"] == refreshes

    def test_irrelevant_predicate_batches_are_gated(self):
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a ?c WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a } ORDER BY ?a"
        )
        assert view.maintenance == "reeval"
        view.rows()
        before = engine.metrics()
        engine.graph.add(Triple(EX.n1, EX.unrelated, EX.n2))
        after = engine.metrics()
        assert (
            after["ivm_skipped_batches_total"]
            == before["ivm_skipped_batches_total"] + 1
        )
        assert (
            after["ivm_view_refreshes_total"] == before["ivm_view_refreshes_total"]
        )
        # The gate kept the view synchronised: reading does not refresh.
        view.rows()
        assert (
            engine.metrics()["ivm_view_refreshes_total"]
            == before["ivm_view_refreshes_total"]
        )

    def test_unsubscribed_fallback_defers_reevaluation_to_reads(self):
        engine = create_engine(EncodedGraph([chain(1, 2), chain(2, 3)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?x WHERE { ex:n1 ex:p+ ?x }"
        )
        baseline = engine.metrics()["ivm_view_refreshes_total"]
        engine.graph.add(chain(3, 4))
        engine.graph.add(chain(4, 5))
        engine.graph.add(chain(5, 6))
        # No subscriber: the three mutations cost zero re-evaluations ...
        assert engine.metrics()["ivm_view_refreshes_total"] == baseline
        # ... and the next read pays exactly one.
        assert len(view.rows()) == 5
        assert engine.metrics()["ivm_view_refreshes_total"] == baseline + 1

    def test_subscribed_fallback_notifies_on_mutation(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?x WHERE { ex:n1 ex:p+ ?x }"
        )
        events = []
        view.on_change(events.append)
        engine.graph.add(chain(2, 3))
        assert events == [[((EX.n3,), 1)]]

    def test_union_view_stays_fresh(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?s WHERE { { ?s ex:p ?o } UNION { ?o ex:p ?s } }"
        )
        assert view.maintenance == "reeval"
        assert view.rows() == [(EX.n1,), (EX.n2,)]
        engine.graph.add(chain(2, 3))
        assert view.rows() == [(EX.n1,), (EX.n2,), (EX.n2,), (EX.n3,)]


# ----------------------------------------------------------------------
# unsupported shapes
# ----------------------------------------------------------------------
class TestMaterializeValidation:
    def test_ask_queries_are_rejected(self):
        engine = create_engine(EncodedGraph())
        with pytest.raises(ValueError):
            engine.materialize("ASK { ?s ?p ?o }")

    def test_from_clauses_are_rejected(self):
        engine = create_engine(EncodedGraph())
        with pytest.raises(ValueError):
            engine.materialize(
                "SELECT ?s FROM <http://ex.org/g> WHERE { ?s ?p ?o }"
            )

    def test_graph_patterns_are_rejected(self):
        engine = create_engine(EncodedGraph())
        with pytest.raises(ValueError):
            engine.materialize(
                "SELECT ?s WHERE { GRAPH <http://ex.org/g> { ?s ?p ?o } }"
            )


# ----------------------------------------------------------------------
# loader regressions: a stale view is impossible
# ----------------------------------------------------------------------
class TestLoaderFreshness:
    QUERY = "PREFIX ex: <http://ex.org/>\nSELECT ?a ?b WHERE { ?a ex:p ?b }"

    def _view(self, graph):
        engine = create_engine(graph)
        return engine, engine.materialize(self.QUERY)

    def test_fresh_bulk_load_cannot_leave_a_stale_view(self):
        graph = EncodedGraph()
        engine, view = self._view(graph)
        assert view.rows() == []
        bulk_load_ntriples(
            "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .", graph
        )
        assert view.rows() == [(EX.n1, EX.n2)]

    def test_incremental_bulk_load_cannot_leave_a_stale_view(self):
        graph = EncodedGraph([chain(1, 2)])
        engine, view = self._view(graph)
        assert view.rows() == [(EX.n1, EX.n2)]
        bulk_load_ntriples(
            "<http://ex.org/n2> <http://ex.org/p> <http://ex.org/n3> .", graph
        )
        assert view.rows() == [(EX.n1, EX.n2), (EX.n2, EX.n3)]

    def test_turtle_streaming_cannot_leave_a_stale_view(self):
        graph = EncodedGraph()
        engine, view = self._view(graph)
        assert view.rows() == []
        parse_turtle(
            "@prefix ex: <http://ex.org/> . ex:n1 ex:p ex:n2 .", graph=graph
        )
        assert view.rows() == [(EX.n1, EX.n2)]

    @pytest.mark.parametrize("load", ["ntriples", "turtle"])
    def test_a_load_reaches_the_views_as_one_batch_and_one_refresh(self, load):
        graph = EncodedGraph([chain(1, 2)])
        engine = create_engine(graph)
        delta = engine.materialize(TWO_HOP)
        path = engine.materialize("PREFIX ex: <http://ex.org/>\nSELECT ?b WHERE { ex:n1 ex:p+ ?b }")
        assert (delta.maintenance, path.maintenance) == ("delta", "reeval")
        path.on_change(lambda events: None)  # re-evaluated per batch, not per read
        before = engine.metrics()
        edges = [(2, 3), (3, 4), (4, 5)]
        if load == "ntriples":
            bulk_load_ntriples(
                "".join(f"<http://ex.org/n{s}> <http://ex.org/p> <http://ex.org/n{o}> .\n"
                        for s, o in edges),
                graph,
            )
        else:
            bulk_load_turtle(
                "@prefix ex: <http://ex.org/> . "
                + " ".join(f"ex:n{s} ex:p ex:n{o} ." for s, o in edges),
                graph,
            )
        for view in (delta, path):
            assert Counter(view.rows()) == fresh_counter(engine.evaluator, view.query)
        after = engine.metrics()
        assert after["ivm_delta_batches_total"] - before["ivm_delta_batches_total"] == 1
        assert after["ivm_view_refreshes_total"] - before["ivm_view_refreshes_total"] == 1
        assert delta.delta_stats.changes == 3 and len(path.rows()) == 4

    def test_hash_update_loop_cannot_leave_a_stale_view(self):
        # The unplanned evaluation re-evaluates views over the hash store.
        graph = Graph()
        view = create_engine(graph, ExecutionProfile.NAIVE).materialize(self.QUERY)
        graph.update([chain(1, 2), chain(2, 3)])
        assert view.rows() == [(EX.n1, EX.n2), (EX.n2, EX.n3)]

    def test_snapshot_roundtrip_is_version_distinct(self, tmp_path):
        target = tmp_path / "graph.snap"
        save_snapshot(EncodedGraph([chain(1, 2)]), target)
        loaded = load_snapshot(target)
        engine, view = self._view(loaded)
        assert view.rows() == [(EX.n1, EX.n2)]
        # The load bumped the version, so evaluator plan caches keyed by
        # (graph id, version) can never alias a dead pre-load stamp.
        assert loaded.version > 0
        loaded.add(chain(2, 3))
        assert view.rows() == [(EX.n1, EX.n2), (EX.n2, EX.n3)]


# ----------------------------------------------------------------------
# registry bookkeeping
# ----------------------------------------------------------------------
class TestRegistry:
    def test_one_listener_per_graph_and_detach_on_last_close(self):
        graph = EncodedGraph([chain(1, 2)])
        registry = ViewRegistry(SparqlEvaluator(Dataset.from_graph(graph)))
        query = "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }"
        first = registry.materialize(query)
        second = registry.materialize(query)
        assert len(graph._delta_listeners) == 1
        first.close()
        assert len(graph._delta_listeners) == 1
        second.close()
        assert graph._delta_listeners == []

    def test_metrics_registered(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?a WHERE { ?a ex:p ?b }"
        )
        engine.graph.add(chain(2, 3))
        snapshot = engine.metrics()
        assert snapshot["ivm_views_active"] == 1
        assert snapshot["ivm_delta_batches_total"] == 1
        assert snapshot["ivm_delta_rows_total"] == 1
        view.close()
        assert engine.metrics()["ivm_views_active"] == 0


# ----------------------------------------------------------------------
# listener robustness
# ----------------------------------------------------------------------
PLAIN_TWO_HOP = (
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?a ?c WHERE { ?a ex:p ?b . ?b ex:p ?c }"
)
EDGES = "PREFIX ex: <http://ex.org/>\nSELECT ?a ?b WHERE { ?a ex:p ?b }"


class TestSubscriberRobustness:
    def test_reentrant_mutation_cannot_double_count(self):
        engine = create_engine(EncodedGraph())
        graph = engine.graph
        # Notified first: its subscriber adds (y p z) while (x p y) is
        # being delivered.  Unchecked, the join view below is handed
        # (y p z) against a store holding both edges, and then (x p y)
        # against the same store: (x, z) twice.
        edges = engine.materialize(EDGES)
        two_hop = engine.materialize(PLAIN_TWO_HOP)
        edges.on_change(lambda events: graph.add(chain(2, 3)))
        with pytest.raises(RuntimeError, match="change listener"):
            graph.add(chain(1, 2))
        assert chain(2, 3) not in graph
        edges.close()
        graph.add(chain(2, 3))
        assert two_hop.rows() == [(EX.n1, EX.n3)]
        assert Counter(two_hop.rows()) == fresh_counter(
            engine.evaluator, parse_query(PLAIN_TWO_HOP)
        )

    def test_closing_and_subscribing_inside_a_callback_stay_legal(self):
        engine = create_engine(EncodedGraph())
        view = engine.materialize(EDGES)
        other = engine.materialize(EDGES)
        late = []

        def first(events):
            other.close()
            view.on_change(late.append)

        view.on_change(first)
        engine.graph.add(chain(1, 2))
        assert other.closed
        assert late == []  # subscribed during the delivery: from the next one on
        engine.graph.add(chain(2, 3))
        assert late == [[((EX.n2, EX.n3), 1)]]
        assert view.rows() == [(EX.n1, EX.n2), (EX.n2, EX.n3)]

    def test_raising_subscriber_costs_nobody_else_their_delta(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        first = engine.materialize(EDGES)
        second = engine.materialize(TWO_HOP)
        seen_by_sibling, seen_by_second = [], []

        def broken(events):
            raise ValueError("subscriber bug")

        first.on_change(broken)
        first.on_change(seen_by_sibling.append)
        second.on_change(seen_by_second.append)
        refreshes = engine.metrics()["ivm_view_refreshes_total"]
        with pytest.raises(ValueError, match="subscriber bug"):
            engine.graph.add(chain(2, 3))
        # The store keeps the mutation; everybody was served in that call.
        assert chain(2, 3) in engine.graph
        assert seen_by_sibling == [[((EX.n2, EX.n3), 1)]]
        assert seen_by_second == [[((EX.n1, EX.n3), 1)]]
        for view in (first, second):
            assert Counter(view.rows()) == fresh_counter(engine.evaluator, view.query)
        # ... by their deltas, not by a self-healing refresh on the read.
        assert engine.metrics()["ivm_view_refreshes_total"] == refreshes


# ----------------------------------------------------------------------
# what a read, a write and a re-plan cost (counts, no wall clock)
# ----------------------------------------------------------------------
class TestMaintenanceCounts:
    def test_a_write_keys_what_it_changed_and_a_read_nothing(self):
        # A 30 x 30 bipartite two-hop through one hub: 900 rows.
        size = 30
        triples = [Triple(EX[f"a{i}"], EX.p, EX.hub) for i in range(size)]
        triples += [Triple(EX.hub, EX.p, EX[f"c{i}"]) for i in range(size)]
        engine = create_engine(EncodedGraph(triples))
        view = engine.materialize(PLAIN_TWO_HOP)
        rows = len(view)
        assert rows == size * size

        def keyed():
            return engine.metrics()["ivm_view_sort_keys_total"]

        before = keyed()
        assert len(view.rows()) == rows
        assert len(view.rows(distinct=True)) == rows
        assert keyed() == before
        edge = Triple(EX.extra, EX.p, EX.hub)
        for mutate in (engine.graph.add, engine.graph.remove):
            before = keyed()
            mutate(edge)
            changed = size  # (extra, c_i) for every c_i
            assert 0 < keyed() - before <= changed * (math.log2(rows + changed) + 2)
            keys = [_row_sort_key(row) for row in view.rows()]
            assert keys == sorted(keys)
        assert len(view) == rows

    def test_a_delta_larger_than_the_order_pays_for_sorts_once(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(EDGES)
        before = engine.metrics()["ivm_view_sort_keys_total"]
        engine.graph.update([chain(9 - i, 10 - i) for i in range(6)])
        assert engine.metrics()["ivm_view_sort_keys_total"] - before == 7
        keys = [_row_sort_key(row) for row in view.rows()]
        assert keys == sorted(keys) and len(keys) == 7

    def test_rows_that_do_not_order_can_come_and_go(self):
        # NaN is neither below nor above any number, so once it is in the
        # order a bisect may look for a row on the wrong side of it: after
        # 4, NaN, 5, 2 the order is [4, NaN, 2, 5] and the search for 4
        # lands behind it.
        def value(lexical):
            return Triple(EX[f"s{lexical}"], EX.p, Literal(lexical, XSD_DOUBLE))

        engine = create_engine(EncodedGraph())
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?v WHERE { ?s ex:p ?v }"
        )
        script = [
            ("add", "4"),
            ("add", "NaN"),
            ("add", "5"),
            ("add", "2"),
            ("remove", "4"),
            ("remove", "NaN"),
            ("add", "3"),
            ("remove", "5"),
        ]
        for action, lexical in script:
            getattr(engine.graph, action)(value(lexical))
            assert Counter(view.rows()) == fresh_counter(engine.evaluator, view.query)
        assert view.rows() == [(Literal("2", XSD_DOUBLE),), (Literal("3", XSD_DOUBLE),)]

    def test_an_adhoc_query_under_churn_is_planned_once_until_the_band_is_crossed(self):
        engine = create_engine(EncodedGraph([chain(i, i + 1) for i in range(1, 21)]))
        graph = engine.graph
        pool = [chain(i, i + 2) for i in range(1, 7)]
        query = parse_query(TWO_HOP)
        for batch in range(40):
            # Toggle three edges of the pool: 20 to 26 ex:p triples, in band.
            toggled = [pool[(batch + k) % len(pool)] for k in (0, 1, 3)]
            removes = [triple for triple in toggled if triple in graph]
            graph.update([triple for triple in toggled if triple not in graph])
            for triple in removes:
                graph.remove(triple)
            rows = Counter(tuple(row) for row in engine.query(TWO_HOP).rows())
            assert rows == fresh_counter(SparqlEvaluator(Dataset.from_graph(graph)), query)
        metrics = engine.metrics()
        assert metrics["sparql_physical_cache_misses_total"] == 1
        assert metrics["sparql_physical_cache_hits_total"] == 39
        assert metrics["sparql_physical_cache_revalidations_total"] == 39
        assert len(engine.evaluator.lowered_plans) == 1
        assert metrics["sparql_plan_cache_evictions_total"] == 0
        # Past twice the count the plan was made on: one re-plan, in the same slot.
        graph.update([chain(100 + i, 101 + i) for i in range(2 * len(graph))])
        engine.query(TWO_HOP)
        engine.query(TWO_HOP)
        metrics = engine.metrics()
        assert metrics["sparql_physical_cache_misses_total"] == 2
        assert metrics["sparql_physical_cache_revalidations_total"] == 39
        assert len(engine.evaluator.lowered_plans) == 1

    def test_constant_interned_after_the_view_starts_matching(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\nSELECT ?s WHERE { ?s ex:p ex:late }"
        )
        assert view.maintenance == "delta"
        assert engine.graph.dictionary.id_for(EX.late) is None
        refreshes = engine.metrics()["ivm_view_refreshes_total"]
        engine.graph.add(chain(1, 3))
        assert view.rows() == []
        engine.graph.add(Triple(EX.n1, EX.p, EX.late))
        assert view.rows() == [(EX.n1,)]
        engine.graph.remove(Triple(EX.n1, EX.p, EX.late))
        assert view.rows() == []
        assert engine.metrics()["ivm_view_refreshes_total"] == refreshes

    def test_delta_stats_of_a_fixed_churn_script(self):
        engine = create_engine(EncodedGraph([chain(i, i + 1) for i in range(1, 9)]))
        view = engine.materialize(TWO_HOP)
        graph = engine.graph
        for step in range(30):
            triple = chain(1 + (step * 3) % 8, 1 + (step * 5 + 2) % 8)
            if triple in graph:
                graph.remove(triple)
            else:
                graph.add(triple)
        stats = view.delta_stats
        # The counts of the term-keyed join this one replaced, unchanged.
        assert (stats.batches, stats.changes, stats.seed_matches, stats.rows) == (
            30,
            30,
            60,
            56,
        )
        assert len(view.rows()) == 11

    def test_update_is_one_batch_to_the_views(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(TWO_HOP)
        engine.graph.update([chain(2, 3), chain(3, 4), chain(4, 5)])
        assert engine.metrics()["ivm_delta_batches_total"] == 1
        assert (view.delta_stats.batches, view.delta_stats.changes) == (1, 3)
        assert view.rows() == [(EX.n1, EX.n3), (EX.n2, EX.n4), (EX.n3, EX.n5)]


@pytest.mark.parametrize("nodes", [2_500, 5_000, 10_000])
def test_maintenance_costs_the_change_not_the_graph(nodes):
    """Every node has out-degree 2; 200 edges are removed one by one and
    added back.  A change seeds both patterns of the two-hop view and probes
    the other one once — the same work on a graph two and four times the
    size, where re-evaluation joins all of it."""
    edges = [
        Triple(EX[f"n{i}"], EX.p, EX[f"n{(i * stride + shift) % nodes}"])
        for i in range(nodes)
        for stride, shift in ((7, 1), (13, 5))
    ]
    engine = create_engine(EncodedGraph(edges))
    view = engine.materialize(TWO_HOP)
    assert view.maintenance == "delta"
    graph = engine.graph
    counters = graph.enable_counters()
    for mutate in (graph.remove, graph.add):
        for triple in edges[:200]:
            mutate(triple)
    stats = view.delta_stats
    assert (stats.batches, stats.changes, stats.seed_matches, stats.rows) == (400, 400, 800, 1_508)
    assert counters.index_probes == 800
    assert Counter(view.rows()) == fresh_counter(engine.evaluator, view.query)


# ----------------------------------------------------------------------
# explain
# ----------------------------------------------------------------------
_BENCH_PREFIX = "PREFIX bench: <http://localhost/vocabulary/bench/>\n"


class TestExplain:
    def test_delta_view_golden(self):
        # The benchmark's two_hop shape.
        engine = create_engine(EncodedGraph())
        view = engine.materialize(
            _BENCH_PREFIX
            + "SELECT ?a ?c WHERE { ?a bench:cites ?b . ?b bench:cites ?c . FILTER(?a != ?c) }"
        )
        cites = "<http://localhost/vocabulary/bench/cites>"
        assert view.explain() == (
            "MaterializedView maintenance=delta\n"
            f"  seed #0 (?a {cites} ?b)\n"
            f"    probe #1 (?b {cites} ?c) state=old; Filter (?a != ?c) kernel=id\n"
            f"  seed #1 (?b {cites} ?c)\n"
            f"    probe #0 (?a {cites} ?b) state=new; Filter (?a != ?c) kernel=id"
        )

    def test_conjuncts_anchor_where_their_variables_are_bound(self):
        # The planner's rule (plan.attach_conditions) per seed: at the seed,
        # at the probe completing a conjunct's variables, and one whose
        # variable no pattern binds (?z) at the last probe.
        engine = create_engine(EncodedGraph())
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c ex:r ?d "
            "FILTER(?a != ?b && ?a != ?c && ?d != ex:x && ?a != ?d && ?z != ex:x) }"
        )
        p, q, r = (f"<http://ex.org/{name}>" for name in "pqr")
        x = "<http://ex.org/x>"
        last = f"Filter (?a != ?d) kernel=id; Filter (?z != {x}) kernel=id"
        assert view.explain() == (
            "MaterializedView maintenance=delta\n"
            f"  seed #0 (?a {p} ?b); Filter (?a != ?b) kernel=id\n"
            f"    probe #1 (?b {q} ?c) state=old; Filter (?a != ?c) kernel=id\n"
            f"    probe #2 (?c {r} ?d) state=old; Filter (?d != {x}) kernel=id; {last}\n"
            f"  seed #1 (?b {q} ?c)\n"
            f"    probe #0 (?a {p} ?b) state=new; Filter (?a != ?b) kernel=id; "
            "Filter (?a != ?c) kernel=id\n"
            f"    probe #2 (?c {r} ?d) state=old; Filter (?d != {x}) kernel=id; {last}\n"
            f"  seed #2 (?c {r} ?d); Filter (?d != {x}) kernel=id\n"
            f"    probe #1 (?b {q} ?c) state=new\n"
            f"    probe #0 (?a {p} ?b) state=new; Filter (?a != ?b) kernel=id; "
            f"Filter (?a != ?c) kernel=id; {last}"
        )

    def test_term_kernels_are_named(self):
        engine = create_engine(EncodedGraph())
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            'SELECT ?a WHERE { ?a ex:p ?b FILTER(regex(str(?b), "x")) }'
        )
        assert view.explain() == (
            "MaterializedView maintenance=delta\n"
            '  seed #0 (?a <http://ex.org/p> ?b); Filter REGEX(STR(?b), "x") kernel=term'
        )

    def test_reevaluated_view_golden(self):
        # The benchmark's path shape.
        engine = create_engine(EncodedGraph())
        view = engine.materialize(
            _BENCH_PREFIX
            + "SELECT ?b WHERE { <http://localhost/articles/Article7> bench:cites+ ?b }"
        )
        assert view.explain() == (
            "MaterializedView maintenance=reeval\n"
            "  reason: the pattern is not a FILTER-wrapped BGP of triple patterns\n"
            "  re-evaluated after: every batch"
        )

    def test_reevaluated_view_names_its_plan_and_gate(self):
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a ?b ?c WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c ex:p ?a } ORDER BY ?a"
        )
        assert view.explain() == (
            "MaterializedView maintenance=reeval\n"
            "  reason: solution modifiers, aggregates or select expressions\n"
            "  re-evaluated after: batches touching <http://ex.org/p>, <http://ex.org/q>"
        )

    def test_cyclic_view_golden(self):
        # The query runs as a LeapfrogJoin; its delta has the seeds and probes
        # of any other join, positions in the order the patterns are written.
        engine = create_engine(EncodedGraph([chain(1, 2)]))
        view = engine.materialize(
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a ?b ?c WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c ex:p ?a }"
        )
        assert view.explain() == (
            "MaterializedView maintenance=delta\n"
            "  seed #0 (?a <http://ex.org/p> ?b)\n"
            "    probe #1 (?b <http://ex.org/q> ?c) state=old\n"
            "    probe #2 (?c <http://ex.org/p> ?a) state=old\n"
            "  seed #1 (?b <http://ex.org/q> ?c)\n"
            "    probe #0 (?a <http://ex.org/p> ?b) state=new\n"
            "    probe #2 (?c <http://ex.org/p> ?a) state=old\n"
            "  seed #2 (?c <http://ex.org/p> ?a)\n"
            "    probe #0 (?a <http://ex.org/p> ?b) state=new\n"
            "    probe #1 (?b <http://ex.org/q> ?c) state=new"
        )

    def test_apply_span_reports_seed_matches(self):
        tracer = Tracer("ivm")
        engine = create_engine(EncodedGraph([chain(1, 2)]), tracer=tracer)
        engine.materialize(TWO_HOP)
        tracer.clear()
        engine.graph.add(chain(2, 3))
        (span,) = [span for span in tracer.spans if span.name == "ivm.apply"]
        assert span.args["changes"] == 1
        assert span.args["rows"] == 1
        assert span.args["seed_matches"] == 2


# ----------------------------------------------------------------------
# z-set primitives
# ----------------------------------------------------------------------
class TestZSets:
    def test_merge_drops_zeroed_entries(self):
        target = {"a": 1, "b": 2}
        zset_merge(target, {"a": -1, "b": 1, "c": -3})
        assert target == {"b": 3, "c": -3}

    def test_diff_roundtrips(self):
        old = zset_from_rows(["a", "a", "b"])
        new = zset_from_rows(["a", "c"])
        delta = zset_diff(new, old)
        assert delta == {"a": -1, "b": -1, "c": 1}
        zset_merge(old, delta)
        assert old == new


# ----------------------------------------------------------------------
# hypothesis differential: random churn vs random views
# ----------------------------------------------------------------------
_NODES = [EX[f"n{i}"] for i in range(5)]
_PREDICATES = [EX.p, EX.q]
_LITERALS = [Literal("1", XSD_INTEGER), Literal("2", XSD_INTEGER)]
_VARIABLES = [Variable(name) for name in ("x", "y", "z")]

_edge = st.tuples(
    st.sampled_from(_NODES),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_NODES + _LITERALS),
)
_pattern = st.tuples(
    st.sampled_from(_VARIABLES + _NODES[:2]),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_VARIABLES + _NODES[:2] + _LITERALS),
)
_operand = st.sampled_from(
    [VariableExpr(variable) for variable in _VARIABLES]
    + [TermExpr(term) for term in _NODES[:2] + _LITERALS]
)
_condition = st.one_of(
    st.builds(Comparison, st.sampled_from(["=", "!=", "<"]), _operand, _operand),
    st.builds(
        lambda left, right: FunctionCall("SAMETERM", (left, right)),
        _operand,
        _operand,
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    initial=st.lists(_edge, min_size=0, max_size=12),
    churn=st.lists(_edge, min_size=1, max_size=15),
    bgp=st.lists(_pattern, min_size=1, max_size=3),
    filter_conditions=st.lists(_condition, min_size=0, max_size=2),
    distinct=st.booleans(),
)
def test_differential_random_churn(initial, churn, bgp, filter_conditions, distinct):
    """Maintained views equal re-evaluation after every add/remove."""
    pattern_node = BGP(tuple(tp(*parts) for parts in bgp))
    for condition in filter_conditions:
        pattern_node = Filter(pattern_node, condition)
    variables = sorted(pattern_node.variables(), key=lambda v: v.name)
    query = SelectQuery(
        projection=tuple(ProjectionItem(variable) for variable in variables),
        pattern=pattern_node,
        distinct=distinct,
    )
    engine = create_engine(EncodedGraph(Triple(*edge) for edge in initial))
    view = engine.materialize(query)
    reference = SparqlEvaluator(engine.dataset)
    for edge in churn:
        triple = Triple(*edge)
        # Alternate adds and removes through membership: present → remove.
        if triple in engine.graph:
            engine.graph.remove(triple)
        else:
            engine.graph.add(triple)
        expected = Counter(tuple(row) for row in reference.evaluate(query).rows())
        rows = view.rows()
        assert Counter(rows) == expected
        keys = [_row_sort_key(row) for row in rows]
        assert keys == sorted(keys)
    engine.close()


_SELF_JOINS = [
    # A triple can match both patterns, and a loop matches them at once.
    (tp(_VARIABLES[0], EX.p, _VARIABLES[1]), tp(_VARIABLES[1], EX.p, _VARIABLES[2])),
    (tp(_VARIABLES[0], EX.p, _VARIABLES[1]), tp(_VARIABLES[1], EX.p, _VARIABLES[0])),
    (tp(_VARIABLES[0], EX.p, _VARIABLES[0]), tp(_VARIABLES[0], EX.p, _VARIABLES[1])),
    (
        tp(_VARIABLES[0], EX.p, _VARIABLES[1]),
        tp(_VARIABLES[1], EX.p, _VARIABLES[2]),
        tp(_VARIABLES[2], EX.q, _NODES[0]),
    ),
    (tp(_VARIABLES[0], _VARIABLES[1], _VARIABLES[2]), tp(_VARIABLES[2], EX.p, _VARIABLES[0])),
    # Cyclic: a LeapfrogJoin plan.
    (
        tp(_VARIABLES[0], EX.p, _VARIABLES[1]),
        tp(_VARIABLES[1], EX.p, _VARIABLES[2]),
        tp(_VARIABLES[2], EX.p, _VARIABLES[0]),
    ),
]
_small_edge = st.tuples(
    st.sampled_from(_NODES[:4]), st.sampled_from(_PREDICATES), st.sampled_from(_NODES[:4])
)


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(_small_edge, min_size=0, max_size=8),
    batches=st.lists(st.lists(_small_edge, min_size=1, max_size=6), min_size=1, max_size=6),
    shape=st.integers(min_value=0, max_value=len(_SELF_JOINS) - 1),
    filtered=st.booleans(),
    distinct=st.booleans(),
)
def test_differential_update_batches_over_self_joins(initial, batches, shape, filtered, distinct):
    """Multi-change batches: every change joins its own virtual old and new
    state, so edges of one ``update()`` must see each other exactly once."""
    pattern_node = BGP(_SELF_JOINS[shape])
    if filtered:
        pattern_node = Filter(
            pattern_node,
            Comparison("!=", VariableExpr(_VARIABLES[0]), VariableExpr(_VARIABLES[1])),
        )
    variables = sorted(pattern_node.variables(), key=lambda v: v.name)
    query = SelectQuery(
        projection=tuple(ProjectionItem(variable) for variable in variables),
        pattern=pattern_node,
        distinct=distinct,
    )
    engine = create_engine(EncodedGraph(Triple(*edge) for edge in initial))
    view = engine.materialize(query)
    assert view.maintenance == "delta"
    reference = SparqlEvaluator(engine.dataset)
    refreshes = engine.metrics()["ivm_view_refreshes_total"]
    for batch in batches:
        engine.graph.update(Triple(*edge) for edge in batch)
        # ... and take the first edge out again, so both signs occur.
        engine.graph.remove(Triple(*batch[0]))
        expected = Counter(tuple(row) for row in reference.evaluate(query).rows())
        rows = view.rows()
        assert Counter(rows) == expected
        keys = [_row_sort_key(row) for row in rows]
        assert keys == sorted(keys)
    assert engine.metrics()["ivm_view_refreshes_total"] == refreshes
    engine.close()
