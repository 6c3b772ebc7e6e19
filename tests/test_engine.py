"""Tests for the engine facade, execution profiles and ``open_graph``.

Covers the API-redesign surface:

* :class:`~repro.sparql.profile.ExecutionProfile` presets as the one
  configuration surface of the evaluator,
* :func:`repro.open_graph` — one entry point over files and
  snapshot warm starts,
* :func:`repro.create_engine` / :class:`~repro.engine.Engine` — query,
  explain, metrics, live views and lifecycle.
"""

from collections import Counter

import pytest

from repro import (
    Engine,
    ExecutionProfile,
    create_engine,
    open_graph,
)
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Triple
from repro.sparql import evaluator as evaluator_module
from repro.sparql.evaltree import prepare_query
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.parser import parse_query
from repro.sparql.plancache import BoundedMap
from repro.store import EncodedGraph

from tests.helpers import EX


NT = (
    "<http://ex.org/n1> <http://ex.org/p> <http://ex.org/n2> .\n"
    "<http://ex.org/n2> <http://ex.org/p> <http://ex.org/n3> .\n"
)
TTL = "@prefix ex: <http://ex.org/> . ex:n1 ex:p ex:n2 , ex:n3 ."
QUERY = "PREFIX ex: <http://ex.org/>\nSELECT ?a ?b WHERE { ?a ex:p ?b }"


def triples():
    return [
        Triple(EX.n1, EX.p, EX.n2),
        Triple(EX.n2, EX.p, EX.n3),
    ]


# ----------------------------------------------------------------------
# execution profiles
# ----------------------------------------------------------------------
class TestExecutionProfile:
    def test_presets(self):
        full, naive = ExecutionProfile.FULL, ExecutionProfile.NAIVE
        assert full.use_planner and not naive.use_planner
        assert full == ExecutionProfile()
        assert (str(full), str(naive)) == ("full", "naive")

    def test_evaluator_accepts_profile(self):
        dataset = Dataset.from_graph(EncodedGraph(triples()))
        evaluator = SparqlEvaluator(dataset, profile=ExecutionProfile.NAIVE)
        assert evaluator.profile is ExecutionProfile.NAIVE
        assert len(list(evaluator.evaluate(parse_query(QUERY)).rows())) == 2

    def test_default_profile_is_full(self):
        evaluator = SparqlEvaluator(Dataset())
        assert evaluator.profile is ExecutionProfile.FULL


class TestSingleConfigurationSurface:
    def test_boolean_kwargs_are_gone(self):
        # The per-knob constructor kwargs were removed, not deprecated:
        # an ExecutionProfile is the only way to configure an evaluator.
        with pytest.raises(TypeError):
            SparqlEvaluator(Dataset(), use_planner=False)


# ----------------------------------------------------------------------
# open_graph
# ----------------------------------------------------------------------
class TestOpenGraph:
    def test_empty_default_backend_is_the_encoded_store(self):
        graph = open_graph()
        assert isinstance(graph, EncodedGraph)
        assert len(graph) == 0

    def test_load_ntriples_by_extension(self, tmp_path):
        source = tmp_path / "data.nt"
        source.write_text(NT)
        graph = open_graph(source)
        assert set(graph.triples()) == set(triples())

    def test_load_turtle_by_extension(self, tmp_path):
        source = tmp_path / "data.ttl"
        source.write_text(TTL)
        graph = open_graph(source)
        assert len(graph) == 2

    def test_format_override_beats_extension(self, tmp_path):
        source = tmp_path / "data.rdf"
        source.write_text(NT)
        graph = open_graph(source, format="ntriples")
        assert len(graph) == 2

    def test_unknown_extension_without_format(self, tmp_path):
        source = tmp_path / "data.rdf"
        source.write_text(NT)
        with pytest.raises(ValueError):
            open_graph(source)

    def test_snapshot_warm_start_roundtrip(self, tmp_path):
        source = tmp_path / "data.nt"
        source.write_text(NT)
        snapshot = tmp_path / "data.snap"
        cold = open_graph(source, snapshot=snapshot)
        assert isinstance(cold, EncodedGraph)
        assert snapshot.exists()
        # Second open must come from the snapshot, not the source file.
        source.write_text("")
        warm = open_graph(source, snapshot=snapshot)
        assert set(warm.triples()) == set(triples())

    def test_snapshot_only_persists_empty_graph(self, tmp_path):
        snapshot = tmp_path / "empty.snap"
        first = open_graph(snapshot=snapshot)
        assert isinstance(first, EncodedGraph)
        assert len(first) == 0
        assert snapshot.exists()


# ----------------------------------------------------------------------
# engine facade
# ----------------------------------------------------------------------
class TestCreateEngine:
    def test_over_hash_graph(self):
        engine = create_engine(Graph(triples()))
        assert isinstance(engine, Engine)
        assert isinstance(engine.graph, Graph)

    def test_over_encoded_graph(self):
        engine = create_engine(EncodedGraph(triples()))
        assert isinstance(engine.graph, EncodedGraph)

    def test_over_dataset(self):
        dataset = Dataset.from_graph(Graph(triples()))
        engine = create_engine(dataset)
        assert engine.dataset is dataset

    def test_over_nothing(self):
        engine = create_engine()
        assert isinstance(engine.graph, EncodedGraph) and len(engine.graph) == 0

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            create_engine(42)

    def test_profile_is_threaded_through(self):
        engine = create_engine(EncodedGraph(), profile=ExecutionProfile.NAIVE)
        assert engine.profile is ExecutionProfile.NAIVE


class TestEngine:
    def test_query_parses_strings(self):
        engine = create_engine(EncodedGraph(triples()))
        rows = list(engine.query(QUERY).rows())
        assert len(rows) == 2

    def test_query_accepts_parsed_queries(self):
        engine = create_engine(EncodedGraph(triples()))
        assert len(list(engine.query(parse_query(QUERY)).rows())) == 2

    def test_ask_query_returns_bool(self):
        engine = create_engine(EncodedGraph(triples()))
        assert engine.query("ASK { ?s ?p ?o }") is True

    def test_explain_renders_a_plan(self):
        engine = create_engine(EncodedGraph(triples()))
        two_hop = (
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a ?c WHERE { ?a ex:p ?b . ?b ex:p ?c }"
        )
        assert "Scan" in engine.explain(two_hop)

    def test_explain_analyze_reports(self):
        engine = create_engine(EncodedGraph(triples()))
        report = engine.explain_analyze(QUERY)
        assert report.rows

    def test_metrics_exposes_ivm_counters(self):
        engine = create_engine(EncodedGraph(triples()))
        snapshot = engine.metrics()
        assert "ivm_views_active" in snapshot
        assert snapshot["ivm_views_active"] == 0

    def test_context_manager_closes_views(self):
        graph = EncodedGraph(triples())
        with create_engine(graph) as engine:
            view = engine.materialize(QUERY)
            assert len(view) == 2
        assert view.closed
        assert graph._delta_listeners == []

    def test_repr_mentions_profile_and_views(self):
        engine = create_engine(EncodedGraph(triples()))
        engine.materialize(QUERY)
        text = repr(engine)
        assert "full" in text and "views=1" in text

    def test_a_text_is_parsed_once_per_engine(self):
        graph = EncodedGraph(triples())
        engine = create_engine(graph)
        first = engine.query(QUERY)
        for _ in range(4):
            assert list(engine.query(QUERY).rows()) == list(first.rows())
        engine.explain(QUERY)
        engine.explain_analyze(QUERY)
        engine.materialize(QUERY)
        metrics = engine.metrics()
        assert metrics["sparql_parse_cache_misses_total"] == 1
        assert metrics["sparql_parse_cache_hits_total"] == 7
        # A write does not touch what a text means; another engine parses for itself.
        graph.add(Triple(EX.n3, EX.p, EX.n4))
        assert len(engine.query(QUERY)) == 3
        assert engine.metrics()["sparql_parse_cache_misses_total"] == 1
        other = create_engine(graph)
        other.query(QUERY)
        assert other.metrics()["sparql_parse_cache_misses_total"] == 1
        with pytest.raises(Exception):
            engine.query("SELECT WHERE")
        assert engine.metrics()["sparql_parse_cache_evictions_total"] == 0


    def test_a_text_is_prepared_once_per_engine(self, monkeypatch):
        calls = []

        def counting(query, profile):
            calls.append(query)
            return prepare_query(query, profile)

        monkeypatch.setattr(evaluator_module, "prepare_query", counting)
        nested = (
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT ?a WHERE { ?a ex:p ?b MINUS { ?b ex:p ?c } FILTER(?a != ?b) }"
        )
        graph = EncodedGraph(triples())
        engine = create_engine(graph)
        for text in (QUERY, nested):
            first = engine.query(text)
            assert len(calls) == 1  # cold: the pass runs once ...
            graph.add(Triple(EX.n9, EX.p, EX.n9))
            graph.remove(Triple(EX.n9, EX.p, EX.n9))
            for _ in range(3):
                assert list(engine.query(text).rows()) == list(first.rows())
            assert len(calls) == 1  # ... and warm, never: not per call, not per write.
            calls.clear()
        engine.explain(QUERY)
        assert calls == []
        # A parsed query is prepared on the spot, every time.
        engine.query(parse_query(QUERY))
        engine.query(parse_query(QUERY))
        assert len(calls) == 2


# ----------------------------------------------------------------------
# one substrate: planned evaluation runs on the encoded store only
# ----------------------------------------------------------------------
class _CountingGraph(Graph):
    """A hash graph that counts the reads of its term surface."""

    reads = 0

    def triples(self, subject=None, predicate=None, obj=None):
        self.reads += 1
        return super().triples(subject, predicate, obj)


def _cycle_triples():
    """``triples()`` closed into the cycle n1 -> n2 -> n3 -> n1."""
    return triples() + [Triple(EX.n3, EX.p, EX.n1)]


#: id -> a query reaching one route of the planned engine, over
#: ``_cycle_triples()`` in the default graph and in the named graph ``ex:g``.
_ROUTES = {
    "lone-pattern": "SELECT * WHERE { ?a ex:p ?b }",
    "pipeline": "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c }",
    "filtered-pipeline": "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c FILTER(?a != ex:n1) }",
    "leapfrog": "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }",
    "lone-path": "SELECT ?b WHERE { ex:n1 ex:p+ ?b }",
    "path-in-walk": "SELECT * WHERE { ?a ex:p ex:n2 OPTIONAL { ?a ex:p/ex:p ?c } }",
    "union": "SELECT * WHERE { { ?a ex:p ?b } UNION { ?a ex:p* ?b } }",
    "minus": "SELECT * WHERE { ?a ex:p ?b MINUS { ?b ex:p ex:n1 } }",
    "ask": "ASK { ?a ex:p ?b . ?b ex:p ex:n1 }",
    "aggregate": "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:p+ ?b } GROUP BY ?a",
    "graph-iri": "SELECT * WHERE { GRAPH ex:g { ?a ex:p ?b } }",
    "graph-variable": "SELECT * WHERE { GRAPH ?g { ?a ex:p ?b . ?b ex:p ?c } }",
    "from": "SELECT * FROM ex:g WHERE { ?a ex:p ?b }",
    "from-named": "SELECT * FROM NAMED ex:g WHERE { GRAPH ?g { ?a ex:p+ ?b } }",
}
_every_route = pytest.mark.parametrize("route", sorted(_ROUTES))


def _route(route):
    return "PREFIX ex: <http://ex.org/>\n" + _ROUTES[route]


#: id -> (engine method, query): the entry points besides ``query``.
_ENTRY_POINTS = {
    "explain-pipeline": ("explain", QUERY),
    "explain-path": ("explain", _route("lone-path")),
    "explain_analyze-pipeline": ("explain_analyze", QUERY),
    "explain_analyze-path": ("explain_analyze", _route("lone-path")),
    "materialize-delta": ("materialize", QUERY),
    "materialize-reeval": ("materialize", _route("lone-path")),
}


class TestOneSubstrate:
    @_every_route
    def test_a_planned_query_on_a_hash_default_graph_raises_before_any_work(self, route):
        graph = _CountingGraph(_cycle_triples())
        engine = create_engine(Dataset(graph, {EX.g: EncodedGraph(_cycle_triples())}))
        with pytest.raises(TypeError, match="EncodedGraph.*open_graph"):
            engine.query(_route(route))
        assert graph.reads == 0

    @pytest.mark.parametrize("route", sorted(set(_ROUTES) - {"from"}))
    def test_a_hash_named_graph_is_checked_with_the_default_one(self, route):
        # Before either is read.  (``FROM ex:g`` alone copies the named graph
        # into one of the default graph's store: nothing hash is left.)
        named = _CountingGraph(_cycle_triples())
        engine = create_engine(Dataset(EncodedGraph(_cycle_triples()), {EX.g: named}))
        with pytest.raises(TypeError, match="EncodedGraph.*open_graph"):
            engine.query(_route(route))
        assert named.reads == 0

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_every_entry_point_raises_before_any_work(self, entry):
        method, text = _ENTRY_POINTS[entry]
        graph = _CountingGraph(_cycle_triples())
        engine = create_engine(graph)
        with pytest.raises(TypeError, match="EncodedGraph.*open_graph"):
            getattr(engine, method)(text)
        assert graph.reads == 0
        assert engine.views.views == [] and graph._delta_listeners == []

    @_every_route
    def test_the_unplanned_reference_answers_every_route_on_the_hash_store(self, route):
        # It reads the term surface of any store, and agrees with the
        # planned engine on the encoded one.
        text = _route(route)
        hashed = Dataset(Graph(_cycle_triples()), {EX.g: Graph(_cycle_triples())})
        naive = create_engine(hashed, ExecutionProfile.NAIVE).query(text)
        encoded = Dataset(EncodedGraph(_cycle_triples()), {EX.g: EncodedGraph(_cycle_triples())})
        planned = create_engine(encoded).query(text)
        if isinstance(naive, bool):
            assert naive is planned is True
        else:
            assert len(naive) > 0
            assert Counter(naive.rows()) == Counter(planned.rows())

    def test_from_clauses_build_graphs_of_the_default_graph_store(self):
        default = EncodedGraph(triples())
        other = EncodedGraph([Triple(EX.n3, EX.p, EX.n4)])
        dataset = Dataset(default, {EX.g: other})
        text = (
            "PREFIX ex: <http://ex.org/>\n"
            "SELECT * FROM ex:g FROM NAMED ex:g "
            "WHERE { { ?a ex:p ?b } UNION { GRAPH ?g { ?a ex:p ?b } } }"
        )
        active = dataset.active(parse_query(text).dataset_clauses)
        assert isinstance(active.default_graph, EncodedGraph)
        assert isinstance(dataset.graph(EX.missing), EncodedGraph)
        planned = create_engine(dataset).query(text)
        reference = Dataset(Graph(default), {EX.g: Graph(other)})
        naive = create_engine(reference, ExecutionProfile.NAIVE).query(text)
        assert Counter(planned.rows()) == Counter(naive.rows())
        assert len(planned) == 2


class TestBoundedMap:
    def test_builds_once_and_evicts_the_oldest_inserted(self):
        built = []

        def build(key):
            built.append(key)
            return key.upper()

        cache = BoundedMap(2)
        assert [cache.get(key, build) for key in "abab"] == ["A", "B", "A", "B"]
        assert built == ["a", "b"] and (cache.hits, cache.misses, cache.evictions) == (2, 2, 0)
        assert cache.get("c", build) == "C"  # "a" goes, although it was hit last
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.get("b", build) == "B" and cache.get("a", build) == "A"
        assert built == ["a", "b", "c", "a"] and list(cache.values()) == ["C", "A"]

    def test_a_build_that_raises_inserts_nothing(self):
        cache = BoundedMap(2)
        with pytest.raises(KeyError):
            cache.get("a", {}.__getitem__)
        assert len(cache) == 0 and (cache.hits, cache.misses) == (0, 1)
