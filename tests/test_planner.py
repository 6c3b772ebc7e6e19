"""Tests for the cost-based BGP planner and the graph statistics API."""

from itertools import islice

import pytest

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, Triple, Variable
from repro.sparql.algebra import BGP, PathPattern, TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.operators import IndexNestedLoopJoin, LeapfrogJoin
from repro.sparql.parser import parse_query
from repro.sparql.paths import LinkPath, OneOrMorePath
from repro.sparql.physical import execute, lower_bgp
from repro.sparql.plan import plan_bgp
from repro.sparql.profile import ExecutionProfile
from repro.store import EncodedGraph

from tests.helpers import (
    EX,
    chain_graph,
    countries_dataset,
    on_hash_store,
    plan_cache_lookup,
    rows_multiset,
    scan_work,
)

PREFIX = "PREFIX ex: <http://ex.org/>\n"


def run_bgp(graph, patterns):
    """Plan, lower and lazily run a BGP on the physical layer alone."""
    return execute(lower_bgp(graph, patterns), graph)


def planned_and_naive(triples):
    """``FULL`` on the encoded store and the unplanned oracle on the hash one."""
    planned = SparqlEvaluator(Dataset.from_graph(EncodedGraph(triples)))
    return planned, SparqlEvaluator(
        Dataset.from_graph(Graph(triples)), profile=ExecutionProfile.NAIVE
    )


def tp(subject, predicate, obj) -> TriplePatternNode:
    return TriplePatternNode(Triple(subject, predicate, obj))


def star_graph(n_subjects: int = 50, fanout: int = 3) -> EncodedGraph:
    """Many subjects with :a / :b edges, exactly one with a :selective edge."""
    graph = EncodedGraph()
    for i in range(n_subjects):
        subject = EX[f"s{i}"]
        for j in range(fanout):
            graph.add(Triple(subject, EX.a, EX[f"a{i}_{j}"]))
            graph.add(Triple(subject, EX.b, EX[f"b{i}_{j}"]))
    graph.add(Triple(EX.s0, EX.selective, EX.target))
    return graph


class TestGraphStatistics:
    def test_cardinalities_track_adds(self):
        graph = star_graph(10, 2)
        assert graph.predicate_cardinality(EX.a) == 20
        assert graph.predicate_cardinality(EX.selective) == 1
        assert graph.subject_cardinality(EX.s0) == 5
        assert graph.object_cardinality(EX.target) == 1
        assert graph.distinct_subjects(EX.a) == 10
        assert graph.distinct_objects(EX.a) == 20
        assert graph.distinct_predicates() == 3

    def test_cardinalities_track_removes(self):
        graph = star_graph(4, 2)
        graph.remove(Triple(EX.s0, EX.selective, EX.target))
        assert graph.predicate_cardinality(EX.selective) == 0
        assert graph.distinct_predicates() == 2
        for j in range(2):
            graph.remove(Triple(EX.s1, EX.a, EX[f"a1_{j}"]))
        assert graph.distinct_subjects(EX.a) == 3
        assert graph.subject_cardinality(EX.s1) == 2  # the :b edges remain

    def test_pattern_cardinality_exact_for_every_shape(self):
        graph = countries_dataset().default_graph
        assert graph.pattern_cardinality() == 5
        assert graph.pattern_cardinality(subject=EX.france) == 2
        assert graph.pattern_cardinality(predicate=EX.borders) == 5
        assert graph.pattern_cardinality(obj=EX.germany) == 2
        assert graph.pattern_cardinality(EX.france, EX.borders) == 2
        assert graph.pattern_cardinality(None, EX.borders, EX.germany) == 2
        assert graph.pattern_cardinality(EX.spain, None, EX.france) == 1
        assert graph.pattern_cardinality(EX.spain, EX.borders, EX.france) == 1
        assert graph.pattern_cardinality(EX.spain, EX.borders, EX.austria) == 0


class TestPlanBGP:
    def test_star_selects_selective_pattern_first(self):
        graph = star_graph()
        v, x, y = Variable("v"), Variable("x"), Variable("y")
        patterns = [
            tp(v, EX.a, x),
            tp(v, EX.b, y),
            tp(v, EX.selective, EX.target),  # listed last, must run first
        ]
        plan = plan_bgp(graph, patterns)
        assert plan.order()[0] == 2
        assert plan.steps[0].estimate <= 1.0

    def test_chain_propagates_bound_variables(self):
        # ?x :p ?y . ?y :q ?z with a single :q edge: the :q pattern goes
        # first and the :p pattern is then priced as a bound probe.
        graph = EncodedGraph()
        for i in range(20):
            graph.add(Triple(EX[f"x{i}"], EX.p, EX[f"y{i}"]))
        graph.add(Triple(EX.y0, EX.q, EX.z0))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        plan = plan_bgp(graph, [tp(x, EX.p, y), tp(y, EX.q, z)])
        assert plan.order() == [1, 0]
        # The second step's estimate reflects the bound join variable.
        assert plan.steps[1].estimate < 20

    def test_disconnected_pattern_chosen_last(self):
        graph = star_graph(10, 2)
        v, x, w, u = Variable("v"), Variable("x"), Variable("w"), Variable("u")
        patterns = [
            tp(w, EX.b, u),  # disconnected from the other two
            tp(v, EX.selective, EX.target),
            tp(v, EX.a, x),
        ]
        plan = plan_bgp(graph, patterns)
        assert plan.order()[-1] == 0

    def test_ground_pattern_is_maximally_selective(self):
        graph = countries_dataset().default_graph
        a, b = Variable("a"), Variable("b")
        plan = plan_bgp(
            graph, [tp(a, EX.borders, b), tp(EX.spain, EX.borders, EX.france)]
        )
        assert plan.order() == [1, 0]

    def test_zero_or_more_over_absent_predicate_not_priced_free(self):
        # Regression: p*/p? over a predicate with no triples was priced at
        # 0 and scheduled first, even though zero-length semantics make it
        # match every node; the selective ground pattern must go first.
        from repro.sparql.paths import ZeroOrMorePath

        graph = EncodedGraph()
        for i in range(50):
            graph.add(Triple(EX[f"s{i}"], EX.q, EX[f"o{i}"]))
        x, y = Variable("x"), Variable("y")
        patterns = [
            PathPattern(x, ZeroOrMorePath(LinkPath(EX.absent)), y),
            tp(y, EX.q, EX.o0),
        ]
        plan = plan_bgp(graph, patterns)
        assert plan.order() == [1, 0]

    def test_nested_closure_not_priced_free(self):
        # Zero-length admission propagates through inverse/alternative
        # wrappers: ^(p*) and (p*|q) still pair every node with itself.
        from repro.sparql.paths import AlternativePath, InversePath, ZeroOrMorePath

        graph = EncodedGraph()
        for i in range(50):
            graph.add(Triple(EX[f"s{i}"], EX.q, EX[f"o{i}"]))
        x, y = Variable("x"), Variable("y")
        for path in (
            InversePath(ZeroOrMorePath(LinkPath(EX.absent))),
            AlternativePath(ZeroOrMorePath(LinkPath(EX.absent)), LinkPath(EX.also_absent)),
        ):
            plan = plan_bgp(graph, [PathPattern(x, path, y), tp(y, EX.q, EX.o0)])
            assert plan.order() == [1, 0], repr(path)

    def test_explain_renders_one_line_per_step(self):
        graph = star_graph()
        v, x = Variable("v"), Variable("x")
        plan = plan_bgp(graph, [tp(v, EX.a, x), tp(v, EX.selective, EX.target)])
        explanation = plan.explain()
        assert len(explanation.splitlines()) == 2
        assert "est=" in explanation


class TestStreamingExecution:
    def test_streaming_matches_naive_join(self):
        graph = star_graph(20, 2)
        v, x, y = Variable("v"), Variable("x"), Variable("y")
        patterns = [tp(v, EX.a, x), tp(v, EX.b, y), tp(v, EX.selective, EX.target)]
        streamed = list(run_bgp(graph, patterns))
        assert len(streamed) == 4  # 2 :a edges x 2 :b edges of s0
        assert all(binding[v] == EX.s0 for binding in streamed)

    def test_execution_is_lazy(self):
        graph = EncodedGraph(Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"]) for i in range(100))
        counters = graph.enable_counters()
        v, o = Variable("v"), Variable("o")
        stream = run_bgp(graph, [tp(v, EX.p, o)])
        first = next(iter(stream))
        assert first is not None
        # One probe produced the first solution; the other 99 were not paid.
        assert counters.index_probes == 1

    def test_repeated_variable_within_pattern(self):
        graph = EncodedGraph([Triple(EX.a, EX.p, EX.a), Triple(EX.a, EX.p, EX.b)])
        x = Variable("x")
        results = list(run_bgp(graph, [tp(x, EX.p, x)]))
        assert len(results) == 1
        assert results[0][x] == EX.a

    def test_path_pattern_endpoint_substitution(self):
        graph = EncodedGraph()
        for i in range(5):
            graph.add(Triple(EX[f"n{i}"], EX.next, EX[f"n{i+1}"]))
        graph.add(Triple(EX.n0, EX.start, EX.go))
        v, end = Variable("v"), Variable("end")
        patterns = [
            PathPattern(v, OneOrMorePath(LinkPath(EX.next)), end),
            tp(v, EX.start, EX.go),
        ]
        plan = plan_bgp(graph, patterns)
        # The selective triple pattern must be probed before the closure.
        assert plan.order() == [1, 0]
        results = list(run_bgp(graph, patterns))
        assert {binding[end] for binding in results} == {
            EX[f"n{i}"] for i in range(1, 6)
        }
        assert all(binding[v] == EX.n0 for binding in results)


class TestZeroLengthPathSubstitution:
    def test_substituted_non_node_endpoint_yields_nothing(self):
        # Regression: substituting a bound variable into p?/p* used to make
        # the evaluator treat it like a syntactic constant, which matches
        # itself even off-graph; a variable endpoint only ranges over nodes.
        planned_evaluator, naive_evaluator = planned_and_naive([Triple(EX.s, EX.a, EX.o)])
        query = parse_query(
            PREFIX + "SELECT ?p ?z WHERE { ?s ?p ?o . ?p ex:q? ?z }"
        )
        planned = planned_evaluator.evaluate(query)
        naive = naive_evaluator.evaluate(query)
        assert rows_multiset(planned) == rows_multiset(naive)
        assert len(planned) == 0

    def test_repeat_and_nested_closure_zero_length_guard(self):
        # RepeatPath{0,} and p+ over a zero-admitting inner path also admit
        # zero-length matches; the substitution guard must cover them.
        planned_evaluator, naive_evaluator = planned_and_naive([Triple(EX.s, EX.P, EX.o)])
        for path_text in ("ex:q{0,}", "(ex:q?)+", "ex:q{0,2}"):
            query = parse_query(
                PREFIX + "SELECT ?p ?z WHERE { ?s ?p ?o . ?p " + path_text + " ?z }"
            )
            planned = planned_evaluator.evaluate(query)
            naive = naive_evaluator.evaluate(query)
            assert rows_multiset(planned) == rows_multiset(naive), path_text
            assert len(planned) == 0, path_text

    def test_substituted_node_endpoint_keeps_zero_length_match(self):
        planned_evaluator, naive_evaluator = planned_and_naive([Triple(EX.s, EX.a, EX.o)])
        query = parse_query(
            PREFIX + "SELECT ?s ?z WHERE { ?s ?p ?o . ?s ex:q* ?z }"
        )
        planned = planned_evaluator.evaluate(query)
        naive = naive_evaluator.evaluate(query)
        assert rows_multiset(planned) == rows_multiset(naive)
        assert (EX.s, EX.s) in planned.to_set()


class TestPlannedEvaluatorEquivalence:
    QUERIES = [
        "SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }",
        "SELECT ?a WHERE { ?a ex:borders ex:germany . ?a ex:borders ?b }",
        "SELECT ?n WHERE { ?x ex:name ?n . ?y ex:name ?n }",
        "ASK WHERE { ?a ex:borders ?b . ?b ex:borders ex:austria }",
        "SELECT ?a ?b WHERE { ?a ex:borders ?b } LIMIT 2",
    ]

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_planned_equals_naive(self, query_text):
        dataset = countries_dataset()
        query = parse_query(PREFIX + query_text)
        planned = SparqlEvaluator(dataset).evaluate(query)
        naive = SparqlEvaluator(
            on_hash_store(dataset), profile=ExecutionProfile.NAIVE
        ).evaluate(query)
        if isinstance(planned, bool):
            assert planned == naive
        elif "LIMIT" in query_text:
            # LIMIT without ORDER BY may pick different rows; compare sizes.
            assert len(planned) == len(naive)
        else:
            assert rows_multiset(planned) == rows_multiset(naive)


def ring_graph(n_nodes: int) -> EncodedGraph:
    """gMark-style cycle: a :p ring, :q chords closing p/q/p at every node, one :marked."""
    graph = EncodedGraph()
    for i in range(n_nodes):
        graph.add(Triple(EX[f"n{i}"], EX.p, EX[f"n{(i + 1) % n_nodes}"]))
        graph.add(Triple(EX[f"n{i}"], EX.q, EX[f"n{(i - 2) % n_nodes}"]))
    graph.add(Triple(EX.n0, EX.marked, EX.yes))
    return graph


class TestPlannedWorkDoesNotGrowWithTheData:
    """What the planner buys, counted: the selective pattern is listed
    last and runs first, so the scans issue the same probes and touch the
    same rows however many unselective subjects the graph holds — where
    textual order pays for every one of them."""

    STAR = "{ ?v ex:a ?x . ?v ex:b ?y . ?v ex:selective ex:target }"
    #: shape -> (graph builder, base size, pattern, plan order, scan (probes, rows), answers)
    SHAPES = {
        # s0; its five :a edges; the five :b edges once per :a row.
        "star": (lambda n: star_graph(n, fanout=5), 350, STAR, [2, 0, 1], (7, 31), 25),
        "chain": (
            chain_graph,
            250,
            "{ ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?d . ?d ex:hit ex:flag }",
            [3, 2, 1, 0],
            (4, 4),
            1,
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_selective_pattern_last(self, shape):
        build, size, pattern, order, work, answers = self.SHAPES[shape]
        query = parse_query(PREFIX + "SELECT * WHERE " + pattern)
        for n in (size, 2 * size):
            dataset = Dataset.from_graph(build(n))
            evaluator = SparqlEvaluator(dataset)
            result = evaluator.evaluate(query)
            assert evaluator.last_physical_plan.source.order() == order
            assert scan_work(evaluator) == work, n
            assert len(result) == answers
        naive = SparqlEvaluator(
            on_hash_store(dataset), profile=ExecutionProfile.NAIVE
        ).evaluate(query)
        assert rows_multiset(result) == rows_multiset(naive)

    def test_ask_stops_at_the_first_solution(self):
        query = parse_query(PREFIX + "ASK WHERE " + self.STAR)
        for n in (350, 700):
            evaluator = SparqlEvaluator(Dataset.from_graph(star_graph(n, fanout=5)))
            assert evaluator.evaluate(query) is True
            # One probe per pattern, one row each: 3 of the SELECT's 7 probes.
            assert scan_work(evaluator) == (3, 3)

    @pytest.mark.parametrize(
        "closing, join, probes",
        [("ex:p", LeapfrogJoin, 7), ("?r", IndexNestedLoopJoin, 4)],
        ids=["leapfrog", "binary"],
    )
    def test_cycle_starts_from_the_marked_node(self, closing, join, probes):
        """A cycle joins back on its first variable; starting at the one
        :marked node keeps it to a handful of probes (the leapfrog join: one
        sorted run per pattern end; binary joins, where a variable predicate
        on the closing edge rules the leapfrog join out: one per pattern)."""
        query = parse_query(
            PREFIX
            + "SELECT ?a ?b WHERE { ?a ex:p ?b . ?b ex:q ?c . ?c "
            + closing
            + " ?a . ?a ex:marked ex:yes }"
        )
        for n in (120, 240):
            dataset = Dataset.from_graph(ring_graph(n))
            evaluator = SparqlEvaluator(dataset)
            result = evaluator.evaluate(query)
            assert evaluator.last_physical_plan.source.order() == [3, 0, 1, 2]
            assert isinstance(evaluator.last_physical_plan.root.child, join)
            assert scan_work(evaluator)[0] == probes, n
            assert len(result) == 1
        naive = SparqlEvaluator(
            on_hash_store(dataset), profile=ExecutionProfile.NAIVE
        ).evaluate(query)
        assert rows_multiset(result) == rows_multiset(naive)


class TestPlanCache:
    def _two_pattern_query(self):
        return parse_query(
            PREFIX + "SELECT ?a ?c WHERE { ?a ex:borders ?b . ?b ex:borders ?c }"
        )

    def test_repeated_query_hits_cache(self):
        evaluator = SparqlEvaluator(countries_dataset())
        query = self._two_pattern_query()
        first = evaluator.evaluate(query)
        second = evaluator.evaluate(query)
        assert rows_multiset(first) == rows_multiset(second)
        metrics = evaluator.metrics()
        assert metrics["sparql_physical_cache_misses_total"] == 1
        assert metrics["sparql_physical_cache_hits_total"] == 1

    def test_a_write_in_band_keeps_the_plan_and_answers_the_new_data(self):
        dataset = countries_dataset()
        evaluator = SparqlEvaluator(dataset)
        query = self._two_pattern_query()
        evaluator.evaluate(query)
        before = rows_multiset(evaluator.evaluate(query))
        dataset.default_graph.add(Triple(EX.austria, EX.borders, EX.italy))  # 5 -> 6 borders
        after = evaluator.evaluate(query)
        metrics = evaluator.metrics()
        assert metrics["sparql_physical_cache_misses_total"] == 1
        assert metrics["sparql_physical_cache_hits_total"] == 2
        assert metrics["sparql_physical_cache_revalidations_total"] == 1
        naive = SparqlEvaluator(
            on_hash_store(dataset), profile=ExecutionProfile.NAIVE
        ).evaluate(query)
        assert rows_multiset(after) == rows_multiset(naive)
        assert rows_multiset(after) != before

    def test_a_write_out_of_band_replans_and_answers_the_new_data(self):
        dataset = countries_dataset()
        evaluator = SparqlEvaluator(dataset)
        query = self._two_pattern_query()
        evaluator.evaluate(query)
        # 5 -> 11 borders: more than twice the count the plan was made on.
        dataset.default_graph.update(
            Triple(EX[f"c{index}"], EX.borders, EX[f"c{index + 1}"]) for index in range(6)
        )
        after = evaluator.evaluate(query)
        metrics = evaluator.metrics()
        assert metrics["sparql_physical_cache_misses_total"] == 2
        assert metrics["sparql_physical_cache_revalidations_total"] == 0
        naive = SparqlEvaluator(
            on_hash_store(dataset), profile=ExecutionProfile.NAIVE
        ).evaluate(query)
        assert rows_multiset(after) == rows_multiset(naive)

    def test_version_stamp_semantics(self):
        graph = Graph()
        triple = Triple(EX.a, EX.p, EX.b)
        assert graph.version == 0
        graph.add(triple)
        graph.add(triple)  # idempotent re-add does not bump
        assert graph.version == 1
        graph.remove(triple)
        graph.remove(triple)  # removing a missing triple does not bump
        assert graph.version == 2

    def test_cache_is_bounded(self):
        evaluator = SparqlEvaluator(countries_dataset())
        cache, lookup = plan_cache_lookup(evaluator)
        cache.size = 4
        graph = evaluator.dataset.default_graph
        a, b = Variable("a"), Variable("b")
        keys = [
            (tp(a, EX.borders, b), tp(b, EX.borders, EX[f"n{index}"]))
            for index in range(10)
        ]
        plans = [lookup(graph, patterns) for patterns in keys]
        assert len(cache) == 4
        assert evaluator.metrics()["sparql_plan_cache_evictions_total"] >= 6
        # Oldest-inserted goes first, and a hit does not refresh an entry:
        # the newest four are still served from the cache ...
        for patterns, plan in zip(keys[-4:], plans[-4:]):
            assert lookup(graph, patterns) is plan
        # ... the oldest is rebuilt.
        assert lookup(graph, keys[0]) is not plans[0]

    def test_a_version_bump_keeps_an_entry_while_its_counts_stay_in_band(self):
        evaluator = SparqlEvaluator(countries_dataset())
        cache, lookup = plan_cache_lookup(evaluator)
        graph = evaluator.dataset.default_graph
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        patterns = (tp(a, EX.borders, b), tp(b, EX.borders, c))
        plan = lookup(graph, patterns)
        assert lookup(graph, patterns) is plan
        graph.add(Triple(EX.austria, EX.borders, EX.italy))  # 5 -> 6
        assert lookup(graph, patterns) is plan
        graph.remove(Triple(EX.austria, EX.borders, EX.italy))
        for subject, obj in ((EX.spain, EX.france), (EX.france, EX.belgium), (EX.belgium, EX.germany)):
            graph.remove(Triple(subject, EX.borders, obj))
        assert graph.pattern_cardinality(None, EX.borders, None) == 2  # 5 -> 2: under half
        replanned = lookup(graph, patterns)
        assert replanned is not plan
        assert lookup(graph, patterns) is replanned and len(cache) == 1

    def test_a_count_crossing_zero_replans_both_ways(self):
        evaluator = SparqlEvaluator(countries_dataset())
        cache, lookup = plan_cache_lookup(evaluator)
        graph = evaluator.dataset.default_graph
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        patterns = (tp(a, EX.borders, b), tp(b, EX.flows, c))
        plan = lookup(graph, patterns)  # no ex:flows triple: planned first
        assert plan.source.order() == [1, 0]
        graph.add(Triple(EX.france, EX.flows, EX.rhine))  # 0 -> 1
        refilled = lookup(graph, patterns)
        assert refilled is not plan
        graph.add(Triple(EX.germany, EX.flows, EX.rhine))  # 1 -> 2: in band
        assert lookup(graph, patterns) is refilled
        graph.remove(Triple(EX.france, EX.flows, EX.rhine))
        graph.remove(Triple(EX.germany, EX.flows, EX.rhine))  # 2 -> 0
        assert lookup(graph, patterns) is not refilled
        assert evaluator.metrics()["sparql_physical_cache_misses_total"] == 3

    def test_recycled_id_does_not_hit(self):
        # id() values are reused after garbage collection: an entry must
        # only hit while the graph that produced it is the one queried.
        # The policy never looks inside a graph or a plan, so stand-ins
        # make the recycling reproducible.
        cache = SparqlEvaluator(Dataset()).lowered_plans
        cache.build = lambda graph, *key: object()

        class StubGraph:
            version = 7

        graph = StubGraph()
        stale = cache.get(graph, "key")
        assert cache.get(graph, "key") is stale
        stale_id = id(graph)
        del graph
        others = []
        for _ in range(256):
            candidate = StubGraph()
            if id(candidate) == stale_id:
                break
            others.append(candidate)
        else:
            pytest.skip("the allocator did not recycle the graph's id")
        # Same id, same version stamp: only the weakref guard tells the
        # recycled id from the dead graph.
        assert cache.get(candidate, "key") is not stale
        assert len(cache) == 1

    def test_distinct_graphs_cached_separately(self):
        query = self._two_pattern_query()
        first = SparqlEvaluator(countries_dataset())
        second = SparqlEvaluator(countries_dataset())
        first.evaluate(query)
        second.evaluate(query)
        assert first.metrics()["sparql_physical_cache_misses_total"] == 1
        assert second.metrics()["sparql_physical_cache_misses_total"] == 1
