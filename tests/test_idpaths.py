"""Tests for the id-native property-path engine (:mod:`repro.sparql.idpaths`).

Three layers of assurance that the id engine is a pure optimisation over
the term-level ALP procedure:

* targeted unit tests for the moving parts — direction selection,
  bidirectional meet-in-the-middle, path reversal, the zero-length rules
  for bound endpoints outside the graph, duplicate preservation for the
  non-closure operators,
* a hypothesis differential property: random path expressions over
  random graphs, with random bound/free endpoints, return the identical
  multiset through the id engine (under ``FULL``) and
  through the term-level ALP procedure of the unplanned evaluation on the
  hash store — as lone patterns and as a pipeline's path step with a
  bound endpoint per outer row,
* gMark workload parity: every query of a recursive-only gMark workload,
  and a fixed mix of eleven path shapes, agree between the id path engine
  and the ALP baseline.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Triple, Variable
from repro.sparql.algebra import BGP, PathPattern, ProjectionItem, SelectQuery, TriplePatternNode
from repro.sparql import idexec, physical
from repro.sparql.alp import eval_path_pattern_terms
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.idpaths import IdPathEngine
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.plan import BGPPlan, PlanStep, leaf_statistics
from repro.sparql.solutions import Binding, realign_rows
from repro.sparql.paths import (
    AlternativePath,
    InversePath,
    LinkPath,
    NegatedPropertySet,
    OneOrMorePath,
    RepeatPath,
    SequencePath,
    ZeroOrMorePath,
    ZeroOrOnePath,
    normalize_path,
    reverse_path,
)
from repro.store import EncodedGraph

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"

X, Y = Variable("x"), Variable("y")
S, M, O = Variable("s"), Variable("m"), Variable("o")


def _select(pattern_nodes):
    variables = sorted(
        {v for node in pattern_nodes for v in node.variables()},
        key=lambda v: v.name,
    )
    return SelectQuery(
        projection=tuple(ProjectionItem(variable) for variable in variables),
        pattern=BGP(tuple(pattern_nodes)),
    )


def _evaluators(triples):
    """The id path engine under ``FULL``, the term-level ALP procedure under
    the unplanned ``NAIVE``."""
    return [
        SparqlEvaluator(Dataset.from_graph(EncodedGraph(triples))),
        SparqlEvaluator(Dataset.from_graph(Graph(triples)), profile=ExecutionProfile.NAIVE),
    ]


def _assert_configurations_agree(pattern_nodes, triples):
    query = _select(pattern_nodes)
    results = [
        Counter(evaluator.evaluate(query).rows())
        for evaluator in _evaluators(triples)
    ]
    for other in results[1:]:
        assert other == results[0]
    return results[0]


# ----------------------------------------------------------------------
# unit tests: engine surface
# ----------------------------------------------------------------------
class TestEngineSurface:
    def _graph(self):
        return EncodedGraph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.b, EX.p, EX.c),
                Triple(EX.c, EX.q, EX.d),
            ]
        )

    def test_forward_closure_from_bound_subject(self):
        graph = self._graph()
        engine = IdPathEngine(graph)
        a = graph.dictionary.id_for(EX.a)
        pairs = set(engine.pair_ids(OneOrMorePath(LinkPath(EX.p)), a, None))
        decode = graph.dictionary.term
        assert {decode(end) for _, end in pairs} == {EX.b, EX.c}

    def test_backward_closure_from_bound_object(self):
        graph = self._graph()
        engine = IdPathEngine(graph)
        c = graph.dictionary.id_for(EX.c)
        pairs = set(engine.pair_ids(OneOrMorePath(LinkPath(EX.p)), None, c))
        decode = graph.dictionary.term
        assert {decode(start) for start, _ in pairs} == {EX.a, EX.b}

    def test_bidirectional_reachability_both_bound(self):
        graph = EncodedGraph()
        for i in range(50):
            graph.add(Triple(EX[f"n{i}"], EX.next, EX[f"n{i + 1}"]))
        engine = IdPathEngine(graph)
        first = graph.dictionary.id_for(EX.n0)
        last = graph.dictionary.id_for(EX.n50)
        path = OneOrMorePath(LinkPath(EX.next))
        assert list(engine.pair_ids(path, first, last)) == [(first, last)]
        assert list(engine.pair_ids(path, last, first)) == []

    def test_cycle_reachability_same_endpoint(self):
        graph = EncodedGraph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.b, EX.p, EX.a),
                Triple(EX.c, EX.p, EX.d),
            ]
        )
        engine = IdPathEngine(graph)
        a = graph.dictionary.id_for(EX.a)
        c = graph.dictionary.id_for(EX.c)
        path = OneOrMorePath(LinkPath(EX.p))
        assert list(engine.pair_ids(path, a, a)) == [(a, a)]
        assert list(engine.pair_ids(path, c, c)) == []

    def test_bound_endpoint_outside_graph_zero_length(self):
        graph = self._graph()
        engine = IdPathEngine(graph)
        ghost = graph.dictionary.encode(EX.ghost)
        star = ZeroOrMorePath(LinkPath(EX.p))
        assert list(engine.pair_ids(star, ghost, None)) == [(ghost, ghost)]
        plus = OneOrMorePath(LinkPath(EX.p))
        assert list(engine.pair_ids(plus, ghost, None)) == []

    def test_relation_stats_reflects_direction_asymmetry(self):
        graph = EncodedGraph()
        hub = EX.hub
        for i in range(20):
            graph.add(Triple(EX[f"s{i}"], EX.into, hub))
        engine = IdPathEngine(graph)
        edges, sources, targets = engine.relation_stats(LinkPath(EX.into))
        assert edges == 20.0 and sources == 20.0 and targets == 1.0
        edges, sources, targets = engine.relation_stats(
            InversePath(LinkPath(EX.into))
        )
        assert sources == 1.0 and targets == 20.0

    def test_unknown_constant_endpoint_does_not_grow_dictionary(self):
        # Non-zero-admitting paths bail on unknown constants like the
        # triple pipeline does; only zero-length-admitting paths may
        # intern the constant (they need an id for the syntactic match).
        graph = self._graph()
        engine = IdPathEngine(graph)
        before = len(graph.dictionary)
        node = PathPattern(EX.total_stranger, OneOrMorePath(LinkPath(EX.p)), Y)
        assert engine.evaluate(node) == []
        assert len(graph.dictionary) == before
        node = PathPattern(EX.total_stranger, ZeroOrMorePath(LinkPath(EX.p)), Y)
        assert len(engine.evaluate(node)) == 1
        assert len(graph.dictionary) == before + 1

    def test_unknown_predicate_is_empty_but_zero_length_survives(self):
        graph = self._graph()
        engine = IdPathEngine(graph)
        a = graph.dictionary.id_for(EX.a)
        assert list(engine.pair_ids(LinkPath(EX.never_seen), a, None)) == []
        pairs = list(engine.pair_ids(ZeroOrMorePath(LinkPath(EX.never_seen)), a, None))
        assert pairs == [(a, a)]


class TestResultRowLayout:
    """The variable order is fixed once per pattern, by name: ``evaluate``'s
    bindings stay sorted (what ``Binding`` equality and hashing rely on),
    and the term-level procedure's tuples and ``rows`` under the same
    header hold the same terms in that order."""

    TRIPLES = [
        Triple(EX.a, EX.p, EX.b),
        Triple(EX.b, EX.p, EX.a),
        Triple(EX.b, EX.p, EX.c),
    ]

    def _rows(self, node):
        engine = IdPathEngine(EncodedGraph(self.TRIPLES))
        header = [variable for variable, _ in node.endpoint_slots()]
        by_id = engine.evaluate(node)
        by_term = eval_path_pattern_terms(node, Graph(self.TRIPLES))
        assert Counter(tuple([term for _, term in b.items()]) for b in by_id) == Counter(by_term)
        assert Counter(engine.rows(node, header)) == Counter(by_term)
        for binding in by_id:
            names = [variable.name for variable, _ in binding.items()]
            assert names == sorted(set(names))
            assert binding == Binding(binding.as_dict())
            assert hash(binding) == hash(Binding(binding.as_dict()))
        return Counter(by_id)

    def test_subject_named_after_object(self):
        plus = OneOrMorePath(LinkPath(EX.p))
        forward = self._rows(PathPattern(X, plus, Y))
        swapped = self._rows(PathPattern(Y, plus, X))
        assert len(forward) == 6  # a and b each reach a, b, c; c reaches nothing
        assert {(b[X], b[Y]) for b in forward} == {(b[Y], b[X]) for b in swapped}
        assert all(binding.items()[0][0] == X for binding in swapped)

    def test_same_variable_at_both_ends(self):
        star = ZeroOrMorePath(LinkPath(EX.p))
        rows = self._rows(PathPattern(X, star, X))
        assert {binding.items() for binding in rows} == {
            ((X, EX.a),), ((X, EX.b),), ((X, EX.c),)
        }
        plus = OneOrMorePath(LinkPath(EX.p))
        assert {binding[X] for binding in self._rows(PathPattern(X, plus, X))} == {EX.a, EX.b}

    def test_constant_endpoints(self):
        plus = OneOrMorePath(LinkPath(EX.p))
        assert {b.items() for b in self._rows(PathPattern(EX.a, plus, Y))} == {
            ((Y, EX.a),), ((Y, EX.b),), ((Y, EX.c),)
        }
        assert {b.items() for b in self._rows(PathPattern(X, plus, EX.c))} == {
            ((X, EX.a),), ((X, EX.b),)
        }
        # Both ends constant: one empty mapping per matching pair.
        both = self._rows(PathPattern(EX.a, LinkPath(EX.p), EX.b))
        assert both == Counter([Binding()])
        assert not self._rows(PathPattern(EX.a, LinkPath(EX.p), EX.c))


class TestReversePath:
    def test_reverse_inverts_pairs(self):
        graph = EncodedGraph(
            [
                Triple(EX.a, EX.p, EX.b),
                Triple(EX.b, EX.q, EX.c),
                Triple(EX.c, EX.p, EX.c),
            ]
        )
        engine = IdPathEngine(graph)
        paths = [
            LinkPath(EX.p),
            InversePath(LinkPath(EX.q)),
            SequencePath(LinkPath(EX.p), LinkPath(EX.q)),
            AlternativePath(LinkPath(EX.p), InversePath(LinkPath(EX.q))),
            OneOrMorePath(AlternativePath(LinkPath(EX.p), LinkPath(EX.q))),
            ZeroOrMorePath(LinkPath(EX.p)),
            ZeroOrOnePath(SequencePath(LinkPath(EX.p), LinkPath(EX.p))),
            NegatedPropertySet((EX.p,), (EX.q,)),
            RepeatPath(LinkPath(EX.p), 1, 2),
        ]
        for path in paths:
            forward = Counter(engine.pair_ids(normalize_path(path), None, None))
            backward = Counter(
                (start, end)
                for end, start in engine.pair_ids(
                    normalize_path(reverse_path(path)), None, None
                )
            )
            assert forward == backward, repr(path)


# ----------------------------------------------------------------------
# duplicate semantics
# ----------------------------------------------------------------------
class TestDuplicateSemantics:
    def _diamond(self):
        # Two length-2 routes a -> c: duplicates must survive sequences.
        return [
            Triple(EX.a, EX.p, EX.b1),
            Triple(EX.a, EX.p, EX.b2),
            Triple(EX.b1, EX.q, EX.c),
            Triple(EX.b2, EX.q, EX.c),
        ]

    def test_sequence_preserves_duplicates(self):
        rows = _assert_configurations_agree(
            [PathPattern(X, SequencePath(LinkPath(EX.p), LinkPath(EX.q)), Y)],
            self._diamond(),
        )
        assert rows[(EX.a, EX.c)] == 2

    def test_alternative_preserves_duplicates(self):
        triples = [Triple(EX.a, EX.p, EX.b)]
        rows = _assert_configurations_agree(
            [PathPattern(X, AlternativePath(LinkPath(EX.p), LinkPath(EX.p)), Y)],
            triples,
        )
        assert rows[(EX.a, EX.b)] == 2

    def test_zero_or_one_deduplicates(self):
        # ? has set semantics: the two p/q routes collapse to one row.
        rows = _assert_configurations_agree(
            [
                PathPattern(
                    X,
                    ZeroOrOnePath(SequencePath(LinkPath(EX.p), LinkPath(EX.q))),
                    Y,
                )
            ],
            self._diamond(),
        )
        assert rows[(EX.a, EX.c)] == 1

    def test_closure_is_set_semantics(self):
        rows = _assert_configurations_agree(
            [
                PathPattern(
                    EX.a,
                    OneOrMorePath(AlternativePath(LinkPath(EX.p), LinkPath(EX.q))),
                    Y,
                )
            ],
            self._diamond(),
        )
        assert all(count == 1 for count in rows.values())

    def test_inverse_sequence_duplicates(self):
        rows = _assert_configurations_agree(
            [
                PathPattern(
                    X,
                    InversePath(SequencePath(LinkPath(EX.p), LinkPath(EX.q))),
                    Y,
                )
            ],
            self._diamond(),
        )
        assert rows[(EX.c, EX.a)] == 2


# ----------------------------------------------------------------------
# id-native plan steps
# ----------------------------------------------------------------------
class TestIdNativePlanIntegration:
    def _triples(self):
        return [
            Triple(EX.s1, EX.start, EX.go),
            Triple(EX.s1, EX.p, EX.m1),
            Triple(EX.m1, EX.p, EX.m2),
            Triple(EX.s2, EX.p, EX.m2),
            Triple(EX.m2, EX.q, EX.s2),
        ]

    def test_path_step_after_binding_triple(self):
        _assert_configurations_agree(
            [
                TriplePatternNode(Triple(X, EX.start, EX.go)),
                PathPattern(X, OneOrMorePath(LinkPath(EX.p)), Y),
            ],
            self._triples(),
        )

    def test_path_step_with_shared_variable_both_ends(self):
        _assert_configurations_agree(
            [
                PathPattern(
                    X,
                    OneOrMorePath(
                        AlternativePath(LinkPath(EX.p), LinkPath(EX.q))
                    ),
                    X,
                )
            ],
            self._triples(),
        )

    def test_filter_pushdown_after_path_step(self):
        query = parse_query(
            PREFIX
            + "SELECT ?x ?y WHERE { ?x ex:p+ ?y . FILTER(?y = ex:m2) }"
        )
        results = []
        for evaluator in _evaluators(self._triples()):
            results.append(Counter(evaluator.evaluate(query).rows()))
        for other in results[1:]:
            assert other == results[0]
        assert results[0]
        assert all(row[1] == EX.m2 for row in results[0])

    def test_substituted_non_node_endpoint_blocks_zero_length(self):
        # ?x is bound by VALUES to a term outside the graph: a * path
        # must not zero-length-match it (variables range over nodes).
        query = parse_query(
            PREFIX
            + "SELECT ?x ?y WHERE { VALUES ?x { ex:ghost } ?x ex:p* ?y }"
        )
        for evaluator in _evaluators(self._triples()):
            result = evaluator.evaluate(query)
            assert list(result.rows()) == [], type(evaluator.dataset.default_graph)


# ----------------------------------------------------------------------
# hypothesis differential
# ----------------------------------------------------------------------
_NODES = [EX[f"n{i}"] for i in range(5)]
_PREDICATES = [EX.p, EX.q, EX.r]

_links = st.sampled_from([LinkPath(iri) for iri in _PREDICATES])
_negated = st.sampled_from(
    [
        NegatedPropertySet((EX.p,)),
        NegatedPropertySet((EX.p,), (EX.q,)),
        NegatedPropertySet((), (EX.r,)),
    ]
)
_path_expressions = st.recursive(
    st.one_of(_links, _negated),
    lambda children: st.one_of(
        st.builds(InversePath, children),
        st.builds(SequencePath, children, children),
        st.builds(AlternativePath, children, children),
        st.builds(ZeroOrOnePath, children),
        st.builds(OneOrMorePath, children),
        st.builds(ZeroOrMorePath, children),
        st.builds(lambda inner: RepeatPath(inner, 1, 2), children),
    ),
    max_leaves=4,
)

_edges = st.lists(
    st.tuples(
        st.sampled_from(_NODES),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_NODES),
    ),
    min_size=0,
    max_size=14,
)

_subjects = st.sampled_from([X, EX.n0, EX.n1, EX.ghost])
_objects = st.sampled_from([Y, X, EX.n0, EX.n2, EX.ghost])


@settings(max_examples=80, deadline=None)
@given(edges=_edges, path=_path_expressions, subject=_subjects, obj=_objects)
def test_differential_random_paths(edges, path, subject, obj):
    """Random path, random graph, random endpoints: all pipelines agree."""
    triples = [Triple(*edge) for edge in edges]
    _assert_configurations_agree([PathPattern(subject, path, obj)], triples)


@settings(max_examples=40, deadline=None)
@given(edges=_edges, path=_path_expressions)
def test_differential_engine_vs_term_alp(edges, path):
    """Engine pair semantics == term ALP, compared row by row under ``(?x, ?y)``."""
    triples = [Triple(*edge) for edge in edges]
    node = PathPattern(X, path, Y)
    expected = Counter(eval_path_pattern_terms(node, Graph(triples)))
    engine = IdPathEngine(EncodedGraph(triples))
    assert Counter(engine.rows(node, [X, Y])) == expected
    assert Counter((b[X], b[Y]) for b in engine.evaluate(node)) == expected


def _assert_path_step_agrees(outer, step, triples):
    """``outer . step`` lowered with the path step second, so it runs once per
    outer row with the shared endpoint ``?m`` bound, against ``NAIVE`` on
    the same BGP.  Rows are aligned by variable name on both sides."""
    graph = EncodedGraph(triples)
    nodes = (outer, step)
    ordered = tuple(PlanStep(node, 1.0, index) for index, node in enumerate(nodes))
    plan = physical.lower_plan(BGPPlan(ordered, leaf_statistics(graph, nodes)), graph)
    assert [line.split()[1] for line in plan.explain().splitlines()[2:]] == ["Scan", "PathExpand"]
    rows = Counter(physical.execute_rows(plan, graph))
    answer = _evaluators(triples)[1].evaluate(_select(nodes))
    assert rows == Counter(realign_rows(answer.rows(), answer.variables, idexec.row_header(plan)))


@settings(max_examples=80, deadline=None)
@given(edges=_edges, path=_path_expressions)
def test_differential_path_step_with_bound_subject(edges, path):
    """``?x ex:p ?m . ?m <path> ?o``: the step starts from each bound ``?m``."""
    _assert_path_step_agrees(
        TriplePatternNode(Triple(X, EX.p, M)),
        PathPattern(M, path, O),
        [Triple(*edge) for edge in edges],
    )


@settings(max_examples=80, deadline=None)
@given(edges=_edges, path=_path_expressions)
def test_differential_path_step_with_bound_object(edges, path):
    """``?s <path> ?m . ?m ex:q ?y``: the step ends at each bound ``?m``."""
    _assert_path_step_agrees(
        TriplePatternNode(Triple(M, EX.q, Y)),
        PathPattern(S, path, M),
        [Triple(*edge) for edge in edges],
    )


# ----------------------------------------------------------------------
# no state outlives a call; what one call costs the store
# ----------------------------------------------------------------------
class TestCallScope:
    """``pair_ids`` returns a collection the caller owns and keeps nothing:
    one engine answers from the store as it is at each call, and the node
    set the store shares (``node_ids()``, "not to be mutated") is read,
    never aliased or changed."""

    def test_one_engine_sees_a_later_write(self):
        graph = EncodedGraph([Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.r, EX.a)])
        engine = IdPathEngine(graph)
        star = PathPattern(X, ZeroOrMorePath(LinkPath(EX.p)), Y)
        sequence = PathPattern(X, SequencePath(LinkPath(EX.r), star.path), Y)
        before = {node: set(engine.rows(node, [X, Y])) for node in (star, sequence)}
        graph.add(Triple(EX.b, EX.p, EX.d))
        after = {node: set(engine.rows(node, [X, Y])) for node in (star, sequence)}
        assert after[star] - before[star] == {(EX.a, EX.d), (EX.b, EX.d), (EX.d, EX.d)}
        assert after[sequence] - before[sequence] == {(EX.c, EX.d)}
        for node in (star, sequence):
            assert after[node] == set(eval_path_pattern_terms(node, Graph(graph)))

    def test_closures_leave_the_store_node_set_alone(self):
        graph = EncodedGraph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.b, EX.p, EX.a), Triple(EX.c, EX.q, EX.d)]
        )
        engine = IdPathEngine(graph)
        nodes = graph.node_ids()
        snapshot = set(nodes)
        a = graph.dictionary.id_for(EX.a)
        ghost = graph.dictionary.encode(EX.ghost)
        link = LinkPath(EX.p)
        for path in (
            ZeroOrMorePath(link),
            ZeroOrOnePath(link),
            OneOrMorePath(link),
            ZeroOrMorePath(AlternativePath(link, InversePath(LinkPath(EX.q)))),
        ):
            for subject, obj in ((None, None), (a, None), (None, a), (ghost, None), (a, a)):
                pairs = engine.pair_ids(path, subject, obj)
                assert isinstance(pairs, set) and pairs is not nodes
                pairs.clear()  # the caller owns the result
            engine.rows(PathPattern(X, path, Y), [X, Y])
        assert graph.node_ids() is nodes
        assert nodes == snapshot


class TestStoreCallCounts:
    """Triple-reading id calls into the store per free-free pattern (every
    public ``*_ids`` accessor but the statistics and id sets), no clocks.

    The graph: a 999-edge ``ex:q`` chain, a 10-edge ``ex:p`` chain and 200
    ``ex:r`` edges into the ``ex:p`` chain's head, 1 211 nodes.  A per-pair
    generator engine that expanded a two-free closure from every graph node
    made 1 266 calls for ``?x ex:p+ ?y`` and 2 477 for
    ``?x ex:r/ex:p* ?y``.  Set-at-a-time: ``ex:p+`` reads ``ex:p``'s
    entries once and expands over that adjacency (1 call);
    ``ex:r/ex:p*`` materialises ``ex:p*`` the same way and reads one
    ``ex:r`` entry per distinct middle, the 1 211 nodes ``*`` pairs with
    themselves (1 212 calls)."""

    #: The ``*_ids`` accessors that read no triple: statistics and id sets.
    UNCOUNTED = (
        "node_ids",
        "predicate_ids",
        "pattern_cardinality_ids",
        "distinct_subjects_ids",
        "distinct_objects_ids",
    )

    def _graph(self):
        triples = [Triple(EX[f"q{i}"], EX.q, EX[f"q{i + 1}"]) for i in range(999)]
        triples += [Triple(EX[f"p{i}"], EX.p, EX[f"p{i + 1}"]) for i in range(10)]
        triples += [Triple(EX[f"r{i}"], EX.r, EX.p0) for i in range(200)]
        graph = EncodedGraph(triples)
        assert len(graph.node_ids()) == 1_211
        return graph

    def _calls(self, path):
        graph = self._graph()
        calls = Counter()

        def counting(name, method):
            def counted(*ids):
                calls[name] += 1
                return method(*ids)

            return counted

        # Every public id accessor that reads triples, whichever the engine uses.
        for name in dir(type(graph)):
            if name.endswith("_ids") and not name.startswith("_") and name not in self.UNCOUNTED:
                setattr(graph, name, counting(name, getattr(graph, name)))
        # Counted after the pairs are taken in full, lazily produced or not.
        pairs = Counter(IdPathEngine(graph).pair_ids(normalize_path(path), None, None))
        return sum(calls.values()), pairs

    def test_two_free_closure_reads_its_inner_path_once(self):
        calls, pairs = self._calls(OneOrMorePath(LinkPath(EX.p)))
        assert len(pairs) == 55 and set(pairs.values()) == {1}
        assert calls <= 12

    def test_sequence_into_a_star_reads_one_entry_per_middle(self):
        calls, pairs = self._calls(
            SequencePath(LinkPath(EX.r), ZeroOrMorePath(LinkPath(EX.p)))
        )
        assert len(pairs) == 200 * 11 and set(pairs.values()) == {1}
        assert calls <= 1_212


# ----------------------------------------------------------------------
# gMark workload parity
# ----------------------------------------------------------------------
def test_gmark_recursive_workload_parity():
    from repro.workloads.gmark import GMarkWorkload, test_scenario

    workload = GMarkWorkload(
        scenario=test_scenario(), scale=0.15, recursive_only=True, query_count=12
    )
    idnative = SparqlEvaluator(workload.dataset())
    termlevel = SparqlEvaluator(
        Dataset.from_graph(Graph(workload.graph)), profile=ExecutionProfile.NAIVE
    )
    compared = 0
    for query in workload.queries():
        parsed = parse_query(query.text)
        expected = termlevel.evaluate(parsed)
        actual = idnative.evaluate(parsed)
        assert Counter(actual.rows()) == Counter(expected.rows()), query.query_id
        compared += 1
    assert compared == 12


def test_gmark_fixed_path_mix_parity():
    """A fixed mix of path shapes on a gMark test-scenario graph (80 nodes,
    4 predicates): bound-subject closures over compound inner paths, a
    sequence feeding a closure (which the term-level evaluator computes as a
    two-free closure joined afterwards), backward expansion from a bound
    object, bounded repetition, a two-variable closure, both-endpoints-bound
    reachability (bidirectional search) and three non-recursive paths.  The
    id engine must return the ALP baseline's bags; how fast it does is the
    ``gmark_native`` workload of ``bench/run.py``."""
    from repro.workloads.gmark import GMarkWorkload, test_scenario

    node = "<http://example.org/gMark/Node{}>".format
    queries = [
        f"SELECT ?y WHERE {{ {node(52)} (gmark:p0|gmark:p1)+ ?y }}",
        f"SELECT ?y WHERE {{ {node(72)} (gmark:p2|^gmark:p0)* ?y }}",
        f"SELECT ?y WHERE {{ {node(62)} gmark:p2/(gmark:p3/gmark:p1)+ ?y }}",
        f"SELECT ?x WHERE {{ ?x (gmark:p0)+ {node(10)} }}",
        f"SELECT ?x WHERE {{ ?x (gmark:p1/gmark:p2)/(gmark:p2)* {node(12)} }}",
        f"SELECT ?y WHERE {{ {node(14)} gmark:p0{{1,4}} ?y }}",
        "SELECT ?x ?y WHERE { ?x (gmark:p3)+ ?y }",
        f"ASK {{ {node(52)} (gmark:p0|gmark:p1)+ {node(10)} }}",
        "SELECT ?x ?y WHERE { ?x gmark:p0/gmark:p1 ?y }",
        f"SELECT ?y WHERE {{ {node(52)} (gmark:p0|gmark:p2)/gmark:p1 ?y }}",
        "SELECT ?x ?y WHERE { ?x ^gmark:p2/gmark:p3 ?y }",
    ]
    graph = GMarkWorkload(scenario=test_scenario(), scale=0.1).graph
    idnative = SparqlEvaluator(Dataset.from_graph(graph))
    termlevel = SparqlEvaluator(Dataset.from_graph(Graph(graph)), profile=ExecutionProfile.NAIVE)
    for text in queries:
        parsed = parse_query("PREFIX gmark: <http://example.org/gMark/>\n" + text)
        expected = termlevel.evaluate(parsed)
        actual = idnative.evaluate(parsed)
        if isinstance(expected, bool):
            assert actual is expected is True, text
        else:
            assert Counter(actual.rows()) == Counter(expected.rows()), text
            assert len(expected) > 0, text
