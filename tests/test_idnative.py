"""Tests for id-native BGP execution and streaming FILTER pushdown.

Three layers of assurance that the id-space pipeline
(:mod:`repro.sparql.idexec`) is a pure optimisation:

* targeted unit tests for the moving parts — filter attachment, the
  compiled FILTER conjuncts (including the one genuinely subtle case:
  distinct dictionary ids for value-equal literals), path patterns
  inside an id-native plan,
* a hypothesis differential property: random BGP + FILTER queries on
  random graphs return the identical multiset of solutions under
  ``FULL`` and the unplanned ``NAIVE`` oracle on the hash store,
* a workload differential: every query of all five paper workloads,
  ``FULL`` vs ``NAIVE`` on a hash copy.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import bind_store_metrics
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import Literal, Triple, Variable, XSD_INTEGER
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.profile import ExecutionProfile
from repro.sparql.expressions import (
    And,
    Comparison,
    FunctionCall,
    TermExpr,
    VariableExpr,
    conjuncts,
)
from repro.sparql import physical
from repro.sparql.idexec import row_header
from repro.sparql.kernels import HEADER, compile_condition, condition_kernel
from repro.sparql.parser import parse_query
from repro.sparql.plan import attach_filters, plan_bgp
from repro.store import EncodedGraph, bulk_load_ntriples

from tests.helpers import EX, on_hash_store

PREFIX = "PREFIX ex: <http://ex.org/>\n"


def tp(subject, predicate, obj):
    from repro.sparql.algebra import TriplePatternNode

    return TriplePatternNode(Triple(subject, predicate, obj))


def _all_configurations(graph_triples):
    """FULL on the encoded store, NAIVE on the hash one.

    FULL lowers cyclic BGPs to the leapfrog-triejoin operator and pushes
    every FILTER conjunct into the pipeline; NAIVE is the oracle that
    shares no code with the step compiler: unplanned, pattern by pattern
    through ``match_triple`` and ``CompatIndex``.
    """
    return [
        SparqlEvaluator(Dataset.from_graph(EncodedGraph(graph_triples))),
        SparqlEvaluator(Dataset.from_graph(Graph(graph_triples)), profile=ExecutionProfile.NAIVE),
    ]


def _assert_all_equal(query_text, graph_triples):
    query = parse_query(query_text)
    results = [
        Counter(evaluator.evaluate(query).rows())
        for evaluator in _all_configurations(graph_triples)
    ]
    for other in results[1:]:
        assert other == results[0]
    return results[0]


# ----------------------------------------------------------------------
# filter attachment
# ----------------------------------------------------------------------
class TestAttachFilters:
    def _plan(self):
        graph = EncodedGraph([Triple(EX.s, EX.p, EX.o), Triple(EX.o, EX.q, EX.t)])
        x, y = Variable("x"), Variable("y")
        return plan_bgp(graph, [tp(EX.s, EX.p, x), tp(x, EX.q, y)]), x, y

    def test_condition_lands_after_earliest_binding_step(self):
        plan, x, y = self._plan()
        condition = Comparison("=", VariableExpr(x), TermExpr(EX.o))
        slots = attach_filters(plan, [condition])
        bound_first = plan.steps[0].node.variables()
        expected = 1 if x in bound_first else 2
        assert slots[expected] == (condition,)
        assert sum(len(slot) for slot in slots) == 1

    def test_variable_free_condition_lands_in_slot_zero(self):
        plan, _, _ = self._plan()
        condition = Comparison("=", TermExpr(EX.o), TermExpr(EX.o))
        slots = attach_filters(plan, [condition])
        assert slots[0] == (condition,)

    def test_never_bound_variable_lands_after_last_step(self):
        plan, _, _ = self._plan()
        condition = FunctionCall("BOUND", (VariableExpr(Variable("missing")),))
        slots = attach_filters(plan, [condition])
        assert slots[-1] == (condition,)

    def test_conjuncts_split_nested_and(self):
        x = VariableExpr(Variable("x"))
        a = Comparison("=", x, TermExpr(EX.o))
        b = Comparison("!=", x, TermExpr(EX.t))
        c = FunctionCall("ISIRI", (x,))
        assert conjuncts(And(And(a, b), c)) == [a, b, c]


# ----------------------------------------------------------------------
# compiled FILTER conjuncts (the operand matrix is tests/test_idkernels.py)
# ----------------------------------------------------------------------
class TestCompiledConditions:
    def _graph(self):
        graph = EncodedGraph()
        graph.add(Triple(EX.a, EX.p, Literal("1", XSD_INTEGER)))
        graph.add(Triple(EX.b, EX.p, Literal("01", XSD_INTEGER)))
        graph.add(Triple(EX.c, EX.p, EX.a))
        return graph

    def _test(self, graph, condition, bound=True):
        """Compile over one register for ?v; returns ``id -> verdict``."""
        v = Variable("v")
        registers = list(HEADER) + [None]
        test = compile_condition(
            condition, graph.dictionary, {v: len(HEADER)}, {v} if bound else set()
        )

        def verdict(term_id):
            registers[len(HEADER)] = term_id
            return test(registers)

        return verdict, registers

    def test_value_equal_literals_with_distinct_ids(self):
        # "1"^^xsd:integer and "01"^^xsd:integer intern to different ids
        # but compare =-equal by value: ids alone must not decide this.
        graph = self._graph()
        condition = Comparison(
            "=", VariableExpr(Variable("v")), TermExpr(Literal("01", XSD_INTEGER))
        )
        assert condition_kernel(condition) == "id"
        verdict, registers = self._test(graph, condition)
        one = graph.dictionary.id_for(Literal("1", XSD_INTEGER))
        zero_one = graph.dictionary.id_for(Literal("01", XSD_INTEGER))
        assert one != zero_one
        assert verdict(one) is True
        assert verdict(zero_one) is True
        assert registers[0] == 0  # decided in id space: no term fallback
        assert set(graph.dictionary.compare_keys) == {one, zero_one}

    def test_sameterm_distinguishes_value_equal_literals(self):
        graph = self._graph()
        condition = FunctionCall(
            "SAMETERM",
            (VariableExpr(Variable("v")), TermExpr(Literal("01", XSD_INTEGER))),
        )
        assert condition_kernel(condition) == "id"
        verdict, _ = self._test(graph, condition)
        assert verdict(graph.dictionary.id_for(Literal("01", XSD_INTEGER))) is True
        assert verdict(graph.dictionary.id_for(Literal("1", XSD_INTEGER))) is False

    def test_iri_inequality_of_two_variables_needs_no_keys(self):
        graph = self._graph()
        v, w = Variable("v"), Variable("w")
        base = len(HEADER)
        test = compile_condition(
            Comparison("!=", VariableExpr(v), VariableExpr(w)),
            graph.dictionary,
            {v: base, w: base + 1},
            {v, w},
        )
        a, b = graph.dictionary.id_for(EX.a), graph.dictionary.id_for(EX.b)
        assert test(list(HEADER) + [a, a]) is False
        assert test(list(HEADER) + [a, b]) is True
        assert not graph.dictionary.compare_keys  # decided on ids and kind tags

    def test_unbound_variable_is_an_error_hence_false(self):
        graph = self._graph()
        v = VariableExpr(Variable("v"))
        for condition in (
            Comparison("=", v, TermExpr(EX.a)),
            Comparison("!=", v, TermExpr(EX.a)),
            Comparison("<", v, TermExpr(Literal("1", XSD_INTEGER))),
            FunctionCall("SAMETERM", (v, TermExpr(EX.a))),
        ):
            verdict, _ = self._test(graph, condition, bound=False)
            assert verdict(None) is False

    def test_uninterned_constant_is_compared_by_key(self):
        graph = self._graph()
        v = VariableExpr(Variable("v"))
        a = graph.dictionary.id_for(EX.a)
        before = len(graph.dictionary)
        for condition, expected in (
            (Comparison("=", v, TermExpr(EX.never_seen)), False),
            (Comparison("!=", v, TermExpr(EX.never_seen)), True),
            (FunctionCall("SAMETERM", (v, TermExpr(EX.never_seen))), False),
        ):
            verdict, registers = self._test(graph, condition)
            assert verdict(a) is expected
            assert registers[0] == 0
        assert len(graph.dictionary) == before  # compiling interned nothing
        # ... and the verdict stays right once the constant *is* interned
        # (a cached plan can outlive that: no version bump).
        verdict, _ = self._test(graph, Comparison("=", v, TermExpr(EX.never_seen)))
        assert verdict(graph.dictionary.encode(EX.never_seen)) is True

    def test_other_conjuncts_fall_back_to_terms_and_count(self):
        graph = self._graph()
        condition = FunctionCall("ISIRI", (VariableExpr(Variable("v")),))
        assert condition_kernel(condition) == "term"
        verdict, registers = self._test(graph, condition)
        assert verdict(graph.dictionary.id_for(EX.a)) is True
        assert verdict(graph.dictionary.id_for(Literal("1", XSD_INTEGER))) is False
        assert registers[0] == 2


# ----------------------------------------------------------------------
# end-to-end id-native evaluation
# ----------------------------------------------------------------------
class TestIdNativeEvaluation:
    def _triples(self):
        return [
            Triple(EX.s1, EX.p, EX.o1),
            Triple(EX.s1, EX.q, Literal("1", XSD_INTEGER)),
            Triple(EX.s2, EX.p, EX.o2),
            Triple(EX.s2, EX.q, Literal("01", XSD_INTEGER)),
            Triple(EX.o1, EX.r, EX.s2),
        ]

    def test_filtered_bgp_matches_across_configurations(self):
        rows = _assert_all_equal(
            PREFIX
            + "SELECT ?s ?v WHERE { ?s ex:p ?o . ?s ex:q ?v . FILTER(?v = 1) }",
            self._triples(),
        )
        assert sum(rows.values()) == 2  # both integer spellings are =-equal

    def test_sameterm_filter_matches_across_configurations(self):
        rows = _assert_all_equal(
            PREFIX
            + 'SELECT ?s WHERE { ?s ex:q ?v . FILTER(sameTerm(?v, "1"^^'
            + "<http://www.w3.org/2001/XMLSchema#integer>)) }",
            self._triples(),
        )
        assert sum(rows.values()) == 1

    def test_nested_filters_and_conjunctions_push_down(self):
        _assert_all_equal(
            PREFIX
            + "SELECT ?s ?o WHERE { ?s ex:p ?o . ?o ex:r ?t ."
            + " FILTER(?s != ?t && isIRI(?o)) FILTER(bound(?s)) }",
            self._triples(),
        )

    def test_filter_on_variable_outside_bgp_drops_all_rows(self):
        rows = _assert_all_equal(
            PREFIX + "SELECT ?s WHERE { ?s ex:p ?o . FILTER(?nope = 1) }",
            self._triples(),
        )
        assert not rows

    def test_path_pattern_inside_id_native_bgp(self):
        _assert_all_equal(
            PREFIX + "SELECT ?s ?t WHERE { ?s ex:p/ex:r ?t . ?t ex:p ?o }",
            self._triples(),
        )
        _assert_all_equal(
            PREFIX + "SELECT ?s ?t WHERE { ?s (ex:p|ex:r)+ ?t . FILTER(?t = ex:s2) }",
            self._triples(),
        )

    def test_repeated_variable_in_triple_pattern(self):
        triples = self._triples() + [Triple(EX.loop, EX.p, EX.loop)]
        rows = _assert_all_equal(
            PREFIX + "SELECT ?x WHERE { ?x ex:p ?x }", triples
        )
        assert rows == Counter({(EX.loop,): 1})

    def test_constant_in_no_triple_empties_the_bgp(self):
        rows = _assert_all_equal(
            PREFIX + "SELECT ?s ?o WHERE { ?s ex:p ex:never_seen . ?s ex:q ?o }",
            self._triples(),
        )
        assert not rows

    @pytest.mark.parametrize("closure", ["*", "?"])
    def test_bound_non_node_endpoint_of_a_zero_length_path(self, closure):
        # ?a ranges over predicates; only ex:r is also a node of the graph,
        # so only it may match itself at length zero.
        triples = self._triples() + [Triple(EX.r, EX.p, EX.o1)]
        rows = _assert_all_equal(
            PREFIX + f"SELECT ?a ?t WHERE {{ ?s ?a ?o . ?a ex:p{closure} ?t }}", triples
        )
        assert set(rows) == {(EX.r, EX.r), (EX.r, EX.o1)}

    def test_path_step_runs_on_the_id_engine_of_the_encoded_store_only(self):
        from repro.sparql.algebra import PathPattern
        from repro.sparql.paths import LinkPath

        patterns = [PathPattern(Variable("a"), LinkPath(EX.p), Variable("b"))]
        encoded = EncodedGraph(self._triples())
        plan = physical.lower_bgp(encoded, patterns)
        assert len(list(physical.execute_rows(plan, encoded))) == 2
        with pytest.raises(TypeError, match="EncodedGraph"):
            physical.lower_bgp(Graph(self._triples()), patterns)

    def test_unseen_constant_empties_the_bgp(self):
        graph = EncodedGraph(self._triples())
        s, o = Variable("s"), Variable("o")
        # The second pattern alone has matches; the unseen constant in the
        # first one empties the whole conjunction, whatever the join order.
        plan = physical.lower_bgp(graph, [tp(s, EX.p, EX.never_seen), tp(s, EX.q, o)])
        before = len(graph.dictionary)
        assert list(physical.execute_rows(plan, graph)) == []
        # Looking the constant up must not intern it.
        assert len(graph.dictionary) == before

    def test_a_constant_end_restricts_the_probe_and_the_plan_reruns(self):
        graph = EncodedGraph(self._triples())
        o = Variable("o")
        plan = physical.lower_plan(plan_bgp(graph, [tp(EX.s1, EX.p, o)]), graph)
        assert row_header(plan) == (o,)
        assert list(physical.execute_rows(plan, graph)) == [(EX.o1,)]
        # The same plan object runs again on a later graph version.
        graph.add(Triple(EX.s1, EX.p, EX.o2))
        graph.add(Triple(EX.s2, EX.p, EX.o1))
        assert sorted(physical.execute_rows(plan, graph)) == [(EX.o1,), (EX.o2,)]

    def test_values_with_a_foreign_term_yields_nothing(self):
        rows = _assert_all_equal(
            PREFIX + "SELECT * WHERE { VALUES ?x { ex:unseen_subject } ?x ex:p ?o }",
            self._triples(),
        )
        assert not rows

    def test_ask_short_circuits_through_id_pipeline(self):
        dataset = Dataset.from_graph(EncodedGraph(self._triples()))
        evaluator = SparqlEvaluator(dataset)
        query = parse_query(
            PREFIX + "ASK WHERE { ?s ex:p ?o . FILTER(sameTerm(?o, ex:o1)) }"
        )
        assert evaluator.evaluate(query) is True


# ----------------------------------------------------------------------
# what FILTER pushdown and late decoding buy, in store probes and decodes
# ----------------------------------------------------------------------
class TestIdJoinWork:
    """A 90k-triple two-fan workload on the encoded store: 4 999 subjects,
    each with a ``:small`` and a larger ``:big`` fan.  The store's own
    counters (``bind_store_metrics``) price the pipeline: index probes
    issued and terms decoded."""

    WORK = ("store_index_probes_total", "store_dictionary_decodes_total")

    @pytest.fixture(scope="class")
    def graph(self):
        lines = []
        for i in range(90_000):
            # 4999 is coprime with the predicate strides: every subject gets both fans.
            subject = f"<http://ex.org/s{i % 4999}>"
            if i % 4 == 0:
                lines.append(f"{subject} <http://ex.org/small> <http://ex.org/o{(i // 4) % 9973}> .")
            elif i % 1000 == 1:
                lines.append(f"{subject} <http://ex.org/big> <http://ex.org/hub> .")
            else:
                lines.append(f"{subject} <http://ex.org/big> <http://ex.org/b{(i // 3) % 14983}> .")
        return bulk_load_ntriples("\n".join(lines))

    def _run(self, graph, text):
        evaluator = SparqlEvaluator(Dataset.from_graph(graph))
        bind_store_metrics(evaluator.metrics_registry, graph)
        before = evaluator.metrics()
        result = evaluator.evaluate(parse_query(PREFIX + text))
        after = evaluator.metrics()
        return Counter(result.rows()), tuple(after[name] - before[name] for name in self.WORK)

    def test_filter_selective_join(self, graph):
        text = "SELECT ?s ?a ?b WHERE { ?s ex:small ?a . ?s ex:big ?b . FILTER(?a = ex:o42) }"
        rows, work = self._run(graph, text)
        expected = Counter(
            (s, a, b)
            for s, _, a in graph.triples(None, EX.small, EX.o42)
            for _, _, b in graph.triples(s, EX.big, None)
        )
        assert rows == expected and sum(rows.values()) == 40
        # The conjunct kills a :small row as an id, right after the scan that
        # binds ?a: :big is probed for the 3 surviving subjects only, and
        # nothing is decoded but the 3 columns of the 40 answers (a FILTER
        # above the pipeline would probe :big for all 22 500 :small rows).
        assert work == (1 + 3, 3 * 40)

    def test_join_without_a_filter(self, graph):
        text = "SELECT ?s ?a WHERE { ?s ex:small ?a . ?s ex:big ex:hub }"
        rows, work = self._run(graph, text)
        assert sum(rows.values()) == 409
        # The pipeline decodes the 2 projected columns of the answers, not
        # the terms of the triples its scans touched.
        assert work == (91, 2 * 409)


# ----------------------------------------------------------------------
# hypothesis differential: random BGP + FILTER on random graphs
# ----------------------------------------------------------------------
_NODES = [EX[f"n{i}"] for i in range(6)]
_PREDICATES = [EX.p, EX.q]
_LITERALS = [
    Literal("1", XSD_INTEGER),
    Literal("01", XSD_INTEGER),
    Literal("2", XSD_INTEGER),
    Literal("alpha"),
]
_VARIABLES = [Variable(name) for name in ("x", "y", "z")]

edges = st.lists(
    st.tuples(
        st.sampled_from(_NODES),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_NODES + _LITERALS),
    ),
    min_size=0,
    max_size=20,
)

subject_part = st.sampled_from(_VARIABLES + _NODES)
object_part = st.sampled_from(_VARIABLES + _NODES + _LITERALS)
pattern = st.tuples(subject_part, st.sampled_from(_PREDICATES), object_part)
patterns = st.lists(pattern, min_size=1, max_size=3)

operand = st.sampled_from(
    [VariableExpr(variable) for variable in _VARIABLES]
    + [TermExpr(term) for term in _NODES[:2] + _LITERALS[:3]]
)
comparison = st.builds(
    Comparison, st.sampled_from(["=", "!=", "<", ">="]), operand, operand
)
sameterm = st.builds(
    lambda left, right: FunctionCall("SAMETERM", (left, right)), operand, operand
)
bound_call = st.builds(
    lambda variable: FunctionCall("BOUND", (VariableExpr(variable),)),
    st.sampled_from(_VARIABLES),
)
condition = st.one_of(comparison, sameterm, bound_call)
conditions = st.lists(condition, min_size=0, max_size=2)


@settings(max_examples=60, deadline=None)
@given(edges=edges, bgp=patterns, filter_conditions=conditions)
def test_differential_random_bgp_filters(edges, bgp, filter_conditions):
    """Every planned configuration agrees with the unplanned oracle."""
    from repro.sparql.algebra import (
        BGP,
        Filter,
        ProjectionItem,
        SelectQuery,
    )

    triples = [Triple(*edge) for edge in edges]
    node = BGP(tuple(tp(*parts) for parts in bgp))
    pattern_node = node
    for filter_condition in filter_conditions:
        pattern_node = Filter(pattern_node, filter_condition)
    variables = sorted(pattern_node.variables(), key=lambda v: v.name)
    query = SelectQuery(
        projection=tuple(ProjectionItem(variable) for variable in variables),
        pattern=pattern_node,
    )
    results = [
        Counter(evaluator.evaluate(query).rows())
        for evaluator in _all_configurations(triples)
    ]
    for other in results[1:]:
        assert other == results[0]


# ----------------------------------------------------------------------
# hypothesis differential: cyclic BGPs exercise the leapfrog operator
# ----------------------------------------------------------------------
_CYCLIC_SHAPES = [
    # triangle
    lambda x, y, z, w: [(x, EX.p, y), (y, EX.p, z), (z, EX.p, x)],
    # triangle over mixed predicates
    lambda x, y, z, w: [(x, EX.p, y), (y, EX.q, z), (z, EX.p, x)],
    # 4-cycle
    lambda x, y, z, w: [(x, EX.p, y), (y, EX.p, z), (z, EX.p, w), (w, EX.p, x)],
    # triangle + pendant edge (still cyclic after ear removal)
    lambda x, y, z, w: [
        (x, EX.p, y),
        (y, EX.p, z),
        (z, EX.p, x),
        (x, EX.q, w),
    ],
]


@settings(max_examples=40, deadline=None)
@given(
    edges=edges,
    shape=st.sampled_from(_CYCLIC_SHAPES),
    filter_conditions=conditions,
)
def test_differential_cyclic_bgps(edges, shape, filter_conditions):
    """Cyclic BGPs: leapfrog, binary-join and unplanned evaluations agree.

    The default evaluator lowers these shapes to the LeapfrogJoin
    operator, so this property differentially pins the WCOJ
    implementation against every other evaluation.
    """
    from repro.sparql.algebra import BGP, Filter, ProjectionItem, SelectQuery

    triples = [Triple(*edge) for edge in edges]
    x, y, z = _VARIABLES
    w = Variable("w")
    node = BGP(tuple(tp(*parts) for parts in shape(x, y, z, w)))
    pattern_node = node
    for filter_condition in filter_conditions:
        pattern_node = Filter(pattern_node, filter_condition)
    variables = sorted(pattern_node.variables(), key=lambda v: v.name)
    query = SelectQuery(
        projection=tuple(ProjectionItem(variable) for variable in variables),
        pattern=pattern_node,
    )
    results = [
        Counter(evaluator.evaluate(query).rows())
        for evaluator in _all_configurations(triples)
    ]
    for other in results[1:]:
        assert other == results[0]


# ----------------------------------------------------------------------
# workload differential: all five paper workloads
# ----------------------------------------------------------------------
def _workloads():
    from repro.workloads.beseppi import BeSEPPIWorkload
    from repro.workloads.feasible import FeasibleWorkload
    from repro.workloads.gmark import GMarkWorkload, test_scenario
    from repro.workloads.ontology_bench import OntologyBenchmark
    from repro.workloads.sp2bench import SP2BenchWorkload

    return [
        ("sp2bench", SP2BenchWorkload(scale=0.04)),
        ("gmark", GMarkWorkload(scenario=test_scenario(), scale=0.2)),
        ("beseppi", BeSEPPIWorkload()),
        ("feasible", FeasibleWorkload(scale=0.05)),
        ("ontology", OntologyBenchmark(scale=0.05)),
    ]


@pytest.mark.parametrize("name,workload", _workloads(), ids=lambda value: value if isinstance(value, str) else "")
def test_differential_workload_queries(name, workload):
    """Every workload query: FULL multiset == the unplanned oracle's on a hash copy."""
    dataset = workload.dataset()
    idnative = SparqlEvaluator(dataset)
    decoded = SparqlEvaluator(on_hash_store(dataset), profile=ExecutionProfile.NAIVE)
    compared = 0
    for query in workload.queries()[:8]:
        try:
            parsed = parse_query(query.text)
        except Exception:
            continue
        try:
            expected = decoded.evaluate(parsed)
        except Exception:
            continue
        actual = idnative.evaluate(parsed)
        if isinstance(expected, bool):
            assert actual == expected, query.query_id
        else:
            assert Counter(actual.rows()) == Counter(expected.rows()), query.query_id
        compared += 1
    assert compared > 0, f"no comparable queries in workload {name}"
