"""The compiled id pipeline beyond its kernels: the ``HashProbe`` operator,
per-execution counters of a cached plan, projection at the result
boundary, and what ``explain`` / ``metrics`` show of it.

``HashProbe`` is a lowering rule over the planner's order: a step that
shares no variable with the steps before it, linked only by a FILTER
conjunct ``?bound = ?fresh``, is built once and probed per outer row.
It must return exactly what the cross product + filter returned — so it
is compared with the unplanned ``NAIVE`` oracle on the hash store, in
particular where two *different* terms are ``=``
(``"1"^^xsd:integer`` / ``"1.0"^^xsd:decimal``, ``"a"`` /
``"a"^^xsd:string``) and where a term is ``=`` to nothing else.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import create_engine
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import (
    BlankNode,
    Literal,
    Triple,
    Variable,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql import operators, physical
from repro.sparql.algebra import TriplePatternNode
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.expressions import Comparison, VariableExpr, compile_condition, positional
from repro.sparql.idexec import row_header
from repro.sparql.parser import parse_query
from repro.sparql.profile import ExecutionProfile
from repro.sparql.solutions import Binding
from repro.store import EncodedGraph

from tests.helpers import EX

PREFIX = "PREFIX ex: <http://ex.org/>\n"

#: Values that meet under ``=`` in every way the comparison keys know.
_VALUES = [
    Literal("1", XSD_INTEGER),
    Literal("1.0", XSD_DECIMAL),
    Literal("01", XSD_INTEGER),
    Literal("2", XSD_INTEGER),
    Literal("a"),
    Literal("a", XSD_STRING),
    Literal("a", language="en"),
    Literal("NaN", XSD_DOUBLE),
    Literal("oops", XSD_INTEGER),
    EX.node,
    BlankNode("b"),
]


def _people_triples():
    """Two 'classes' of subjects with a name each, plus one link per subject."""
    triples = []
    for index, value in enumerate(_VALUES):
        triples.append(Triple(EX[f"a{index}"], EX.name, value))
        triples.append(Triple(EX[f"a{index}"], EX.kind, EX.A))
        # b-subjects carry the same values, shifted by one.
        shifted = _VALUES[(index + 1) % len(_VALUES)]
        triples.append(Triple(EX[f"b{index}"], EX.label, shifted))
        triples.append(Triple(EX[f"b{index}"], EX.kind, EX.B))
    return triples


_IMPLICIT_JOIN = (
    PREFIX
    + "SELECT ?x ?y ?n ?m WHERE { ?x ex:kind ex:A . ?x ex:name ?n . "
    "?y ex:label ?m . ?y ex:kind ex:B . FILTER(?n = ?m) }"
)


def _evaluators(triples):
    yield "full/id", SparqlEvaluator(Dataset.from_graph(EncodedGraph(triples)))
    # The oracle that shares no code with the step compiler.
    yield "naive/hash", SparqlEvaluator(
        Dataset.from_graph(Graph(triples)), profile=ExecutionProfile.NAIVE
    )


def _hash_probes(plan):
    return [op for op in plan.operators() if isinstance(op, operators.HashProbe)]


# ----------------------------------------------------------------------
# the lowering rule
# ----------------------------------------------------------------------
class TestLoweringRule:
    def test_implicit_join_lowers_to_hash_probe_with_golden_explain(self):
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_people_triples())))
        rendered = evaluator.explain(parse_query(_IMPLICIT_JOIN))
        assert rendered == """\
Project [?m, ?n, ?x, ?y]
└─ IndexNestedLoopJoin steps=4
   ├─ Scan TP(?x <http://ex.org/kind> <http://ex.org/A>) est=11 probe=?PO entry
   ├─ Scan TP(?x <http://ex.org/name> ?n) est=1 probe=SP? entry
   ├─ HashProbe TP(?y <http://ex.org/label> ?m) on (?n = ?m) build_est=11
   └─ Scan TP(?y <http://ex.org/kind> <http://ex.org/B>) est=0.5 probe=SPO member"""
        (probe,) = _hash_probes(evaluator.last_physical_plan)
        assert (probe.probe, probe.build) == (Variable("n"), Variable("m"))

    def test_explain_analyze_prices_a_probe_per_outer_row(self):
        # 11 label triples over 11 distinct values: one expected per probe.
        # Found: 19 pairs for 11 outer rows ("1" = "1.0" = "01", "a" = "a"^^xsd:string).
        report = create_engine(EncodedGraph(_people_triples())).explain_analyze(_IMPLICIT_JOIN)
        (line,) = [line for line in report.text.splitlines() if "HashProbe" in line]
        assert "on (?n = ?m) build_est=11 | time=" in line
        assert line.endswith(" rows=19 probes=11 actual=1.72727/probe err=0.58x")
        (entry,) = [entry for entry in report.plan.analysis() if entry["operator"] == "HashProbe"]
        assert entry["estimate"] == 1.0
        assert (entry["rows"], entry["probes"]) == (19, 11)
        assert entry["flagged"] is False

    def test_remaining_conjuncts_of_the_slot_stay_a_filter(self):
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_people_triples())))
        rendered = evaluator.explain(
            parse_query(
                PREFIX
                + "SELECT * WHERE { ?x ex:name ?n . ?y ex:label ?m . "
                "FILTER(?n = ?m && ?x != ?y && isLiteral(?m)) }"
            )
        )
        assert "Filter (?x != ?y) && ISLITERAL(?m) kernel=id+term" in rendered
        assert "HashProbe TP(?y <http://ex.org/label> ?m) on (?n = ?m)" in rendered

    @pytest.mark.parametrize(
        "body",
        [
            # The equality is not the only link: ?y is already bound, the
            # step is an index probe on it and must stay one.
            "?x ex:name ?n . ?x ex:knows ?y . ?y ex:label ?m . FILTER(?n = ?m)",
            # Not an equality between two variables.
            "?x ex:name ?n . ?y ex:label ?m . FILTER(?n != ?m)",
            "?x ex:name ?n . ?y ex:label ?m . FILTER(?n = \"a\")",
            # Equates two variables of the same step.
            "?x ex:name ?n . ?y ex:label ?m . FILTER(?y = ?m)",
        ],
    )
    def test_rule_does_not_fire(self, body):
        triples = _people_triples() + [Triple(EX.a0, EX.knows, EX.b0)]
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(triples)))
        evaluator.explain(parse_query(PREFIX + "SELECT * WHERE { " + body + " }"))
        assert not _hash_probes(evaluator.last_physical_plan)


# ----------------------------------------------------------------------
# differential: HashProbe == cross product + FILTER
# ----------------------------------------------------------------------
class TestDifferential:
    def test_value_equal_join_keys_across_profiles_and_backends(self):
        query = parse_query(_IMPLICIT_JOIN)
        results = {}
        for name, evaluator in _evaluators(_people_triples()):
            results[name] = Counter(evaluator.evaluate(query).rows())
            if name == "full/id":
                assert _hash_probes(evaluator.last_physical_plan)
        reference = results["naive/hash"]
        pairs = {(row[2], row[3]) for row in reference}
        # Different terms, one value — and terms that equal only themselves.
        assert (Literal("1", XSD_INTEGER), Literal("1.0", XSD_DECIMAL)) in pairs
        assert (Literal("1.0", XSD_DECIMAL), Literal("01", XSD_INTEGER)) in pairs
        assert (Literal("a"), Literal("a", XSD_STRING)) in pairs
        for loner in (Literal("a", language="en"), Literal("NaN", XSD_DOUBLE), EX.node):
            assert [pair for pair in pairs if loner in pair] == [(loner, loner)]
        for name, rows in results.items():
            assert rows == reference, name

    def test_duplicates_on_both_sides_keep_bag_semantics(self):
        triples = [
            Triple(EX.x1, EX.name, Literal("k")),
            Triple(EX.x2, EX.name, Literal("k")),
            Triple(EX.y1, EX.label, Literal("k", XSD_STRING)),
            Triple(EX.y2, EX.label, Literal("k")),
            Triple(EX.y3, EX.label, Literal("other")),
        ]
        query = parse_query(
            PREFIX + "SELECT ?n WHERE { ?x ex:name ?n . ?y ex:label ?m . FILTER(?m = ?n) }"
        )
        results = [Counter(e.evaluate(query).rows()) for _, e in _evaluators(triples)]
        assert results[0] == Counter({(Literal("k"),): 4})
        for other in results[1:]:
            assert other == results[0]

    def test_repeated_variable_in_the_build_pattern(self):
        triples = [
            Triple(EX.x1, EX.name, EX.loop),
            Triple(EX.loop, EX.label, EX.loop),
            Triple(EX.loop, EX.label, EX.other),
            Triple(EX.other, EX.label, EX.other),
        ]
        query = parse_query(
            PREFIX + "SELECT ?x ?m WHERE { ?x ex:name ?n . ?m ex:label ?m . FILTER(?n = ?m) }"
        )
        results = [Counter(e.evaluate(query).rows()) for _, e in _evaluators(triples)]
        assert results[0] == Counter({(EX.x1, EX.loop): 1})
        for other in results[1:]:
            assert other == results[0]

    @settings(max_examples=60, deadline=None)
    @given(
        names=st.lists(st.sampled_from(_VALUES), min_size=1, max_size=6),
        labels=st.lists(st.sampled_from(_VALUES), min_size=0, max_size=6),
        flipped=st.booleans(),
        extra_filter=st.sampled_from(["", " FILTER(?x != ?y)", " FILTER(?m >= ?n)"]),
    )
    def test_random_implicit_joins(self, names, labels, flipped, extra_filter):
        triples = [Triple(EX[f"x{i}"], EX.name, value) for i, value in enumerate(names)]
        triples += [Triple(EX[f"y{i}"], EX.label, value) for i, value in enumerate(labels)]
        triples += [Triple(EX[f"y{i}"], EX.kind, EX.B) for i in range(0, len(labels), 2)]
        equality = "?m = ?n" if flipped else "?n = ?m"
        query = parse_query(
            PREFIX
            + "SELECT ?x ?y ?n ?m WHERE { ?x ex:name ?n . ?y ex:label ?m . ?y ex:kind ex:B . "
            f"FILTER({equality}){extra_filter} }}"
        )
        results = [Counter(e.evaluate(query).rows()) for _, e in _evaluators(triples)]
        for other in results[1:]:
            assert other == results[0]

    def test_initial_binding_on_either_side_of_the_probe(self):
        graph = EncodedGraph(_people_triples())
        x, n, y, m = (Variable(name) for name in "xnym")
        condition = Comparison("=", VariableExpr(n), VariableExpr(m))
        patterns = [
            TriplePatternNode(Triple(x, EX.name, n)),
            TriplePatternNode(Triple(y, EX.label, m)),
        ]
        plan = physical.lower_bgp(graph, patterns, (condition,))
        assert _hash_probes(plan)
        cross_product = physical.lower_bgp(graph, patterns)
        header = row_header(plan)
        test = compile_condition(condition, positional(header))

        def filtered(initial=Binding()):
            assert row_header(cross_product, initial) == row_header(plan, initial) == header
            rows = physical.execute_rows(cross_product, graph, initial=initial)
            return Counter(row for row in rows if test(row))

        everything = Counter(physical.execute_rows(plan, graph))
        assert everything == filtered()
        for initial in (
            Binding({x: EX.a0}),  # restricts the outer side
            Binding({y: EX.b0}),  # restricts the build pattern
            Binding({m: Literal("1.0", XSD_DECIMAL)}),  # pre-binds the build key
            Binding({n: Literal("1", XSD_INTEGER), m: Literal("01", XSD_INTEGER)}),
        ):
            expected = filtered(initial)
            assert Counter(physical.execute_rows(plan, graph, initial=initial)) == expected
            assert sum(expected.values()) > 0
        # The variants were compiled per domain and the unrestricted one survives.
        assert Counter(physical.execute_rows(plan, graph)) == everything


# ----------------------------------------------------------------------
# counters: per execution, also on a cached, shared plan
# ----------------------------------------------------------------------
def _two_hop_triples():
    """20 x ``a p b``, four ``b q c`` each: 80 rows of ``?a p ?b . ?b q ?c``."""
    triples = []
    for index in range(20):
        triples.append(Triple(EX[f"a{index}"], EX.p, EX[f"b{index}"]))
        triples += [Triple(EX[f"b{index}"], EX.q, EX[f"c{index}_{j}"]) for j in range(4)]
    return triples


_TWO_HOP = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:q ?c }"


def _clique_triples():
    """Every ordered pair of six nodes: 6 * 5 * 4 = 120 directed triangles."""
    nodes = [EX[f"n{index}"] for index in range(6)]
    return [Triple(a, EX.p, b) for a in nodes for b in nodes if a != b]


_TRIANGLE = PREFIX + "SELECT * WHERE { ?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a }"

#: name -> (triples, query, result rows): the ``HashProbe`` plan, a
#: two-pattern join, and the leapfrog triejoin, which counts in its own
#: registers too.
_COUNTED = {
    "hashprobe": (_people_triples, _IMPLICIT_JOIN, 19),
    "join": (_two_hop_triples, _TWO_HOP, 80),
    "leapfrog": (_clique_triples, _TRIANGLE, 120),
}
_every_counted_plan = pytest.mark.parametrize("name", sorted(_COUNTED))


class TestCounters:
    def _plan(self, name="hashprobe"):
        triples, query, _ = _COUNTED[name]
        graph = EncodedGraph(triples())
        evaluator = SparqlEvaluator(Dataset.from_graph(graph))
        evaluator.evaluate(parse_query(query))
        return graph, evaluator.last_physical_plan

    @staticmethod
    def _counts(plan):
        return [(entry["rows"], entry["probes"]) for entry in plan.counters()]

    def test_hash_probe_counts_outer_rows_pairs_and_one_build_scan(self):
        graph, plan = self._plan()
        store = graph.enable_counters()
        before = store.index_probes
        rows = list(physical.execute_rows(plan, graph))
        (probe,) = _hash_probes(plan)
        outer = len(_VALUES)
        assert probe.stats.probes == outer
        # One row per (x, y) pair with equal values: what the FILTER kept.
        # (11 identical pairs, 6 among the spellings of one, 2 of "a".)
        assert probe.stats.rows == len(rows) == 19
        # 1 scan + 11 name probes + 1 build scan + 19 kind probes.
        assert store.index_probes - before == 1 + outer + 1 + len(rows)

    @_every_counted_plan
    def test_each_execution_reports_its_own_counts_when_interleaved(self, name):
        graph, plan = self._plan(name)
        total = _COUNTED[name][-1]
        join = plan.root.child
        assert (bool(_hash_probes(plan)), type(join).__name__) in (
            (True, "IndexNestedLoopJoin"),
            (False, "IndexNestedLoopJoin"),
            (False, "LeapfrogJoin"),
        )
        list(physical.execute_rows(plan, graph))
        full = self._counts(plan)
        if name == "join/baseline":
            # Project, IndexNestedLoopJoin, Scan ?a p ?b, Scan ?b q ?c: a lone run's.
            assert full == [(80, 0), (80, 0), (20, 1), (80, 20)]
        if _hash_probes(plan):
            # Project, join, Scan ?x kind A, Scan ?x name ?n, HashProbe, Scan ?y kind B —
            # the counts of the streamed scans, now a stream, an entry and a verdict.
            assert full == [(19, 0), (19, 0), (11, 1), (11, 11), (19, 11), (19, 19)]
        if isinstance(join, operators.LeapfrogJoin):
            # Project, LeapfrogJoin, then per scan (candidate ids, sorted runs fetched).
            assert full == [(120, 0), (120, 0), (36, 7), (186, 36), (156, 31)]
        partial_stream = physical.execute_rows(plan, graph)
        next(partial_stream), next(partial_stream)
        partial_stream.close()
        partial = self._counts(plan)
        assert partial[0] == (2, 0) and partial != full

        # Two executions of the one cached plan, advanced in turns; the
        # first is abandoned after two rows, as LIMIT 2 would.
        first = physical.execute_rows(plan, graph)
        second = physical.execute_rows(plan, graph)
        rows = [next(first), next(second), next(first), next(second)]
        first.close()
        assert self._counts(plan) == partial
        rows += list(second)
        assert self._counts(plan) == full
        assert len(rows) == 2 + total

    @_every_counted_plan
    def test_nested_execution_of_the_same_plan(self, name):
        graph, plan = self._plan(name)
        rows = _COUNTED[name][-1]
        list(physical.execute_rows(plan, graph))
        full = self._counts(plan)
        total = 0
        for _ in physical.execute_rows(plan, graph):
            total += len(list(physical.execute_rows(plan, graph)))
            assert self._counts(plan) == full  # the inner run's own
        assert total == rows * rows
        assert self._counts(plan) == full  # the outer run's own

    def test_limit_and_ask_report_the_rows_they_pulled(self):
        evaluator = SparqlEvaluator(Dataset.from_graph(EncodedGraph(_people_triples())))
        evaluator.evaluate(parse_query(_IMPLICIT_JOIN + " LIMIT 3"))
        counters = evaluator.last_physical_plan.counters()
        assert counters[0]["operator"] == "Project" and counters[0]["rows"] == 3
        (probe,) = _hash_probes(evaluator.last_physical_plan)
        assert 1 <= probe.stats.probes < len(_VALUES)
        assert evaluator.evaluate(
            parse_query(PREFIX + "ASK { ?x ex:name ?n . ?y ex:label ?m . FILTER(?n = ?m) }")
        )
        assert evaluator.last_physical_plan.counters()[0]["rows"] == 1

    @_every_counted_plan
    def test_compiled_form_is_reused_until_the_graph_changes(self, name):
        graph, plan = self._plan(name)
        list(physical.execute_rows(plan, graph))
        compiled = dict(plan._compiled)
        list(physical.execute_rows(plan, graph))
        assert plan._compiled == compiled
        # A constant that is in no triple empties the plan only as long
        # as that stays true.
        x = Variable("x")
        absent = physical.lower_bgp(graph, [TriplePatternNode(Triple(x, EX.kind, EX.C))])
        assert list(physical.execute_rows(absent, graph)) == []
        graph.add(Triple(EX.late, EX.kind, EX.C))
        assert row_header(absent) == (x,)
        assert list(physical.execute_rows(absent, graph)) == [(EX.late,)]


# ----------------------------------------------------------------------
# the result boundary decodes what the query reads
# ----------------------------------------------------------------------
class TestProjection:
    _QUERY = (
        PREFIX
        + "SELECT DISTINCT ?n WHERE { ?x ex:kind ex:A . ?x ex:name ?n . FILTER(?n != ex:node) }"
    )

    def test_explain_shows_the_decoded_set(self):
        engine = create_engine(EncodedGraph(_people_triples()))
        assert engine.explain(self._QUERY).splitlines()[0] == "Project [?n] distinct"
        ordered = self._QUERY + " ORDER BY ?x"
        assert engine.explain(ordered).splitlines()[0] == "Project [?n, ?x]"
        counted = PREFIX + "SELECT (COUNT(?x) AS ?c) WHERE { ?x ex:kind ex:A . ?x ex:name ?n }"
        assert engine.explain(counted).splitlines()[0] == "Project [?x]"
        everything = PREFIX + "SELECT * WHERE { ?x ex:kind ex:A . ?x ex:name ?n }"
        assert engine.explain(everything).splitlines()[0] == "Project [?n, ?x]"
        ask = PREFIX + "ASK { ?x ex:kind ex:A . ?x ex:name ?n }"
        assert engine.explain(ask).splitlines()[0] == "Project []"

    def test_only_the_read_variables_are_decoded(self):
        graph = EncodedGraph(_people_triples())
        decodes = graph.dictionary.enable_counters()
        engine = create_engine(graph)
        before = decodes.decodes
        result = engine.query(self._QUERY)
        assert len(result) == len(_VALUES) - 1
        assert decodes.decodes - before == len(_VALUES) - 1  # ?n per kept row, nothing else
        before = decodes.decodes
        assert engine.query(PREFIX + "ASK { ?x ex:kind ex:A . ?x ex:name ?n }") is True
        assert decodes.decodes == before

    @pytest.mark.parametrize(
        "tail",
        [
            "SELECT ?n WHERE { %s }",
            "SELECT DISTINCT ?n WHERE { %s } ORDER BY DESC(?x)",
            "SELECT (STR(?n) AS ?s) ?x WHERE { %s } ORDER BY ?s",
            "SELECT ?k (COUNT(?n) AS ?c) WHERE { %s } GROUP BY ?k HAVING (COUNT(?x) > 1)",
            "SELECT (SAMPLE(?n) AS ?s) WHERE { %s } GROUP BY ?x",
            "SELECT ?x WHERE { %s } LIMIT 4",
        ],
    )
    def test_projected_plans_agree_with_the_oracles(self, tail):
        body = "?x ex:kind ?k . ?x ex:name ?n . FILTER(?n != ex:node)"
        query = parse_query(PREFIX + tail % body)
        named = [(name, e.evaluate(query)) for name, e in _evaluators(_people_triples())]
        results = [result for _, result in named]
        if query.limit is not None:
            assert {len(result) for result in results} == {4}
            return
        for other in results[1:]:
            assert Counter(other.rows()) == Counter(results[0].rows())
        if query.order_by:
            # Ties stand in pipeline order, which the unplanned oracle does not share.
            for name, other in named[1:]:
                assert other.rows() == results[0].rows() or name.startswith("naive/")

    def test_rows_of_other_shapes_are_still_projected(self):
        # The evaluator skips its own projection only for a pattern that is
        # one planned pipeline; a plan left behind by an earlier query, or
        # by a UNION branch whose Project list happens to be the
        # projection, says nothing about the rows of this one.
        for _, evaluator in _evaluators(_people_triples()):
            evaluator.evaluate(parse_query(PREFIX + "SELECT ?x ?n WHERE { ?x ex:name ?n }"))
            shapes = [
                "SELECT ?x ?n WHERE { { ?x ex:kind ?k . ?x ex:name ?n } UNION { ?x ex:name ?n } }",
                "SELECT ?x ?n WHERE { ?x ex:name ?n OPTIONAL { ?x ex:kind ?k } }",
                "SELECT ?x ?n WHERE { VALUES (?x ?n ?k) { (ex:a ex:b ex:c) } }",
            ]
            for shape in shapes:
                result = evaluator.evaluate(parse_query(PREFIX + shape))
                assert len(result) > 0
                domains = {frozenset(binding.variables()) for binding in result}
                assert domains == {frozenset({Variable("x"), Variable("n")})}, shape


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_filter_lines_name_their_kernel(self):
        engine = create_engine(EncodedGraph(_people_triples()))
        body = "?x ex:kind ex:A . ?x ex:name ?n . FILTER(%s)"
        for condition, kernel in (
            ('?n < "b"', "id"),
            ("sameTerm(?n, ex:node)", "id"),
            ("isLiteral(?n)", "term"),
            ("?n = ex:node || ?x = ex:a1", "term"),
            ('?n < "b" && isLiteral(?n)', "id+term"),
        ):
            rendered = engine.explain(PREFIX + "SELECT * WHERE { " + body % condition + " }")
            assert f"kernel={kernel}\n" in rendered, rendered
            analyzed = engine.explain_analyze(
                PREFIX + "SELECT * WHERE { " + body % condition + " }"
            )
            assert f" kernel={kernel} | time=" in analyzed.text

    def test_term_fallbacks_are_counted_in_engine_metrics(self):
        engine = create_engine(EncodedGraph(_people_triples()))
        name = "sparql_filter_term_fallbacks_total"
        assert engine.metrics()[name] == 0
        body = "SELECT ?x WHERE { ?x ex:kind ex:A . ?x ex:name ?n . FILTER(%s) }"
        engine.query(PREFIX + body % '?n <= "b"')
        engine.query(PREFIX + body % "?n = ?n && ?x != ex:a0")
        assert engine.metrics()[name] == 0  # kernels only
        engine.query(PREFIX + body % "isLiteral(?n)")
        assert engine.metrics()[name] == len(_VALUES)  # one evaluation per row
        # A cached plan keeps counting, an early exit counts what it ran.
        engine.query(PREFIX + body % "isLiteral(?n)")
        assert engine.metrics()[name] == 2 * len(_VALUES)
        ask = "ASK { ?x ex:kind ex:A . ?x ex:name ?n . FILTER(isIRI(?x)) }"
        assert engine.query(PREFIX + ask) is True
        assert engine.metrics()[name] == 2 * len(_VALUES) + 1

    def test_leapfrog_level_filters_use_the_same_kernels_and_counter(self):
        triples = [
            Triple(EX.a, EX.p, EX.b),
            Triple(EX.b, EX.p, EX.c),
            Triple(EX.c, EX.p, EX.a),
            Triple(EX.a, EX.v, Literal("1", XSD_INTEGER)),
        ]
        engine = create_engine(EncodedGraph(triples))
        triangle = "?a ex:p ?b . ?b ex:p ?c . ?c ex:p ?a ."
        assert len(engine.query(PREFIX + f"SELECT * WHERE {{ {triangle} FILTER(?a != ?b) }}")) == 3
        assert isinstance(engine.evaluator.last_physical_plan.root.child, operators.LeapfrogJoin)
        assert engine.metrics()["sparql_filter_term_fallbacks_total"] == 0
        assert len(engine.query(PREFIX + f"SELECT * WHERE {{ {triangle} FILTER(isIRI(?c)) }}")) == 3
        assert engine.metrics()["sparql_filter_term_fallbacks_total"] == 3


# ----------------------------------------------------------------------
# live views still differentiate a plan with a HashProbe
# ----------------------------------------------------------------------
def test_view_over_an_implicit_join_is_maintained_by_deltas():
    graph = EncodedGraph(_people_triples())
    with create_engine(graph) as engine:
        view = engine.materialize(
            PREFIX + "SELECT ?x ?y WHERE { ?x ex:name ?n . ?y ex:label ?m . FILTER(?n = ?m) }"
        )
        assert view.maintenance == "delta"
        before = Counter(view.rows())
        graph.add(Triple(EX.fresh, EX.label, Literal("2.0", XSD_DECIMAL)))
        after = Counter(view.rows())
        assert after - before == Counter({(EX.a3, EX.fresh): 1})
        assert after == Counter(engine.query(view.query).rows())
