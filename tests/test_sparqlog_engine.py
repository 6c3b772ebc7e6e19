"""Tests for the SparqLog engine façade and the solution translation."""

import re
import weakref

import pytest

from collections import Counter

import repro.core.engine as core_engine
import repro.datalog.engine as datalog_engine
from repro.core.engine import SparqLogEngine
from repro.core.ontology import Ontology
from repro.core.query_translation import QueryTranslator
from repro.core.solution_translation import SolutionTranslator
from repro.datalog.engine import DatalogEngine, EvaluationLimitExceeded
from repro.datalog.terms import SkolemTerm
from repro.datalog.values import SkolemKey, ValueTable
from repro.obs import Tracer, trace_to_dict
from repro.rdf.graph import Dataset, Graph
from repro.rdf.terms import IRI, RDF, BlankNode, Literal, Triple, Variable
from repro.sparql.algebra import DatasetClause, OrderCondition
from repro.sparql.expressions import VariableExpr
from repro.sparql.modifiers import apply_order_by
from repro.store import EncodedGraph
from repro.workloads.gmark import generate_gmark_graph, generate_gmark_queries, social_scenario
from repro.workloads.sp2bench import SP2BenchWorkload, sp2bench_queries

from tests.helpers import (
    EX,
    countries_dataset,
    countries_graph,
    directors_dataset,
    rows_multiset,
)

PREFIX = "PREFIX ex: <http://ex.org/>\n"


class TestEngineBasics:
    def test_query_accepts_strings_and_parsed_queries(self):
        from repro.sparql.parser import parse_query

        engine = SparqLogEngine(countries_dataset())
        text = PREFIX + "SELECT ?x WHERE { ex:spain ex:borders ?x }"
        assert engine.query(text).to_set() == engine.query(parse_query(text)).to_set()

    def test_result_variable_order_follows_projection(self):
        engine = SparqLogEngine(countries_dataset())
        result = engine.query(PREFIX + "SELECT ?y ?x WHERE { ?x ex:borders ?y }")
        assert result.variables == [Variable("y"), Variable("x")]

    def test_order_by_applied(self):
        engine = SparqLogEngine(countries_dataset())
        result = engine.query(
            PREFIX + "SELECT ?b WHERE { ?a ex:borders ?b } ORDER BY ?b"
        )
        values = [row[0].value for row in result.rows()]
        assert values == sorted(values)

    def test_limit_offset_applied(self):
        engine = SparqLogEngine(countries_dataset())
        result = engine.query(
            PREFIX + "SELECT ?b WHERE { ?a ex:borders ?b } ORDER BY ?b LIMIT 2 OFFSET 1"
        )
        assert len(result) == 2

    def test_load_invalidates_cache(self):
        engine = SparqLogEngine(countries_dataset())
        assert len(engine.query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:borders ?y }")) == 5
        engine.load(directors_dataset())
        assert len(engine.query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:borders ?y }")) == 0

    def test_translate_exposes_program(self):
        engine = SparqLogEngine(countries_dataset())
        program, translation = engine.translate(
            PREFIX + "SELECT ?x WHERE { ex:spain ex:borders ?x }"
        )
        assert translation.answer_predicate in {rule.head.predicate for rule in program.rules}
        assert any(fact.predicate == "triple" for fact in program.facts)

    def test_timeout_propagates(self):
        # A cartesian blow-up should hit the engine's cooperative limits.
        big = Graph()
        for index in range(60):
            big.add(Triple(IRI(f"http://n/{index}"), EX.p, IRI(f"http://m/{index}")))
        engine = SparqLogEngine(Dataset.from_graph(big), max_facts=500)
        with pytest.raises(EvaluationLimitExceeded):
            engine.query(
                PREFIX + "SELECT ?a ?b ?c ?d WHERE { ?a ex:p ?b . ?c ex:p ?d }"
            )


    def test_zero_timeout_expires_immediately(self):
        engine = SparqLogEngine(countries_dataset(), timeout_seconds=0.0)
        with pytest.raises(EvaluationLimitExceeded):
            engine.query(PREFIX + "SELECT ?x WHERE { ex:spain ex:borders ?x }")

    def test_an_aggregate_skips_an_unbound_argument(self):
        # The translation's "null" stands for an unbound ?z: it is no value.
        graph = Graph(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.a, EX.p, EX.c), Triple(EX.c, EX.q, EX.d)]
        )
        text = (
            PREFIX + "SELECT ?x (COUNT(?z) AS ?n) (MAX(?z) AS ?m) "
            "WHERE { ?x ex:p ?y OPTIONAL { ?y ex:q ?z } } GROUP BY ?x"
        )
        result = SparqLogEngine(Dataset.from_graph(graph)).query(text)
        assert result.rows() == [(EX.a, Literal.from_python(1), EX.d)]

    def test_sample_answers_with_a_member_of_its_group(self):
        # SAMPLE may return any member (§18.5.1.8), so membership is the contract.
        members = {EX.a: {Literal.from_python(1), Literal.from_python(2)}, EX.b: {EX.c}}
        graph = Graph(
            [Triple(item, EX.v, value) for item, values in members.items() for value in values]
        )
        engine = SparqLogEngine(Dataset.from_graph(graph))
        grouped = engine.query(
            PREFIX + "SELECT ?x (SAMPLE(?o) AS ?s) WHERE { ?x ex:v ?o } GROUP BY ?x"
        ).rows()
        assert sorted(item for item, _ in grouped) == [EX.a, EX.b]
        for item, sample in grouped:
            assert sample in members[item]
        (only,) = engine.query(PREFIX + "SELECT (SAMPLE(?o) AS ?s) WHERE { ?x ex:v ?o }").rows()
        assert only[0] in members[EX.a] | members[EX.b]


BORDERS = PREFIX + "SELECT ?x ?y WHERE { ?x ex:borders ?y }"


class TestMaterialisedDataset:
    @pytest.mark.parametrize("backend", [Graph, EncodedGraph])
    def test_graph_mutation_between_queries_changes_the_answer(self, backend):
        graph = backend()
        graph.update(countries_graph())
        engine = SparqLogEngine(Dataset.from_graph(graph))
        assert len(engine.query(BORDERS)) == 5
        version = graph.version
        graph.add(Triple(EX.austria, EX.borders, EX.italy))
        assert graph.version > version
        assert len(engine.query(BORDERS)) == 6
        graph.remove(Triple(EX.spain, EX.borders, EX.france))
        assert len(engine.query(BORDERS)) == 5
        assert (engine.base_rebuilds, engine.base_hits) == (3, 0)

    def test_named_graph_mutation_and_registration_are_seen(self):
        dataset = Dataset()
        named = Graph([Triple(EX.a, EX.p, EX.b)])
        dataset.add_named_graph(IRI("http://g1"), named)
        engine = SparqLogEngine(dataset)
        query = PREFIX + "SELECT ?g ?s WHERE { GRAPH ?g { ?s ex:p ?o } }"
        assert len(engine.query(query)) == 1
        named.add(Triple(EX.c, EX.p, EX.d))
        assert len(engine.query(query)) == 2
        dataset.add_named_graph(IRI("http://g2"), Graph([Triple(EX.e, EX.p, EX.f)]))
        assert len(engine.query(query)) == 3

    def test_ontology_change_is_seen(self):
        graph = Graph([Triple(EX.rex, RDF.type, EX.Dog)])
        ontology = Ontology()
        engine = SparqLogEngine(Dataset.from_graph(graph), ontology=ontology)
        query = PREFIX + "SELECT ?x WHERE { ?x a ex:Animal }"
        assert len(engine.query(query)) == 0
        ontology.add_subclass(EX.Dog, EX.Animal)
        assert len(engine.query(query)) == 1

    def test_hundred_queries_leave_the_materialisation_unchanged(self):
        engine = SparqLogEngine(countries_dataset())
        queries = [
            BORDERS,
            PREFIX + "SELECT ?b WHERE { ex:spain ex:borders+ ?b }",
            PREFIX + "SELECT ?x ?z WHERE { ?x ex:borders ?y OPTIONAL { ?y ex:borders ?z } }",
            PREFIX + "SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a ex:borders ?b } GROUP BY ?a",
            PREFIX + "ASK WHERE { ?x ex:borders+ ex:austria }",
        ]
        expected = [rows_multiset(engine.query(query)) for query in queries]
        base = engine._base
        sizes = {predicate: len(relation) for predicate, relation in base.relations.items()}
        fact_count = base.fact_count
        for _ in range(20):
            for query, answer in zip(queries, expected):
                assert rows_multiset(engine.query(query)) == answer
        assert engine._base is base and base.fact_count == fact_count
        assert sizes == {
            predicate: len(relation) for predicate, relation in base.relations.items()
        }
        assert (engine.base_rebuilds, engine.base_hits) == (1, 104)

    def test_base_and_stratum_spans(self):
        tracer = Tracer("sparqlog")
        engine = SparqLogEngine(countries_dataset(), tracer=tracer)
        engine.query(BORDERS)
        engine.query(BORDERS)
        bases = [span for span in tracer.spans if span.name == "datalog.base"]
        assert len(bases) == 1
        assert bases[0].args["facts"] > 0 and bases[0].args["closure"] > bases[0].args["facts"]
        strata = [span for span in tracer.spans if span.name == "datalog.stratum"]
        assert strata and all(
            {"predicates", "rules", "rounds", "derived"} <= set(span.args) for span in strata
        )
        # The closure's strata nest under the base span, the queries' do not.
        assert any(span.parent is bases[0] for span in strata)
        assert any(span.parent is None for span in strata)
        trace_to_dict(tracer, validate=True)


def people_graph() -> Graph:
    graph = Graph()
    for index in range(6):
        graph.add(Triple(EX[f"n{index}"], EX.p, EX[f"n{index + 1}"]))
        graph.add(Triple(EX[f"n{index}"], EX.age, Literal.from_python(20 + index)))
    graph.add(Triple(EX.n0, EX.knows, EX.n3))
    graph.add(Triple(EX.n1, EX.knows, EX.n3))
    return graph


class TestWhatIsEvaluated:
    """T_Q is unfolded before it runs; counts and ``explain``, no wall clock."""

    def test_bgp_queries_run_one_rule_and_derive_only_answers(self):
        # q4 / q5a: eight- and six-pattern BGPs under a FILTER, 17 and 13
        # T_Q rules whose intermediates used to be materialised one by one.
        workload = SP2BenchWorkload(scale=0.05)
        queries = {query.query_id: query.text for query in workload.queries()}
        for query_id, rules_written in (("q4", 17), ("q5a", 13)):
            tracer = Tracer(query_id)
            engine = SparqLogEngine(workload.dataset(), tracer=tracer)
            engine.query("ASK { ?s ?p ?o }")  # closes the dataset
            del tracer.spans[:]
            answers = engine.query(queries[query_id])
            (unfolding,) = [span for span in tracer.spans if span.name == "datalog.unfold"]
            assert unfolding.args["rules_before"] == rules_written
            assert unfolding.args["rules_after"] == 1
            assert len(unfolding.args["unfolded"]) == rules_written - 1
            (component,) = [span for span in tracer.spans if span.name == "datalog.stratum"]
            assert component.args["rules"] == 1 and not component.args["recursive"]
            assert len(answers) > 0 and component.args["derived"] == len(answers)
            trace_to_dict(tracer, validate=True)

    def test_delta_rounds_only_where_there_is_recursion(self):
        workload = SP2BenchWorkload(scale=0.05)
        engine = SparqLogEngine(workload.dataset())
        for query in workload.queries():
            engine.query(query.text)
            assert engine.last_fixpoint_iterations == 0, query.query_id
        engine = SparqLogEngine(Dataset.from_graph(people_graph()))
        assert len(engine.query(PREFIX + "SELECT ?x WHERE { ex:n1 ex:p+ ?x }")) == 5
        assert engine.last_fixpoint_iterations >= 1

    def test_translate_and_query_program_still_return_t_q_as_written(self):
        engine = SparqLogEngine(Dataset.from_graph(people_graph()))
        query = PREFIX + "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:p ?z }"
        engine.query(query)
        assert len(engine.query_program(query).rules) == 4
        program, translation = engine.translate(query)
        assert {"ans1", "ans2", "ans3", translation.answer_predicate} <= program.predicates()

    def test_explain_bgp_with_filter(self):
        engine = SparqLogEngine(Dataset.from_graph(people_graph()))
        text = engine.explain(
            PREFIX
            + "SELECT DISTINCT ?x ?a WHERE { ?x ex:p ?y . ?x ex:knows ?z . ?x ex:age ?a FILTER(?a > 20) }"
        )
        assert text == """\
unfold: 7 rules -> 1 (unfolded: ans1, ans2, ans3, ans4, ans5, ans6)
component select7: recursive=False rounds=0 derived=1
  select7(V_a, V_x, D) :-
    D := «'default'»
    triple(V_x, «<http://ex.org/knows>», V_z, «'default'»)  [est 2]
    triple(V_x, «<http://ex.org/p>», V_y, «'default'»)  [est 1]
    triple(V_x, «<http://ex.org/age>», V_a, «'default'»)  [est 1]
    filter[Comparison(operator='>', left=?a, right="20"^^<http://www.w3.org/2001/XMLSchema#integer>)]"""

    def test_explain_recursive_path(self):
        engine = SparqLogEngine(Dataset.from_graph(people_graph()))
        text = engine.explain(PREFIX + "SELECT DISTINCT ?x ?y WHERE { ?x ex:p+ ?y }")
        # How many delta rounds the closure takes depends on set iteration order.
        assert re.sub(r"rounds=[1-9]\d*", "rounds=N", text) == """\
unfold: 5 rules -> 3 (unfolded: path1, ans3)
component path2: recursive=True rounds=N derived=21
  path2(X, Y, «'default'») :-
    triple(X, «<http://ex.org/p>», Y, «'default'»)  [est 6]
  path2(X, Z, «'default'») :-
    triple(X, «<http://ex.org/p>», Y, «'default'»)  [est 6]
    path2(Y, Z, «'default'»)  [est 110]
component select4: recursive=False rounds=0 derived=21
  select4(V_x, V_y, D) :-
    D := «'default'»
    path2(V_x, V_y, «'default'»)  [est 21]"""


    def test_explain_says_which_tuple_ids_went(self):
        # Query social-19 of the benchmark's gMark set: the alternative
        # under ``?`` (path7) is read only by the set-semantics path8, so
        # its ID column and the two assignments building it go, and each
        # remaining chain of IDs is one term.
        tracer = Tracer("social-19")
        engine = SparqLogEngine(Dataset.from_graph(people_graph()), tracer=tracer)
        text = engine.explain(
            "PREFIX gmark: <http://example.org/gMark/>\n"
            "SELECT ?x ?y WHERE { ?x (^gmark:livesIn|gmark:influences)"
            "/((gmark:influences|gmark:livesIn))? ?y }"
        )
        assert text.split("\n")[:2] == [
            "unfold: 14 rules -> 7 (unfolded: path1, path2, path3, path5, path6, path9, ans10)",
            "ids: 1 columns dropped (path7:0), 4 assignments dropped, 5 chains fused",
        ]
        (unfolding,) = [span for span in tracer.spans if span.name == "datalog.unfold"]
        assert unfolding.args["columns_dropped"] == ["path7:0"]
        assert (unfolding.args["assignments_dropped"], unfolding.args["chains_fused"]) == (4, 5)
        trace_to_dict(tracer, validate=True)
        assert "  path7(X, Y, «'default'») :-" in text
        fused = "Id := #f12:select∘f11:path-pattern∘f10:sequence[D, Id1~2, Id2, V_x, Y, V_y]"
        assert fused in text


def _tiny_suites():
    """The benchmark's tiny ``*_sparqlog`` inputs: gMark social at scale 0.02
    with 6 queries, SP2Bench at scale 0.02 with its first 5."""
    scenario = social_scenario().scaled(0.02)
    graph = generate_gmark_graph(scenario, seed=7)
    gmark = [query.text for query in generate_gmark_queries(scenario, graph, seed=38, count=6)]
    sp2bench = SP2BenchWorkload(scale=0.02, seed=1)
    return {
        "gmark": (Dataset.from_graph(graph), gmark),
        "sp2bench": (sp2bench.dataset(), [query.text for query in sp2bench_queries()[:5]]),
    }


#: Tuple IDs a warm pass interns: at most this many (the IDs the answers
#: need); 460 and 369 Skolem terms before unfolding trimmed and fused them.
_SKOLEM_TERMS_PER_WARM_PASS = {"gmark": 185, "sp2bench": 90}


def test_a_warm_pass_builds_a_tuple_id_per_row_not_per_operator(monkeypatch):
    built = []
    skolem = ValueTable.skolem

    def counted_skolem(self, functor, arguments):
        built.append(functor)
        return skolem(self, functor, arguments)

    monkeypatch.setattr(ValueTable, "skolem", counted_skolem)
    for name, (dataset, texts) in _tiny_suites().items():
        engine = SparqLogEngine(dataset)
        answers = [len(engine.query(text)) for text in texts]
        built.clear()
        assert [len(engine.query(text)) for text in texts] == answers
        assert 0 < len(built) <= _SKOLEM_TERMS_PER_WARM_PASS[name], name


def test_no_run_local_id_outlives_its_query(monkeypatch):
    # Pass 1 interns each text's constants for good; what a run interns
    # beyond them (tuple IDs, nulls, aggregate results) goes with the run.
    during = []
    translate_rows = SolutionTranslator.translate_rows

    def counted(self, rows, translation, table=None):
        during.append(len(table))
        return translate_rows(self, rows, translation, table)

    monkeypatch.setattr(SolutionTranslator, "translate_rows", counted)
    for name, (dataset, texts) in _tiny_suites().items():
        engine = SparqLogEngine(dataset)
        for text in texts:
            engine.query(text)
        table = engine._base.table
        during.clear()
        sizes = []
        for _ in range(2):
            for text in texts:
                engine.query(text)
                sizes.append(len(table))
        assert len(set(sizes)) == 1, (name, sizes)
        # The runs did intern tuple IDs, and none is left between queries.
        assert max(during) > sizes[0], name
        assert not any(type(value) is SkolemKey for value in table.values), name


#: RDF-term hashes of one warm pass of the tiny suites before the fixpoint
#: ran on interned ids (every insert and probe hashed term tuples), and the
#: factor they must at least fall by: 1 050 -> 0 and 1 314 -> 80 when pinned.
_TERM_HASHES_ON_TERM_TUPLES = {"gmark": 1050, "sp2bench": 1314}
_TERM_HASH_FACTOR = 10


def test_a_warm_pass_decodes_terms_only_where_they_are_read(monkeypatch):
    counts = Counter()
    for term_class in (IRI, Literal, BlankNode):
        def counted_hash(self, original=term_class.__hash__):
            counts["hash"] += 1
            return original(self)

        monkeypatch.setattr(term_class, "__hash__", counted_hash)
    init = SkolemTerm.__init__

    def counted_init(self, functor, arguments):
        counts["skolem"] += 1
        init(self, functor, arguments)

    monkeypatch.setattr(SkolemTerm, "__init__", counted_init)
    for name, (dataset, texts) in _tiny_suites().items():
        engine = SparqLogEngine(dataset)
        answers = [len(engine.query(text)) for text in texts]
        counts.clear()
        assert [len(engine.query(text)) for text in texts] == answers
        assert counts["skolem"] == 0, name
        assert counts["hash"] <= _TERM_HASHES_ON_TERM_TUPLES[name] // _TERM_HASH_FACTOR, name


def count_query_work(monkeypatch) -> Counter:
    """Count what a query costs between its text and its first probe.

    Calls of parse, T_Q, ``unfold``, ``components``, ``_order_body`` and
    ``_compile_rule`` — outside ``DatalogEngine.materialise``, which is how
    the T_D closure is built and is not the query's work.
    """
    calls: Counter = Counter()
    closing = []

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if not closing:
                calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(core_engine, "parse_query", "parse")
    counted(QueryTranslator, "translate", "translate")
    counted(datalog_engine, "unfold", "unfold")
    counted(datalog_engine, "components", "components")
    counted(DatalogEngine, "_order_body", "order")
    counted(DatalogEngine, "_compile_rule", "compile")
    materialise = DatalogEngine.materialise

    def closure(*args, **kwargs):
        closing.append(True)
        try:
            return materialise(*args, **kwargs)
        finally:
            closing.pop()

    monkeypatch.setattr(DatalogEngine, "materialise", closure)
    return calls


#: A recursive component, a join above it and an OPTIONAL: several rules,
#: several components, a delta plan compiled on first use.
REACHES = (
    PREFIX
    + "SELECT ?x ?z ?a WHERE { ?x ex:p+ ?y . ?y ex:knows ?z OPTIONAL { ?z ex:age ?a } }"
)
PER_TEXT = ("parse", "translate", "unfold", "components")
PER_BASE = ("order", "compile")


class TestPreparedOnce:
    """A text is prepared once; counts, not clocks."""

    def test_identical_text_only_runs_the_fixpoint(self, monkeypatch):
        graph = people_graph()
        engine = SparqLogEngine(Dataset.from_graph(graph))
        calls = count_query_work(monkeypatch)
        first = rows_multiset(engine.query(REACHES))
        assert len(first) > 0
        after_first = dict(calls)
        assert all(after_first[step] == 1 for step in PER_TEXT)
        assert all(after_first[step] >= 2 for step in PER_BASE)
        for _ in range(5):
            assert rows_multiset(engine.query(REACHES)) == first
        assert dict(calls) == after_first
        assert (engine.prepared_hits, engine.prepared_misses) == (5, 1)
        assert engine.prepared_rebinds == 0 and engine.last_fixpoint_iterations >= 1

        # A write keeps the text level; bodies are ordered and compiled once more.
        graph.add(Triple(EX.n6, EX.knows, EX.n0))
        changed = rows_multiset(engine.query(REACHES))
        assert len(changed) > len(first)
        for step in PER_TEXT:
            assert calls[step] == 1, step
        for step in PER_BASE:
            assert calls[step] == 2 * after_first[step], step
        assert engine.prepared_rebinds == 1
        engine.query(REACHES)
        assert calls["order"] == 2 * after_first["order"] and engine.prepared_rebinds == 1
        assert changed == rows_multiset(SparqLogEngine(Dataset.from_graph(graph)).query(REACHES))

    def test_parsed_query_is_prepared_run_and_dropped(self, monkeypatch):
        engine = SparqLogEngine(Dataset.from_graph(people_graph()))
        parsed = core_engine.parse_query(REACHES)
        calls = count_query_work(monkeypatch)
        assert rows_multiset(engine.query(parsed)) == rows_multiset(engine.query(parsed))
        assert calls["translate"] == calls["unfold"] == 2 and calls["parse"] == 0
        assert (engine.prepared_hits, engine.prepared_misses) == (0, 0)

    def test_from_query_reuses_the_text_and_rebuilds_the_base_level(self, monkeypatch):
        dataset = Dataset()
        dataset.add_named_graph(IRI("http://g1"), countries_graph())
        engine = SparqLogEngine(dataset)
        calls = count_query_work(monkeypatch)
        text = PREFIX + "SELECT ?x FROM <http://g1> WHERE { ex:spain ex:borders+ ?x }"
        for asked in range(1, 4):
            assert len(engine.query(text)) == 4
            assert all(calls[step] == 1 for step in PER_TEXT)
            assert calls["order"] == asked * 3 and calls["compile"] >= asked * 3
            assert (engine.base_rebuilds, engine.prepared_rebinds) == (asked, asked - 1)
        # Nothing of a per-call dataset is kept.
        assert not engine._prepared.get(text, None).program.bound_to(engine._base)
        assert engine._base is None

    def test_limits_are_checked_on_the_hit_path(self):
        big = Graph()
        for index in range(60):
            big.add(Triple(IRI(f"http://n/{index}"), EX.p, IRI(f"http://m/{index}")))
        engine = SparqLogEngine(Dataset.from_graph(big), max_facts=500)
        cartesian = PREFIX + "SELECT ?a ?b ?c ?d WHERE { ?a ex:p ?b . ?c ex:p ?d }"
        for _ in range(2):
            with pytest.raises(EvaluationLimitExceeded):
                engine.query(cartesian)
        assert engine.prepared_hits == 1
        engine.max_facts = 5_000_000
        assert len(engine.query(cartesian)) == 3600
        assert len(engine.query(cartesian)) == 3600
        engine.timeout_seconds = 0.0
        with pytest.raises(EvaluationLimitExceeded):
            engine.query(cartesian)
        engine.timeout_seconds = None
        assert len(engine.query(cartesian)) == 3600

    def test_fact_limit_inside_a_recursive_component_leaves_the_text_usable(self):
        graph = people_graph()
        engine = SparqLogEngine(Dataset.from_graph(graph))
        closure = PREFIX + "SELECT ?x ?y WHERE { ?x ex:p+ ?y }"
        expected = rows_multiset(engine.query(closure))
        base = engine._base
        engine.max_facts = base.fact_count + 10  # the closure has 21 pairs
        with pytest.raises(EvaluationLimitExceeded):
            engine.query(closure)
        engine.max_facts = 5_000_000
        assert rows_multiset(engine.query(closure)) == expected
        assert engine._base is base and engine.prepared_rebinds == 0

    def test_results_are_not_aliased_and_the_old_base_is_dropped(self):
        graph = people_graph()
        engine = SparqLogEngine(Dataset.from_graph(graph))
        held = engine.query(REACHES)
        snapshot = rows_multiset(held)
        engine.query(BORDERS)  # a second text compiled on the same base
        old_base = weakref.ref(engine._base)
        graph.add(Triple(EX.n6, EX.knows, EX.n0))
        assert rows_multiset(engine.query(REACHES)) != snapshot
        assert rows_multiset(held) == snapshot
        assert old_base() is None
        # No derived tuple stays in a prepared form between runs.
        bound = [prepared.program._bound for prepared in engine._prepared.values()]
        assert bound[0] is not None and bound[1] is None  # BORDERS was not asked again
        assert bound[0].scratch and not any(len(relation) for relation in bound[0].scratch)

    def test_one_text_over_the_bound_evicts_one(self, monkeypatch):
        monkeypatch.setattr(core_engine, "PREPARED_TEXTS", 4)
        engine = SparqLogEngine(Dataset.from_graph(people_graph()))
        texts = [
            PREFIX + f"SELECT ?x WHERE {{ ex:n{index} ex:p+ ?x }}" for index in range(5)
        ]
        for _ in range(2):
            for index, text in enumerate(texts):
                assert len(engine.query(text)) == 6 - index
        # Five texts through four slots, oldest out first: every ask a miss.
        assert (engine.prepared_hits, engine.prepared_misses) == (0, 10)
        assert engine.prepared_evictions == 6 and len(engine._prepared) == 4
        assert len(engine.query(texts[-1])) == 2 and engine.prepared_hits == 1

    def test_explain_says_what_was_reused(self):
        graph = people_graph()
        engine = SparqLogEngine(Dataset.from_graph(graph))
        built = engine.explain(REACHES)
        assert built.startswith("unfold: ")
        assert engine.explain(REACHES).split("\n", 1) == [
            "prepared: reused (parse, T_Q, unfold, body orders, compiled rules)",
            built,
        ]
        graph.add(Triple(EX.n9, EX.age, Literal.from_python(1)))
        assert engine.explain(REACHES).split("\n", 1) == [
            "prepared: reused (parse, T_Q, unfold); ordered and compiled anew",
            SparqLogEngine(Dataset.from_graph(graph)).explain(REACHES),
        ]
        # ``query`` and ``explain`` share the prepared form.
        engine.query(REACHES)
        assert (engine.prepared_hits, engine.prepared_misses) == (3, 1)

    def test_metrics_and_spans(self):
        tracer = Tracer("prepared")
        engine = SparqLogEngine(Dataset.from_graph(people_graph()), tracer=tracer)
        for _ in range(3):
            engine.query(REACHES)
        metrics = engine.metrics()
        assert metrics == {
            "sparqlog_base_hits_total": 2,
            "sparqlog_base_rebuilds_total": 1,
            "sparqlog_prepared_hits_total": 2,
            "sparqlog_prepared_misses_total": 1,
            "sparqlog_prepared_evictions_total": 0,
            "sparqlog_prepared_rebinds_total": 0,
            "sparqlog_prepared_texts": 1,
            "sparqlog_last_fixpoint_iterations": engine.last_fixpoint_iterations,
        }
        assert "sparqlog_prepared_hits_total 2" in engine.metrics_registry.render_prometheus()
        # Unfolding ran once; every run evaluated every component.
        names = Counter(span.name for span in tracer.spans if span.parent is None)
        assert names["datalog.unfold"] == 1
        assert names["datalog.stratum"] % 3 == 0 and names["datalog.stratum"] >= 6
        strata = [s for s in tracer.spans if s.name == "datalog.stratum" and s.parent is None]
        per_run = len(strata) // 3
        for first, later in zip(strata[:per_run], strata[2 * per_run:]):
            assert first.args == later.args
        trace_to_dict(tracer, validate=True)


class TestDatasetClauses:
    def _dataset(self) -> Dataset:
        dataset = Dataset()
        dataset.add_named_graph(IRI("http://g1"), countries_graph())
        dataset.add_named_graph(
            IRI("http://g2"), Graph([Triple(EX.a, EX.p, EX.b)])
        )
        return dataset

    def test_resolve_from_merges_into_default(self):
        active = self._dataset().active([DatasetClause(IRI("http://g1"), named=False)])
        assert len(active.default_graph) == 5
        assert not active.named_graphs

    def test_resolve_from_named_keeps_named(self):
        active = self._dataset().active([DatasetClause(IRI("http://g2"), named=True)])
        assert len(active.default_graph) == 0
        assert IRI("http://g2") in active.named_graphs

    def test_from_clause_in_query(self):
        engine = SparqLogEngine(self._dataset())
        result = engine.query(
            PREFIX
            + "SELECT ?x FROM <http://g1> WHERE { ex:spain ex:borders ?x }"
        )
        assert result.to_set() == {(EX.france,)}

    def test_from_named_with_graph_pattern(self):
        engine = SparqLogEngine(self._dataset())
        result = engine.query(
            PREFIX
            + "SELECT ?s FROM NAMED <http://g2> WHERE { GRAPH <http://g2> { ?s ex:p ?o } }"
        )
        assert result.to_set() == {(EX.a,)}


class TestSolutionTranslation:
    def test_null_constant_maps_to_unbound(self):
        engine = SparqLogEngine(directors_dataset())
        result = engine.query(
            PREFIX + "SELECT ?n ?l WHERE { ?x ex:name ?n OPTIONAL { ?x ex:lastname ?l } }"
        )
        rows = result.to_set()
        assert (Literal("Steven"), None) in rows

    def test_projecting_never_bound_variable(self):
        engine = SparqLogEngine(countries_dataset())
        result = engine.query(PREFIX + "SELECT ?nope ?x WHERE { ex:spain ex:borders ?x }")
        assert result.to_set() == {(None, EX.france)}

    def test_ask_translation_boolean(self):
        translator = SolutionTranslator()
        # Craft a fake ASK relation: a single row holding literal true.
        from repro.core.query_translation import QueryTranslator
        from repro.sparql.parser import parse_query

        translation = QueryTranslator().translate(
            parse_query(PREFIX + "ASK WHERE { ?x ex:borders ?y }")
        )
        relations = {translation.answer_predicate: {(Literal("true", None),)}}
        assert translator.translate(relations, translation) is True
        assert translator.translate({}, translation) is False

    def test_labelled_nulls_map_to_blank_nodes_one_to_one(self):
        from repro.core.query_translation import QueryTranslator
        from repro.sparql.parser import parse_query

        translation = QueryTranslator().translate(
            parse_query(PREFIX + "SELECT ?x ?y WHERE { ?x ex:borders ?y }")
        )
        x, y = Variable("x"), Variable("y")
        # ?x: 20 000 distinct nulls; ?y: the null that is row i // 2's ?x.
        rows = {
            ("id",) * translation.has_id_column
            + tuple(
                SkolemTerm("f", (EX.a, f"n{i if variable == x else i // 2}"))
                for variable in translation.answer_variables
            )
            for i in range(20_000)
        }
        result = SolutionTranslator().translate({translation.answer_predicate: rows}, translation)
        xs = [binding[x] for binding in result]
        ys = [binding[y] for binding in result]
        assert len(set(xs)) == 20_000 and len(set(ys)) == 10_000
        assert set(ys) <= set(xs)
        assert sum(left == right for left, right in zip(xs, ys)) == 1  # row 0 alone

    def test_distinct_projection_after_translation(self):
        engine = SparqLogEngine(countries_dataset())
        duplicated = engine.query(
            PREFIX + "SELECT ?x WHERE { ?x ex:borders ?y }"
        )
        deduplicated = engine.query(
            PREFIX + "SELECT DISTINCT ?x WHERE { ?x ex:borders ?y }"
        )
        assert len(duplicated) == 5
        assert Counter(row[0] for row in deduplicated.rows())[EX.france] == 1


class TestSolutionTranslationOrderBy:
    """The comparator both engines order by (:func:`repro.sparql.modifiers.apply_modifiers`)."""

    def _rows(self):
        lastname = Variable("l")
        bound = (Literal("Lucas"),)
        unbound = (None,)
        return lastname, bound, unbound

    def test_unbound_sorts_first_ascending(self):
        lastname, bound, unbound = self._rows()
        ordered = apply_order_by(
            (OrderCondition(VariableExpr(lastname), True),), [lastname], [bound, unbound]
        )
        assert ordered == [unbound, bound]

    def test_unbound_sorts_last_descending(self):
        # Regression for the ROADMAP-flagged semantics: DESC reverses the
        # whole ordering, so unbound keys move to the end (reference-engine
        # behaviour), in the translation exactly as in the evaluator.
        lastname, bound, unbound = self._rows()
        ordered = apply_order_by(
            (OrderCondition(VariableExpr(lastname), False),), [lastname], [unbound, bound]
        )
        assert ordered == [bound, unbound]
