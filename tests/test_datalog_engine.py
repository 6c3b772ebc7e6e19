"""Tests for the Warded Datalog± engine."""

import pytest

from repro.core.skolem import SkolemFunctionGenerator
from repro.datalog.engine import (
    DatalogEngine,
    EvaluationLimitExceeded,
    Materialisation,
)
from repro.datalog.rules import (
    AggregateRule,
    AggregateSpec,
    Assignment,
    Atom,
    Comparison,
    Negation,
    Program,
    Rule,
    SkolemExpr,
)
from repro.datalog.steps import compare_values
from repro.datalog.stratify import StratificationError, stratify
from repro.datalog.terms import Const, SkolemTerm, Var
from repro.obs import Tracer, trace_to_dict
from repro.rdf.terms import Literal


def c(value):
    return Const(value)


X, Y, Z, W = Var("X"), Var("Y"), Var("Z"), Var("W")


def edge_program(edges):
    program = Program()
    for source, target in edges:
        program.add_fact(Atom("edge", (c(source), c(target))))
    return program


class TestBasicEvaluation:
    def test_facts_only(self):
        program = edge_program([("a", "b")])
        result = DatalogEngine().evaluate(program)
        assert result["edge"] == {("a", "b")}

    def test_simple_rule(self):
        program = edge_program([("a", "b"), ("b", "c")])
        program.add_rule(Rule(Atom("node", (X,)), (Atom("edge", (X, Y)),)))
        result = DatalogEngine().evaluate(program)
        assert result["node"] == {("a",), ("b",)}

    def test_join(self):
        program = edge_program([("a", "b"), ("b", "c"), ("c", "d")])
        program.add_rule(
            Rule(Atom("two_hop", (X, Z)), (Atom("edge", (X, Y)), Atom("edge", (Y, Z))))
        )
        result = DatalogEngine().evaluate(program)
        assert result["two_hop"] == {("a", "c"), ("b", "d")}

    def test_transitive_closure(self):
        program = edge_program([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        program.add_rule(Rule(Atom("tc", (X, Y)), (Atom("edge", (X, Y)),)))
        program.add_rule(
            Rule(Atom("tc", (X, Z)), (Atom("edge", (X, Y)), Atom("tc", (Y, Z))))
        )
        result = DatalogEngine().evaluate(program)
        assert len(result["tc"]) == 16  # complete digraph on the 4-cycle

    def test_constants_in_rule_bodies(self):
        program = edge_program([("a", "b"), ("b", "c")])
        program.add_rule(
            Rule(Atom("from_a", (Y,)), (Atom("edge", (c("a"), Y)),))
        )
        result = DatalogEngine().evaluate(program)
        assert result["from_a"] == {("b",)}

    def test_unknown_predicate_in_body_yields_nothing(self):
        program = edge_program([("a", "b")])
        program.add_rule(Rule(Atom("out", (X,)), (Atom("missing", (X,)),)))
        result = DatalogEngine().evaluate(program)
        assert "out" not in result or result["out"] == set()


class TestNegationAndBuiltins:
    def test_stratified_negation(self):
        program = edge_program([("a", "b"), ("b", "c")])
        program.add_rule(Rule(Atom("node", (X,)), (Atom("edge", (X, Y)),)))
        program.add_rule(Rule(Atom("node", (Y,)), (Atom("edge", (X, Y)),)))
        program.add_rule(
            Rule(Atom("sink", (X,)), (Atom("node", (X,)), Negation(Atom("edge", (X, Y)))))
        )
        result = DatalogEngine().evaluate(program)
        assert result["sink"] == {("c",)}

    def test_negation_through_recursion_rejected(self):
        program = Program()
        program.add_fact(Atom("p", (c("a"),)))
        program.add_rule(Rule(Atom("q", (X,)), (Atom("p", (X,)), Negation(Atom("r", (X,))))))
        program.add_rule(Rule(Atom("r", (X,)), (Atom("q", (X,)),)))
        with pytest.raises(StratificationError):
            DatalogEngine().evaluate(program)

    def test_comparison_builtin(self):
        program = Program()
        for value in (1, 5, 9):
            program.add_fact(Atom("val", (c(value),)))
        program.add_rule(
            Rule(Atom("big", (X,)), (Atom("val", (X,)), Comparison(">", X, c(4))))
        )
        result = DatalogEngine().evaluate(program)
        assert result["big"] == {(5,), (9,)}

    def test_comparison_on_rdf_literals(self):
        assert compare_values(">", Literal.from_python(10), Literal.from_python(2))
        assert compare_values("=", Literal.from_python(2), Literal.from_python(2.0))
        assert not compare_values("<", Literal.from_python(3), Literal.from_python(1))

    def test_assignment_with_skolem(self):
        program = edge_program([("a", "b"), ("a", "b")])  # duplicate fact collapses
        program.add_rule(
            Rule(
                Atom("tagged", (Z, X, Y)),
                (Atom("edge", (X, Y)), Assignment(Z, SkolemExpr("f1", (X, Y)))),
            )
        )
        result = DatalogEngine().evaluate(program)
        assert result["tagged"] == {(SkolemTerm("f1", ("a", "b")), "a", "b")}

    def test_assignment_constant(self):
        program = edge_program([("a", "b")])
        program.add_rule(
            Rule(Atom("flag", (X, Z)), (Atom("edge", (X, Y)), Assignment(Z, c("yes"))))
        )
        result = DatalogEngine().evaluate(program)
        assert result["flag"] == {("a", "yes")}


class TestExistentialsAndAggregates:
    def test_existential_head_variable_becomes_skolem(self):
        program = Program()
        program.add_fact(Atom("person", (c("alice"),)))
        program.add_rule(
            Rule(
                Atom("has_parent", (X, Z)),
                (Atom("person", (X,)),),
                existential_variables=(Z,),
                label="parent",
            )
        )
        result = DatalogEngine().evaluate(program)
        ((person, parent),) = result["has_parent"]
        assert person == "alice"
        assert isinstance(parent, SkolemTerm)

    def test_aggregate_count(self):
        program = edge_program([("a", "b"), ("a", "c"), ("b", "c")])
        program.aggregate_rules.append(
            AggregateRule(
                head=Atom("degree", (X, W)),
                body=(Atom("edge", (X, Y)),),
                group_variables=(X,),
                aggregates=(AggregateSpec("COUNT", Y, W),),
            )
        )
        result = DatalogEngine().evaluate(program)
        degrees = {row[0]: row[1].as_python() for row in result["degree"]}
        assert degrees == {"a": 2, "b": 1}

    def test_aggregate_sum_min_max(self):
        program = Program()
        for name, value in [("a", 1), ("a", 4), ("b", 10)]:
            program.add_fact(Atom("m", (c(name), c(Literal.from_python(value)))))
        program.aggregate_rules.append(
            AggregateRule(
                head=Atom("s", (X, W)),
                body=(Atom("m", (X, Y)),),
                group_variables=(X,),
                aggregates=(AggregateSpec("SUM", Y, W),),
            )
        )
        result = DatalogEngine().evaluate(program)
        sums = {row[0]: row[1].as_python() for row in result["s"]}
        assert sums == {"a": 5, "b": 10}


class TestLimits:
    def test_fact_limit(self):
        program = Program()
        for index in range(20):
            program.add_fact(Atom("n", (c(index),)))
        program.add_rule(
            Rule(Atom("pair", (X, Y)), (Atom("n", (X,)), Atom("n", (Y,))))
        )
        with pytest.raises(EvaluationLimitExceeded):
            DatalogEngine(max_facts=100).evaluate(program)

    def test_timeout(self):
        program = Program()
        for index in range(200):
            program.add_fact(Atom("n", (c(index),)))
        program.add_rule(
            Rule(Atom("pair", (X, Y, Z)), (Atom("n", (X,)), Atom("n", (Y,)), Atom("n", (Z,))))
        )
        with pytest.raises(EvaluationLimitExceeded):
            DatalogEngine(timeout_seconds=0.05).evaluate(program)


    def test_timeout_zero_expires_immediately(self):
        program = edge_program([("a", "b")])
        program.add_rule(Rule(Atom("node", (X,)), (Atom("edge", (X, Y)),)))
        with pytest.raises(EvaluationLimitExceeded):
            DatalogEngine(timeout_seconds=0).evaluate(program)
        assert DatalogEngine(timeout_seconds=None).evaluate(program)["node"] == {("a",)}

    def test_timeout_fires_while_nothing_is_derived(self):
        # 8M candidate rows, every one rejected by the comparison: the
        # deadline is read on the probe cadence, not only per derived fact.
        program = Program()
        for index in range(200):
            program.add_fact(Atom("n", (c(index),)))
        program.add_rule(
            Rule(
                Atom("none", (X,)),
                (Atom("n", (X,)), Atom("n", (Y,)), Atom("n", (Z,)), Comparison("<", Z, c(-1))),
            )
        )
        with pytest.raises(EvaluationLimitExceeded):
            DatalogEngine(timeout_seconds=0.05).evaluate(program)


class TestCompiledRules:
    def test_rule_scanning_its_own_head_relation(self):
        program = edge_program([("a", "b"), ("b", "c")])
        program.add_rule(Rule(Atom("sym", (X, Y)), (Atom("edge", (X, Y)),)))
        program.add_rule(Rule(Atom("sym", (X, Y)), (Atom("sym", (Y, X)),)))
        result = DatalogEngine().evaluate(program)
        assert result["sym"] == {("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")}

    def test_variable_repeated_within_an_atom(self):
        program = edge_program([("a", "a"), ("a", "b"), ("b", "b")])
        program.add_rule(Rule(Atom("loop", (X,)), (Atom("edge", (X, X)),)))
        assert DatalogEngine().evaluate(program)["loop"] == {("a",), ("b",)}

    def test_assignment_to_a_bound_variable_compares(self):
        program = edge_program([("a", "b"), ("c", "c")])
        program.add_rule(
            Rule(Atom("same", (X,)), (Atom("edge", (X, Y)), Assignment(Y, X)))
        )
        assert DatalogEngine().evaluate(program)["same"] == {("c",)}

    def test_unbound_head_variable_raises_only_when_derived(self):
        program = edge_program([("a", "b")])
        program.add_rule(Rule(Atom("never", (Z,)), (Atom("missing", (X,)),)))
        DatalogEngine().evaluate(program)
        program.add_rule(Rule(Atom("bad", (Z,)), (Atom("edge", (X, Y)),)))
        with pytest.raises(ValueError):
            DatalogEngine().evaluate(program)


def closure_program():
    lower = edge_program([("a", "b"), ("b", "c"), ("c", "d")])
    lower.add_rule(Rule(Atom("tc", (X, Y)), (Atom("edge", (X, Y)),)))
    lower.add_rule(Rule(Atom("tc", (X, Z)), (Atom("edge", (X, Y)), Atom("tc", (Y, Z)))))
    upper = Program()
    upper.add_rule(
        Rule(Atom("far", (X, Y)), (Atom("tc", (X, Y)), Negation(Atom("edge", (X, Y)))))
    )
    return lower, upper


class TestMaterialisation:
    def test_overlay_on_a_base_equals_one_evaluation(self):
        lower, upper = closure_program()
        everything = Program()
        everything.extend(lower)
        everything.extend(upper)
        engine = DatalogEngine()
        base = engine.materialise(lower)
        assert isinstance(base, Materialisation)
        assert engine.evaluate(upper, base) == DatalogEngine().evaluate(everything)
        assert engine.evaluate(upper, base)["far"] == {("a", "c"), ("a", "d"), ("b", "d")}

    def test_base_is_unchanged_by_evaluations_on_top(self):
        lower, upper = closure_program()
        base = DatalogEngine().materialise(lower)
        sizes = {predicate: len(relation) for predicate, relation in base.relations.items()}
        assert base.fact_count == 3 + 6
        for _ in range(100):
            DatalogEngine().evaluate(upper, base)
        assert sizes == {
            predicate: len(relation) for predicate, relation in base.relations.items()
        }
        assert base.fact_count == 9
        assert "far" not in base.relations

    def test_defining_a_base_predicate_raises(self):
        lower, _ = closure_program()
        base = DatalogEngine().materialise(lower)
        into_base = Program()
        into_base.add_rule(Rule(Atom("edge", (Y, X)), (Atom("edge", (X, Y)),)))
        with pytest.raises(ValueError):
            DatalogEngine().evaluate(into_base, base)
        fact_into_base = Program()
        fact_into_base.add_fact(Atom("tc", (c("x"), c("y"))))
        with pytest.raises(ValueError):
            DatalogEngine().evaluate(fact_into_base, base)

    def test_max_facts_counts_the_base(self):
        lower, upper = closure_program()
        base = DatalogEngine().materialise(lower)
        assert DatalogEngine(max_facts=12).evaluate(upper, base)["far"]
        with pytest.raises(EvaluationLimitExceeded):
            DatalogEngine(max_facts=11).evaluate(upper, base)


class TestPrepareAndRun:
    """``materialise`` is ``prepare`` then ``run``; a prepared program can run again."""

    def test_second_run_reuses_orders_and_plans_and_aliases_nothing(self, monkeypatch):
        lower, upper = closure_program()
        upper.add_rule(Rule(Atom("reach", (X, Y)), (Atom("far", (X, Y)),)))
        upper.add_rule(Rule(Atom("reach", (X, Z)), (Atom("reach", (X, Y)), Atom("tc", (Y, Z)))))
        upper.aggregate_rules.append(
            AggregateRule(
                Atom("fanout", (X, Z)), (Atom("reach", (X, Y)),), (X,), (AggregateSpec("COUNT", Y, Z),)
            )
        )
        engine = DatalogEngine()
        base = engine.materialise(lower)
        expected = DatalogEngine().evaluate(upper, base)
        assert expected["fanout"] == {("a", Literal.from_python(2)), ("b", Literal.from_python(1))}

        ordered = []
        order_body = DatalogEngine._order_body
        monkeypatch.setattr(
            DatalogEngine,
            "_order_body",
            lambda self, *args: ordered.append(args[0]) or order_body(self, *args),
        )
        prepared = engine.prepare(upper)
        first = engine.run(prepared, base)
        assert first.fact_count == 9 + 3 + 3 + 2 and len(ordered) == 4
        held = first.tuples()
        assert held == expected
        # The relations are the prepared program's, the tuple sets the caller's.
        second = engine.run(prepared, base)
        assert len(ordered) == 4 and second.fact_count == first.fact_count
        assert second.tuples() == expected and held == expected
        assert all(second.tuples()[name] is not held[name] for name in ("far", "reach", "fanout"))
        assert [record["derived"] for record in prepared.evaluated()] == [3, 3, 2]
        prepared.release()
        assert held == expected and not second.relations["reach"].tuples
        assert len(second.relations["tc"]) == 6  # the base is not the prepared program's

        # Another base: ordered and compiled anew, and the old one let go.
        wider = edge_program([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        wider.rules = list(lower.rules)
        other = engine.materialise(wider)
        assert prepared.bound_to(base) and not prepared.bound_to(other)
        reference = DatalogEngine().evaluate(upper, other)
        del ordered[:]
        assert engine.run(prepared, other).tuples() == reference
        assert prepared.bound_to(other) and len(ordered) == 4
        prepared.unbind()
        assert not prepared.bound_to(other) and prepared.evaluated() == []

    def test_limits_are_those_of_the_engine_and_moment_of_the_run(self):
        lower, upper = closure_program()
        base = DatalogEngine().materialise(lower)
        engine = DatalogEngine()
        prepared = engine.prepare(upper)
        assert engine.run(prepared, base).tuples()["far"]
        engine.max_facts = 11
        with pytest.raises(EvaluationLimitExceeded):
            engine.run(prepared, base)
        engine.max_facts = 12
        assert len(engine.run(prepared, base).tuples()["far"]) == 3
        engine.timeout_seconds = 0
        with pytest.raises(EvaluationLimitExceeded):
            engine.run(prepared, base)
        # Compiled steps count through the engine that compiled them, so
        # another engine compiles its own — and applies its own limits.
        with pytest.raises(EvaluationLimitExceeded):
            DatalogEngine(max_facts=11).run(prepared, base)
        assert len(DatalogEngine().run(prepared, base).tuples()["far"]) == 3

    def test_prepare_reads_the_program_once(self):
        program = edge_program([("a", "b")])
        program.add_rule(Rule(Atom("node", (X,)), (Atom("edge", (X, Y)),)))
        engine = DatalogEngine()
        prepared = engine.prepare(program)
        program.add_fact(Atom("edge", (c("b"), c("c"))))
        program.rules.clear()
        assert engine.run(prepared).tuples() == {"edge": {("a", "b")}, "node": {("a",)}}


class TestStratumSpans:
    def test_one_span_per_stratum_with_rules(self):
        # One span per evaluated component: ``edge`` has no rules, so none.
        lower, upper = closure_program()
        lower.extend(upper)
        tracer = Tracer("datalog")
        DatalogEngine(tracer=tracer).evaluate(lower)
        spans = [span for span in tracer.spans if span.name == "datalog.stratum"]
        assert [span.args["predicates"] for span in spans] == [["tc"], ["far"]]
        assert [span.args["recursive"] for span in spans] == [True, False]
        assert [span.args["rules"] for span in spans] == [2, 1]
        assert [span.args["derived"] for span in spans] == [6, 3]
        assert spans[0].args["rounds"] >= 1 and spans[1].args["rounds"] == 0
        assert [len(span.args["plans"]) for span in spans] == [2, 1]
        trace_to_dict(tracer, validate=True)


def evaluated_bodies(program):
    """Per evaluated rule the ordered body as ``(element, estimate)`` pairs."""
    tracer = Tracer("order")
    DatalogEngine(tracer=tracer).materialise(program)
    return [
        [tuple(pair) for pair in plan["body"]]
        for span in tracer.spans
        if span.name == "datalog.stratum"
        for plan in span.args["plans"]
    ]


class TestBodyOrder:
    """The order a body runs in, observed through ``materialise``."""

    def test_small_relation_binds_before_the_big_one(self):
        # Used to keep source order: every predicate of the stratum, EDB
        # included, was priced as volatile, so all atoms tied.
        program = Program()
        for index in range(50):
            program.add_fact(Atom("big", (c(index % 5), c(index))))
        program.add_fact(Atom("small", (c(1),)))
        program.add_fact(Atom("small", (c(2),)))
        program.add_rule(Rule(Atom("out", (X, Y)), (Atom("big", (X, Y)), Atom("small", (X,)))))
        (body,) = evaluated_bodies(program)
        assert body == [("small(X)", 2.0), ("big(X, Y)", 10.0)]

    def test_recursive_atom_is_priced_above_stable_ones(self):
        program = edge_program([("a", "b"), ("b", "c")])
        program.add_rule(Rule(Atom("tc", (X, Y)), (Atom("edge", (X, Y)),)))
        program.add_rule(Rule(Atom("tc", (X, Z)), (Atom("tc", (Y, Z)), Atom("edge", (X, Y)))))
        _, recursive = evaluated_bodies(program)
        assert [element for element, _ in recursive] == ["edge(X, Y)", "tc(Y, Z)"]

    def test_comparison_runs_as_soon_as_its_variable_is_bound(self):
        # Used to wait for b(Y): a built-in was only placed when it preceded
        # the next atom in source order.
        program = Program()
        for index in range(6):
            program.add_fact(Atom("a", (c(index),)))
            program.add_fact(Atom("b", (c(index),)))
        program.add_rule(
            Rule(Atom("out", (X, Y)), (Atom("a", (X,)), Atom("b", (Y,)), Comparison("<", X, c(3))))
        )
        (body,) = evaluated_bodies(program)
        assert [element for element, _ in body] == ["a(X)", "X < «3»", "b(Y)"]
        assert len(DatalogEngine().evaluate(program)["out"]) == 18

    def test_constants_are_priced_by_their_bucket(self):
        # 1000 rows, 3 of them (S, "c1", "c2"): dividing 1000 by the distinct
        # counts of both positions says 0.001 rows.
        program = Program()
        for index in range(997):
            program.add_fact(Atom("t", (c(index), c(index), c(index))))
        for index in range(3):
            program.add_fact(Atom("t", (c(index), c("c1"), c("c2"))))
        program.add_rule(Rule(Atom("out", (X,)), (Atom("t", (X, c("c1"), c("c2"))),)))
        (body,) = evaluated_bodies(program)
        assert body == [("t(X, «'c1'», «'c2'»)", 3.0)]

    def test_tuple_ids_are_built_only_for_rows_that_survive(self, monkeypatch):
        # The ID and the comparison are ready at once, the ID first in the
        # source: the comparison that rejects half the rows runs first.
        built = []
        init = SkolemTerm.__init__

        def counted_init(self, functor, arguments):
            built.append(functor)
            init(self, functor, arguments)

        monkeypatch.setattr(SkolemTerm, "__init__", counted_init)
        program = Program()
        for index in range(10):
            program.add_fact(Atom("e", (c(index), c(index * 2))))
        identifier = SkolemFunctionGenerator().tuple_id_assignment(W, [X, Y])
        program.add_rule(
            Rule(Atom("out", (W, X)), (Atom("e", (X, Y)), identifier, Comparison("<", X, c(5))))
        )
        (body,) = evaluated_bodies(program)
        assert [element for element, _ in body] == ["e(X, Y)", "X < «5»", repr(identifier)]
        built.clear()
        rows = DatalogEngine().evaluate(program)["out"]
        assert len(rows) == len(built) == 5


class TestStratification:
    def test_strata_ordering(self):
        program = Program()
        program.add_fact(Atom("base", (c(1),)))
        program.add_rule(Rule(Atom("derived", (X,)), (Atom("base", (X,)),)))
        program.add_rule(
            Rule(Atom("top", (X,)), (Atom("base", (X,)), Negation(Atom("derived", (X,)))))
        )
        strata = stratify(program)
        stratum_of = {}
        for index, predicates in enumerate(strata):
            for predicate in predicates:
                stratum_of[predicate] = index
        assert stratum_of["derived"] < stratum_of["top"]

    def test_recursive_predicates_in_same_stratum(self):
        program = Program()
        program.add_fact(Atom("e", (c(1), c(2))))
        program.add_rule(Rule(Atom("tc", (X, Y)), (Atom("e", (X, Y)),)))
        program.add_rule(Rule(Atom("tc", (X, Z)), (Atom("e", (X, Y)), Atom("tc", (Y, Z)))))
        strata = stratify(program)
        for predicates in strata:
            if "tc" in predicates:
                assert "tc" in predicates
                break
        else:
            pytest.fail("tc not assigned to any stratum")
