"""Tests for the Warded Datalog± engine."""

import pytest

import repro.datalog.engine as datalog_engine
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
from repro.datalog.steps import BATCH, Relation, compare_values
from repro.datalog.stratify import StratificationError, stratify
from repro.datalog.terms import Const, SkolemTerm, Var
from repro.datalog.values import ValueTable
from repro.obs import Tracer, trace_to_dict
from repro.rdf.terms import IRI, Literal


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

    def test_values_of_every_kind_are_stored_as_ids_and_come_back_as_they_went_in(self):
        a, x = IRI("http://ex.org/a"), Literal("x")
        program = Program()
        program.add_fact(Atom("item", (c(a), c("label"), c(1))))
        program.add_fact(Atom("item", (c(x), c("other"), c(2))))
        program.add_rule(
            Rule(
                Atom("tagged", (W, X, Y)),
                (Atom("item", (X, Z, Y)), Assignment(W, SkolemExpr("id", (X, Y)))),
            )
        )
        # An existential head over a tuple ID: a null nesting a Skolem term.
        program.add_rule(
            Rule(
                Atom("wrapped", (W, Z)),
                (Atom("tagged", (W, X, Y)),),
                existential_variables=(Z,),
                label="wrap",
            )
        )
        program.add_rule(
            Rule(Atom("small", (X, c("yes"))), (Atom("item", (X, Z, Y)), Comparison("<", Y, c(2))))
        )
        materialised = DatalogEngine().materialise(program)
        assert all(
            type(value) is int
            for relation in materialised.relations.values()
            for row in relation
            for value in row
        )
        first, second = SkolemTerm("id", (a, 1)), SkolemTerm("id", (x, 2))
        expected = {
            "item": {(a, "label", 1), (x, "other", 2)},
            "tagged": {(first, a, 1), (second, x, 2)},
            "wrapped": {
                (first, SkolemTerm("∃wrap:Z", (first,))),
                (second, SkolemTerm("∃wrap:Z", (second,))),
            },
            "small": {(a, "yes")},
        }
        assert materialised.tuples() == expected == DatalogEngine().evaluate(program)


class TestValueTable:
    def test_a_run_drops_what_it_added_and_keeps_what_was_interned(self):
        table = ValueTable()
        kept = table.intern(Literal("a"))
        run = table.begin()
        null = table.skolem("f", (kept,))
        table.add(Literal.from_python(3))
        assert table.value(null) == SkolemTerm("f", (Literal("a"),))
        assert table.intern(Literal("a")) == kept and len(table) == 4
        table.end(run)
        assert len(table) == 2 and table.values == [None, Literal("a")]
        assert table.add(Literal.from_python(3)) == null  # the ids are handed out again

    def test_a_run_keeps_what_a_later_run_or_an_intern_may_hold(self):
        table = ValueTable()
        first = table.begin()
        table.skolem("f", (0,))
        second = table.begin()
        table.skolem("g", (0,))
        table.end(first)  # a later run began and may hold its ids: nothing goes
        assert len(table) == 3
        constant = table.intern("c")  # interned during a run: kept, with every id below
        table.skolem("h", (0,))
        table.end(second)
        assert len(table) == 4 and table.value(constant) == "c"
        table.end(second)
        assert len(table) == 4

    def test_equality_keys_are_the_kernels_and_go_with_their_run(self):
        integer = IRI("http://www.w3.org/2001/XMLSchema#integer")
        table = ValueTable()
        one = table.intern(Literal("1", integer))
        also_one = table.intern(Literal("01", integer))
        resource = table.intern(IRI("http://ex.org/a"))
        assert table.equality_key(one) == table.equality_key(also_one) == (2, 1.0)
        assert table.equality_key(resource) == resource  # equal only to itself
        run = table.begin()
        two = table.add(Literal("2", integer))
        assert table.equality_key(two) == (2, 2.0)
        table.end(run)
        # The id is handed out again, to a value with another key.
        assert table.add(IRI("http://ex.org/b")) == two and table.equality_key(two) == two
        assert table.equality_key(one) == (2, 1.0)

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


    def test_fact_limit_overshoots_by_at_most_one_batch(self, monkeypatch):
        # 64 x 192 = 3 * BATCH distinct pairs from 256 facts: the first full
        # batch crosses max_facts, and the head holds that batch and no more.
        program = Program()
        for index in range(64):
            program.add_fact(Atom("n", (c(index),)))
        for index in range(192):
            program.add_fact(Atom("m", (c(index),)))
        program.add_rule(Rule(Atom("pair", (X, Y)), (Atom("n", (X,)), Atom("m", (Y,)))))
        merged = recorded_merges(monkeypatch)
        with pytest.raises(EvaluationLimitExceeded):
            DatalogEngine(max_facts=BATCH).evaluate(program)
        head = merged[-1][0]
        assert 0 < len(head) <= BATCH + BATCH
        assert max(size for _, size in merged) <= BATCH


def recorded_merges(monkeypatch):
    """Record ``(relation, batch size)`` for every ``Relation.merge`` call."""
    merged = []
    merge = Relation.merge

    def recording(self, rows, new=None):
        merged.append((self, len(rows)))
        return merge(self, rows, new)

    monkeypatch.setattr(Relation, "merge", recording)
    return merged


def chain_closure(length, right_linear=False, reverse=False):
    """``tc`` over a chain of ``length`` edges (facts in chain order or
    reversed), as a left- or right-linear closure."""
    edges = [(f"v{index}", f"v{index + 1}") for index in range(length)]
    program = edge_program(edges[::-1] if reverse else edges)
    program.add_rule(Rule(Atom("tc", (X, Y)), (Atom("edge", (X, Y)),)))
    if right_linear:
        step = (Atom("edge", (X, Y)), Atom("tc", (Y, Z)))
    else:
        step = (Atom("tc", (X, Y)), Atom("edge", (Y, Z)))
    program.add_rule(Rule(Atom("tc", (X, Z)), step))
    return program


class TestBatchedDerivation:
    """Head rows reach a relation per batch; what that pins."""

    def test_a_warm_run_merges_ten_thousand_rows_in_three_batches(self, monkeypatch):
        facts = Program()
        for index in range(100):
            facts.add_fact(Atom("n", (c(index),)))
            facts.add_fact(Atom("m", (c(index),)))
        program = Program()
        program.add_rule(Rule(Atom("pair", (X, Y)), (Atom("n", (X,)), Atom("m", (Y,)))))
        engine = DatalogEngine()
        base = engine.materialise(facts)
        prepared = engine.prepare(program)
        assert len(engine.run(prepared, base).rows("pair")) == 10_000
        merged = recorded_merges(monkeypatch)
        result = engine.run(prepared, base)
        assert len(result.rows("pair")) == 10_000 and result.fact_count == 10_200
        assert len(merged) == -(-10_000 // BATCH) == 3
        assert [size for _, size in merged] == [BATCH, BATCH, 10_000 - 2 * BATCH]

    def test_per_rule_counts_tell_found_from_derived(self):
        # Duplicate derivations: a node with two out-edges is found twice.
        program = edge_program([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
        program.add_rule(Rule(Atom("node", (X,)), (Atom("edge", (X, Y)),)))
        program.add_rule(Rule(Atom("node", (Y,)), (Atom("edge", (X, Y)),)))
        program.add_rule(Rule(Atom("tc", (X, Y)), (Atom("edge", (X, Y)),)))
        program.add_rule(Rule(Atom("tc", (X, Z)), (Atom("tc", (X, Y)), Atom("edge", (Y, Z)))))
        engine = DatalogEngine()
        prepared = engine.prepare(program)
        for _ in range(2):  # counts are per run, not summed over runs
            engine.run(prepared)
            counts = {
                tuple(record["predicates"]): [
                    (plan["found"], plan["derived"]) for plan in record["plans"]
                ]
                for record in prepared.evaluated()
            }
            # node: a, a, b, c (3 new), then b, c, c, d (1 new).  tc: the 4
            # edges; then a-c, a-d, b-d (2 new) on the full relation, and the
            # same 3 again from the delta round over all 6 (none new).
            assert counts == {("node",): [(4, 3), (4, 1)], ("tc",): [(4, 4), (6, 2)]}
        assert [record["derived"] for record in prepared.evaluated()] == [4, 6]
        assert [record["rounds"] for record in prepared.evaluated()] == [0, 1]

    @pytest.mark.parametrize("right_linear", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("length", [2, 5, 10, 40])
    def test_a_chain_closure_takes_one_round_per_path_length_beyond_two(
        self, length, reverse, right_linear
    ):
        # The initial round finds the paths of length 1 and 2; round k finds
        # those of length k + 2, and the round that finds none ends it.  A
        # row is probed only once its batch is merged, so neither the order
        # of the facts nor that of the body changes the count.
        engine = DatalogEngine()
        result = engine.evaluate(chain_closure(length, right_linear, reverse))
        assert len(result["tc"]) == length * (length + 1) // 2
        assert engine.fixpoint_iterations == length - 1


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
        order_body = datalog_engine.order_body
        monkeypatch.setattr(
            datalog_engine,
            "order_body",
            lambda *args: ordered.append(args[0]) or order_body(*args),
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
        # Counted: the tuple IDs interned during the run.
        built = []
        skolem = ValueTable.skolem

        def counted_skolem(self, functor, arguments):
            built.append(functor)
            return skolem(self, functor, arguments)

        monkeypatch.setattr(ValueTable, "skolem", counted_skolem)
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
