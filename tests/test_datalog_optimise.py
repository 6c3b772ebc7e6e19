"""Tests for the rewrites of ``repro.datalog.optimise``: ``unfold`` and ``trim``.

``unfold`` must preserve the extension of every kept predicate tuple for
tuple, Skolem tuple IDs included.  ``trim`` must too, except that it may
rename tuple IDs (:class:`TupleIdExpr` values) one-to-one: where a program
has marked IDs, kept predicates are compared as bags of their other
columns.  The oracle is always the program run as written: a program
without ``@output`` directives is never rewritten by the engine.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.data_translation import DataTranslator
from repro.core.skolem import SkolemFunctionGenerator
from repro.core.query_translation import QueryTranslator
from repro.datalog.engine import DatalogEngine
from repro.datalog.optimise import trim, unfold
from repro.datalog.rules import (
    AggregateRule,
    AggregateSpec,
    Assignment,
    Atom,
    Comparison,
    FilterCondition,
    Negation,
    Program,
    Rule,
    SkolemExpr,
    TupleIdExpr,
)
from repro.datalog.terms import Const, Var
from repro.datalog.wardedness import analyze_wardedness
from repro.rdf.terms import Literal, Variable
from repro.sparql.expressions import Comparison as FilterComparison, VariableExpr
from repro.sparql.parser import parse_query

from tests.test_property_based import _merged, layered_programs
from tests.test_translation_differential import WORKLOADS

X, Y, Z, W = Var("X"), Var("Y"), Var("Z"), Var("W")


def c(value):
    return Const(value)


def program_of(facts, *rules, output=()):
    program = Program()
    for predicate, rows in facts.items():
        for row in rows:
            program.add_fact(Atom(predicate, tuple(c(value) for value in row)))
    for rule in rules:
        program.add_rule(rule)
    for predicate in output:
        program.add_directive("output", predicate)
    return program


def as_written(program):
    """The same program without directives: the engine leaves it alone."""
    return Program(
        rules=list(program.rules),
        facts=list(program.facts),
        aggregate_rules=list(program.aggregate_rules),
    )


def heads(program):
    return [rule.head.predicate for rule in program.rules]


EDGES = {"e": [(1, 2), (2, 3), (3, 3), (3, 4)]}


# ----------------------------------------------------------------------
# (a) random programs
# ----------------------------------------------------------------------
_DOMAIN = range(3)
_CONSTANT = st.sampled_from(_DOMAIN).map(Const)
#: Mostly variables: a constant in every other atom leaves few answers to compare.
_TERM = st.one_of(*[st.sampled_from([X, Y, Z])] * 4, _CONSTANT)


@st.composite
def chained_programs(draw):
    """Layers ``q1 .. qn`` of mostly single-rule predicates reading lower ones.

    Built to be unfolded: call and head arguments mix variables, repeated
    variables and constants, bodies carry comparisons, assignments (Skolem
    terms included) and negated EDB atoms, and some predicates get a second
    rule or are read twice.
    """
    program = Program()
    for name in ("e0", "e1"):
        pairs = st.tuples(st.sampled_from(_DOMAIN), st.sampled_from(_DOMAIN))
        for left, right in draw(st.sets(pairs, min_size=4, max_size=8)):
            program.add_fact(Atom(name, (c(left), c(right))))
    arity = {"e0": 2, "e1": 2}

    def atom_over(predicates):
        name = draw(st.sampled_from(predicates))
        return Atom(name, tuple(draw(_TERM) for _ in range(arity[name])))

    for layer in range(1, draw(st.integers(2, 5)) + 1):
        name = f"q{layer}"
        lower = sorted(arity)
        arity[name] = draw(st.integers(1, 3))
        for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
            # Mostly the layer just below, so that chains form.
            body = [atom_over(lower[-1:] if draw(st.booleans()) else lower)]
            body += [atom_over(lower) for _ in range(draw(st.integers(0, 2)))]
            bound = sorted({v for atom in body for v in atom.variables()}, key=lambda v: v.name)
            extra = draw(st.sampled_from(["", "", "comparison", "negation", "assignment"]))
            if bound and extra == "comparison":
                operator = draw(st.sampled_from(["=", "!=", "<", ">="]))
                body.append(Comparison(operator, draw(st.sampled_from(bound)), draw(_TERM)))
            if bound and extra == "negation":
                body.append(Negation(Atom("e1", (draw(st.sampled_from(bound)), draw(_TERM)))))
            if extra == "assignment":
                value = draw(st.one_of(_CONSTANT, st.just(SkolemExpr(f"f{layer}", tuple(bound)))))
                body.append(Assignment(W, value))
                bound.append(W)
            head_term = st.one_of(*[st.sampled_from(bound)] * 4, _CONSTANT) if bound else _CONSTANT
            head = Atom(name, tuple(draw(head_term) for _ in range(arity[name])))
            program.add_rule(Rule(head, tuple(body)))
    return program


def assert_kept_predicates_unchanged(program, keep):
    expected = DatalogEngine(max_facts=50_000).evaluate(program)
    rewritten = DatalogEngine(max_facts=50_000).evaluate(unfold(program, keep))
    declared = as_written(program)
    for predicate in sorted(keep):
        declared.add_directive("output", predicate)
    through_engine = DatalogEngine(max_facts=50_000).evaluate(declared)
    for predicate in keep:
        assert rewritten.get(predicate, set()) == expected[predicate]
        assert through_engine[predicate] == expected[predicate]


class TestUnfoldProperties:
    @given(layered_programs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_layered_programs(self, generated, data):
        # Negation, existential heads, aggregates and recursion: mostly
        # reasons to leave a predicate alone.
        facts, layers = generated
        program = _merged([facts, *layers])
        defined = sorted(
            {rule.head.predicate for rule in program.rules}
            | {rule.head.predicate for rule in program.aggregate_rules}
        )
        keep = data.draw(st.sets(st.sampled_from(defined), min_size=1))
        assert_kept_predicates_unchanged(program, keep)

    @given(chained_programs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_chained_programs(self, program, data):
        defined = sorted({rule.head.predicate for rule in program.rules})
        keep = {defined[-1]} | data.draw(st.sets(st.sampled_from(defined), max_size=1))
        assert_kept_predicates_unchanged(program, keep)


@st.composite
def id_programs(draw):
    """Layers ``q1 .. qn`` whose column 0 is a tuple ID, as T_Q writes them.

    A rule builds its ID from every variable of its atoms, the IDs it
    reads included (:meth:`SkolemFunctionGenerator.tuple_id_assignment`),
    sometimes through an intermediate ID of its own, or sets it to the
    constant of set semantics.  Some predicates get a second rule (an
    alternative), some rules a comparison.
    """
    generator = SkolemFunctionGenerator()
    program = Program()
    for name in ("e0", "e1"):
        pairs = st.tuples(st.sampled_from(_DOMAIN), st.sampled_from(_DOMAIN))
        for left, right in draw(st.sets(pairs, min_size=3, max_size=7)):
            program.add_fact(Atom(name, (c(left), c(right))))
    #: predicate -> number of data columns (an IDB predicate has an ID first)
    data_columns = {"e0": 2, "e1": 2}
    idb = set()
    for layer in range(1, draw(st.integers(2, 5)) + 1):
        name = f"q{layer}"
        lower = sorted(data_columns)
        data_columns[name] = draw(st.integers(1, 2))
        for _ in range(draw(st.sampled_from([1, 1, 2]))):
            body, ids = [], []
            for index in range(draw(st.integers(1, 2))):
                # Mostly the layer just below, so that chains form.
                read = draw(st.sampled_from(lower[-1:] if draw(st.booleans()) else lower))
                arguments = [draw(_TERM) for _ in range(data_columns[read])]
                if read in idb:
                    ids.append(Var(f"I{index}"))
                    arguments.insert(0, ids[-1])
                body.append(Atom(read, tuple(arguments)))
            bound = sorted({v for atom in body for v in atom.variables()}, key=lambda v: v.name)
            data = [v for v in bound if v not in ids]
            if data and draw(st.booleans()):
                body.append(Comparison("!=", draw(st.sampled_from(data)), draw(_CONSTANT)))
            shape = draw(st.sampled_from(["id", "id", "chain", "set"]))
            if shape == "set":
                body.append(SkolemFunctionGenerator.set_semantics_assignment(Var("Id")))
            elif shape == "chain":
                body.append(generator.tuple_id_assignment(Var("Inner"), bound))
                outer = draw(st.sets(st.sampled_from(data))) if data else set()
                body.append(generator.tuple_id_assignment(Var("Id"), [Var("Inner"), *outer]))
            else:
                body.append(generator.tuple_id_assignment(Var("Id"), bound))
            head_term = st.one_of(*[st.sampled_from(data)] * 4, _CONSTANT) if data else _CONSTANT
            head = (Var("Id"), *(draw(head_term) for _ in range(data_columns[name])))
            program.add_rule(Rule(Atom(name, head), tuple(body)))
        idb.add(name)
    return program


def assert_kept_bags_unchanged(program, keep):
    """Per kept predicate, the bag of columns after the tuple ID is as written."""
    expected = DatalogEngine(max_facts=50_000).evaluate(program)
    declared = as_written(program)
    for predicate in sorted(keep):
        declared.add_directive("output", predicate)
    through_engine = DatalogEngine(max_facts=50_000).evaluate(declared)
    for predicate in keep:
        assert Counter(row[1:] for row in through_engine[predicate]) == Counter(
            row[1:] for row in expected[predicate]
        ), predicate


class TestTrimProperties:
    @given(id_programs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_marked_id_chains_keep_the_bag(self, program, data):
        defined = sorted({rule.head.predicate for rule in program.rules})
        keep = {defined[-1]} | data.draw(st.sets(st.sampled_from(defined), max_size=2))
        assert_kept_bags_unchanged(program, keep)

    @given(chained_programs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_unmarked_programs_keep_every_tuple(self, program, data):
        # Dead columns and assignments only: exact, plain Skolem terms included.
        defined = sorted({rule.head.predicate for rule in program.rules})
        keep = {defined[-1]} | data.draw(st.sets(st.sampled_from(defined), max_size=1))
        rewritten, _ = trim(unfold(program, keep), keep)
        expected = DatalogEngine(max_facts=50_000).evaluate(program)
        evaluated = DatalogEngine(max_facts=50_000).evaluate(as_written(rewritten))
        for predicate in keep:
            assert evaluated.get(predicate, set()) == expected[predicate]


# ----------------------------------------------------------------------
# (b) the T_Q programs of the paper's workloads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_answers_are_the_same_tuples(name):
    """``unfold`` alone keeps the answer tuple for tuple, tuple IDs included.
    Through the engine, ``trim`` follows and fuses ID chains: the answer is
    exact when it has no ID column and the same bag of data columns (what
    T_S reads) when it has one — the ID values are renamed one-to-one."""
    workload = WORKLOADS[name]()
    data = DataTranslator().translate(workload.dataset())
    ontology = getattr(workload, "ontology", None)
    if ontology is not None:
        data.extend(ontology.to_rules())
    base = DatalogEngine().materialise(data)

    unfolded_somewhere = trimmed_somewhere = False
    for query in workload.queries():
        translation = QueryTranslator().translate(parse_query(query.text))
        program = translation.program
        answer = translation.answer_predicate
        assert program.output_predicates() == [answer]

        expected = DatalogEngine().evaluate(as_written(program), base)[answer]
        rewritten = unfold(program, [answer])
        unfolded_somewhere |= len(rewritten.rules) < len(program.rules)
        # Same set of tuples, Skolem tuple IDs included.
        assert (
            DatalogEngine().evaluate(as_written(rewritten), base).get(answer, set()) == expected
        ), query.query_id
        through_engine = DatalogEngine().evaluate(program, base)[answer]
        if translation.has_id_column:
            assert Counter(row[1:] for row in through_engine) == Counter(
                row[1:] for row in expected
            ), query.query_id
        else:
            assert through_engine == expected, query.query_id

        trimmed, summary = trim(rewritten, [answer])
        trimmed_somewhere |= trimmed is not rewritten
        for everything in (
            Program(rules=data.rules + rewritten.rules),
            Program(rules=data.rules + trimmed.rules),
        ):
            assert analyze_wardedness(everything).warded, query.query_id
    assert unfolded_somewhere and trimmed_somewhere


# ----------------------------------------------------------------------
# (c) unit cases
# ----------------------------------------------------------------------
def assert_same(program, predicate):
    expected = DatalogEngine().evaluate(as_written(program))[predicate]
    assert DatalogEngine().evaluate(program)[predicate] == expected
    return expected


class TestUnification:
    def test_chain_becomes_one_rule(self):
        program = program_of(
            EDGES,
            Rule(Atom("a", (X, Y)), (Atom("e", (X, Y)),)),
            Rule(Atom("b", (X, Z)), (Atom("a", (X, Y)), Atom("e", (Y, Z)))),
            Rule(Atom("out", (X,)), (Atom("b", (X, Y)),)),
            output=["out"],
        )
        rewritten = unfold(program, ["out"])
        assert heads(rewritten) == ["out"]
        assert [element.predicate for element in rewritten.rules[0].body] == ["e", "e"]
        assert assert_same(program, "out") == {(1,), (2,), (3,)}

    def test_repeated_head_variable(self):
        # path3(Id, X, X): the two call arguments must be equal.
        program = program_of(
            EDGES,
            Rule(Atom("loop", (X, Y, Y)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X, Y, Z)), (Atom("loop", (X, Y, Z)),)),
            Rule(Atom("same", (Y,)), (Atom("loop", (X, Y, Y)),)),
            output=["out", "same"],
        )
        assert heads(unfold(program, ["out", "same"])) == ["out", "same"]
        assert assert_same(program, "out") == {(1, 2, 2), (2, 3, 3), (3, 3, 3), (3, 4, 4)}
        assert assert_same(program, "same") == {(2,), (3,), (4,)}

    def test_constant_in_the_head_against_a_variable_in_the_call(self):
        # T_Q's select rule: ans(.., 'default') read as ans(.., D).
        program = program_of(
            EDGES,
            Rule(Atom("ans", (X, c("default"))), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X, Var("D"))), (Atom("ans", (X, Var("D"))),)),
            output=["out"],
        )
        (rule,) = unfold(program, ["out"]).rules
        assert Assignment(Var("D"), c("default")) in rule.body
        assert assert_same(program, "out") == {(1, "default"), (2, "default"), (3, "default")}

    def test_variable_in_the_head_against_a_constant_in_the_call(self):
        program = program_of(
            EDGES,
            Rule(Atom("ans", (X, Y)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X,)), (Atom("ans", (X, c(3))),)),
            output=["out"],
        )
        assert heads(unfold(program, ["out"])) == ["out"]
        assert assert_same(program, "out") == {(2,), (3,)}

    def test_constant_clash_drops_the_caller(self):
        program = program_of(
            EDGES,
            Rule(Atom("ans", (X, c("g1"))), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X,)), (Atom("ans", (X, c("g2"))),)),
            Rule(Atom("out", (X,)), (Atom("e", (c(3), X)),)),
            output=["out"],
        )
        rewritten = unfold(program, ["out"])
        assert len(rewritten.rules) == 1
        assert assert_same(program, "out") == {(3,), (4,)}
        # Dropping its only rule leaves an output predicate empty, not absent.
        del program.rules[2]
        assert unfold(program, ["out"]).rules == []
        assert assert_same(program, "out") == set()

    def test_local_variable_is_not_captured(self):
        # The callee's local Y is not the caller's Y.
        program = program_of(
            EDGES,
            Rule(Atom("src", (X,)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X, Y)), (Atom("e", (Y, X)), Atom("src", (X,)))),
            output=["out"],
        )
        (rule,) = unfold(program, ["out"]).rules
        assert len({variable for element in rule.body for variable in element.variables()}) == 3
        assert assert_same(program, "out") == {(2, 1), (3, 2), (3, 3)}

    def test_fresh_names_avoid_the_callers_variables(self):
        program = program_of(
            EDGES,
            Rule(Atom("src", (X,)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X, Var("Y~1"))), (Atom("e", (Var("Y~1"), X)), Atom("src", (X,)))),
            output=["out"],
        )
        assert assert_same(program, "out") == {(2, 1), (3, 2), (3, 3)}

    def test_every_use_gets_its_own_locals(self):
        program = program_of(
            EDGES,
            Rule(Atom("src", (X,)), (Atom("e", (X, Y)), Comparison("!=", X, Y))),
            Rule(
                Atom("out", (X, Z)),
                (Atom("src", (X,)), Atom("src", (Z,)), Comparison("<", X, Z)),
            ),
            output=["out"],
        )
        (rule,) = unfold(program, ["out"]).rules
        assert [type(element).__name__ for element in rule.body].count("Atom") == 2
        assert assert_same(program, "out") == {(1, 2), (1, 3), (2, 3)}

    def test_skolem_ids_and_filter_variables_travel_with_the_body(self):
        graph = {"t": [("s1", Literal.from_python(1)), ("s2", Literal.from_python(5))]}
        condition = FilterComparison(">", VariableExpr(Variable("v")), VariableExpr(Variable("w")))
        program = program_of(
            graph,
            Rule(
                Atom("ans1", (Var("Id"), X, Y)),
                (Atom("t", (X, Y)), Assignment(Var("Id"), SkolemExpr("f1", (X, Y)))),
            ),
            Rule(
                Atom("ans2", (Var("Id"), X, Y, Z, W)),
                (
                    Atom("ans1", (Var("Id1"), X, Y)),
                    Atom("ans1", (Var("Id2"), Z, W)),
                    FilterCondition(condition, ((Variable("v"), Y), (Variable("w"), W))),
                    Assignment(Var("Id"), SkolemExpr("f2", (Var("Id1"), Var("Id2")))),
                ),
            ),
            Rule(Atom("out", (Var("Id"), Z)), (Atom("ans2", (Var("Id"), X, Y, Z, W)),)),
            output=["out"],
        )
        (rule,) = unfold(program, ["out"]).rules
        (renamed,) = [element for element in rule.body if isinstance(element, FilterCondition)]
        bound = {v for element in rule.body if isinstance(element, Atom) for v in element.variables()}
        assert renamed.variables() <= bound
        ((identifier, subject),) = assert_same(program, "out")
        assert subject == "s1" and repr(identifier).startswith("f2(f1(")


class TestLeftAlone:
    def unchanged(self, *rules, aggregates=(), keep=("out",)):
        program = program_of(EDGES, *rules, output=keep)
        program.aggregate_rules.extend(aggregates)
        assert unfold(program, keep).rules == program.rules
        return program

    def test_predicate_read_under_negation(self):
        self.unchanged(
            Rule(Atom("a", (X,)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (Y,)), (Atom("e", (X, Y)), Negation(Atom("a", (Y,))))),
        )

    def test_predicate_read_by_an_aggregate(self):
        # a(X) has two derivations for X = 3; unfolded, COUNT would see both.
        aggregate = AggregateRule(
            head=Atom("out", (X, Var("N"))),
            body=(Atom("a", (X,)),),
            group_variables=(X,),
            aggregates=(AggregateSpec("COUNT", None, Var("N")),),
        )
        program = self.unchanged(
            Rule(Atom("a", (X,)), (Atom("e", (X, Y)),)), aggregates=[aggregate]
        )
        counts = {row[0]: row[1].as_python() for row in DatalogEngine().evaluate(program)["out"]}
        assert counts == {1: 1, 2: 1, 3: 1}

    def test_shared_multi_atom_body(self):
        self.unchanged(
            Rule(Atom("two", (X, Z)), (Atom("e", (X, Y)), Atom("e", (Y, Z)))),
            Rule(Atom("out", (X, Z)), (Atom("two", (X, Y)), Atom("two", (Y, Z)))),
        )

    def test_shared_single_atom_body_is_unfolded(self):
        program = program_of(
            EDGES,
            Rule(Atom("one", (X, Y)), (Atom("e", (X, Y)), Comparison("!=", X, Y))),
            Rule(Atom("out", (X, Z)), (Atom("one", (X, Y)), Atom("one", (Y, Z)))),
            output=["out"],
        )
        assert heads(unfold(program, ["out"])) == ["out"]
        assert assert_same(program, "out") == {(1, 3), (2, 4)}

    def test_existential_rule(self):
        self.unchanged(
            Rule(Atom("a", (X, Z)), (Atom("e", (X, Y)),), existential_variables=(Z,), label="r"),
            Rule(Atom("out", (X, Z)), (Atom("a", (X, Z)),)),
        )

    def test_recursive_predicate(self):
        self.unchanged(
            Rule(Atom("tc", (X, Y)), (Atom("e", (X, Y)),)),
            Rule(Atom("tc", (X, Z)), (Atom("e", (X, Y)), Atom("tc", (Y, Z)))),
            Rule(Atom("out", (X,)), (Atom("tc", (X, c(4))),)),
        )
        self.unchanged(
            Rule(Atom("a", (X, Z)), (Atom("e", (X, Y)), Atom("a", (Y, Z)))),
            Rule(Atom("out", (X,)), (Atom("a", (X, c(4))),)),
        )

    def test_predicate_with_facts_or_several_rules(self):
        program = self.unchanged(
            Rule(Atom("a", (X,)), (Atom("e", (X, Y)),)),
            Rule(Atom("a", (Y,)), (Atom("e", (X, Y)),)),
            Rule(Atom("e2", (X,)), (Atom("e", (X, X)),)),
            Rule(Atom("out", (X,)), (Atom("a", (X,)), Atom("e2", (X,)), Atom("e", (X, Y)))),
            keep=("out", "e2"),
        )
        program.add_fact(Atom("e2", (c(1),)))
        assert unfold(program, ["out"]).rules == program.rules

    def test_unsafe_head_still_raises_lazily(self):
        program = self.unchanged(
            Rule(Atom("bad", (Z,)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X,)), (Atom("bad", (X,)),)),
        )
        with pytest.raises(ValueError, match="unbound head variable"):
            DatalogEngine().evaluate(program)
        never = program_of(
            EDGES,
            Rule(Atom("bad", (Z,)), (Atom("missing", (X,)),)),
            Rule(Atom("out", (X,)), (Atom("bad", (X,)),)),
            output=["out"],
        )
        assert DatalogEngine().evaluate(never)["out"] == set()

    def test_kept_and_unread_predicates(self):
        self.unchanged(
            Rule(Atom("a", (X,)), (Atom("e", (X, Y)),)),
            Rule(Atom("unread", (X,)), (Atom("e", (X, X)),)),
            Rule(Atom("out", (X,)), (Atom("a", (X,)),)),
            keep=("out", "a"),
        )

    def test_nothing_happens_without_output(self):
        program = program_of(
            EDGES,
            Rule(Atom("a", (X, Y)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X,)), (Atom("a", (X, Y)),)),
        )
        assert set(DatalogEngine().evaluate(program)) == {"e", "a", "out"}
        program.add_directive("output", "out")
        assert set(DatalogEngine().evaluate(program)) == {"e", "out"}


def tuple_id(variable, *arguments, label=""):
    """A marked tuple-ID assignment, as T_Q makes one (fresh functor per call)."""
    return _IDS.tuple_id_assignment(variable, arguments, label)


_IDS = SkolemFunctionGenerator()
I, I1, I2 = Var("Id"), Var("Id1"), Var("Id2")


class TestTrim:
    def test_a_column_only_unread_variables_read_goes_with_what_built_it(self):
        # gMark social-19's path7: an alternative read only by a set-semantics rule.
        program = program_of(
            EDGES,
            Rule(
                Atom("alt", (I, X, Y)),
                (Atom("e", (X, Y)), tuple_id(I1, X, Y), tuple_id(I, I1, X)),
            ),
            Rule(Atom("alt", (I, X, Y)), (Atom("e", (Y, X)), tuple_id(I, X, Y))),
            Rule(Atom("out", (X, Y)), (Atom("alt", (I2, X, Y)), Assignment(W, c("[]")))),
            output=["out"],
        )
        trimmed, summary = trim(program, ["out"])
        assert summary == {
            "columns_dropped": ["alt:0"], "assignments_dropped": 4, "chains_fused": 0
        }
        assert [rule.head for rule in trimmed.rules[:2]] == [Atom("alt", (X, Y))] * 2
        assert [len(rule.body) for rule in trimmed.rules] == [1, 1, 1]
        assert assert_same(program, "out") == {
            (1, 2), (2, 3), (3, 3), (3, 4), (2, 1), (3, 2), (4, 3)
        }

    def test_a_chain_of_ids_becomes_one_term_with_each_argument_once(self):
        program = program_of(
            EDGES,
            Rule(
                Atom("out", (I, X)),
                (Atom("e", (X, Y)), tuple_id(I2, Y, X), tuple_id(I1, I2, X), tuple_id(I, I1, X, Y)),
            ),
            output=["out"],
        )
        trimmed, summary = trim(program, ["out"])
        (rule,) = trimmed.rules
        assert summary["chains_fused"] == 2
        (identifier,) = [element for element in rule.body if isinstance(element, Assignment)]
        assert isinstance(identifier.expression, TupleIdExpr)
        assert identifier.expression.arguments == (X, Y)
        assert identifier.expression.functor.count("∘") == 2
        rows = DatalogEngine().evaluate(program)["out"]
        assert sorted(row[1] for row in rows) == [1, 2, 3, 3]
        assert len({row[0] for row in rows}) == 4

    def test_an_id_the_body_reads_keeps_its_value(self):
        # The top ID is compared: renaming it would change what passes.
        compared = program_of(
            EDGES,
            Rule(
                Atom("out", (I, X)),
                (
                    Atom("e", (X, Y)),
                    tuple_id(I1, X, Y),
                    tuple_id(I, I1, X),
                    Comparison("!=", I, c(0)),
                ),
            ),
            output=["out"],
        )
        assert trim(compared, ["out"]) == (compared, no_change())
        # Plain Skolem terms are values (labelled nulls): never fused, also
        # beside tuple IDs that are.
        J, J1 = Var("J"), Var("J1")
        plain = program_of(
            EDGES,
            Rule(
                Atom("out", (I, J, X)),
                (
                    Atom("e", (X, Y)),
                    Assignment(J1, SkolemExpr("f", (X, Y))),
                    Assignment(J, SkolemExpr("g", (J1, X))),
                    tuple_id(I1, X, Y),
                    tuple_id(I, I1, X),
                ),
            ),
            output=["out"],
        )
        trimmed, summary = trim(plain, ["out"])
        assert summary["chains_fused"] == 1
        assert trimmed.rules[0].body[1:3] == plain.rules[0].body[1:3]
        assert {row[1:] for row in DatalogEngine().evaluate(plain)["out"]} == {
            row[1:] for row in DatalogEngine().evaluate(as_written(plain))["out"]
        }

    @pytest.mark.parametrize("reason", ["kept", "fact", "negation", "aggregate", "unbound head"])
    def test_a_column_stays_where_the_predicate_is_not_ours_to_narrow(self, reason):
        rules = [
            Rule(Atom("a", (X, Y)), (Atom("e", (X, Y)),)),
            Rule(Atom("a", (Y, X)), (Atom("e", (X, Y)),)),
            Rule(Atom("out", (X,)), (Atom("a", (X, Z)),)),
        ]
        keep = ["out"]
        program = program_of(EDGES, *rules, output=keep)
        if reason == "kept":
            keep.append("a")
        elif reason == "fact":
            program.add_fact(Atom("a", (c(9), c(9))))
        elif reason == "negation":
            negated = Negation(Atom("a", (Y, X)))
            program.rules.append(Rule(Atom("out", (X,)), (Atom("e", (X, Y)), negated)))
        elif reason == "aggregate":
            program.aggregate_rules.append(
                AggregateRule(
                    head=Atom("n", (X, W)),
                    body=(Atom("a", (X, Y)),),
                    group_variables=(X,),
                    aggregates=(AggregateSpec("COUNT", None, W),),
                )
            )
        else:
            program.rules[1] = Rule(Atom("a", (Y, Z)), (Atom("e", (X, Y)),))
        trimmed, summary = trim(program, keep)
        assert summary["columns_dropped"] == []
        if reason == "unbound head":
            with pytest.raises(ValueError, match="unbound head variable"):
                DatalogEngine().evaluate(program)
        else:
            assert assert_same(program, "out")


def no_change():
    return {"columns_dropped": [], "assignments_dropped": 0, "chains_fused": 0}
