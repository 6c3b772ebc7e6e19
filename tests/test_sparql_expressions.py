"""Tests for filter expressions, built-in functions and EBV semantics."""

import pytest

from repro.rdf.terms import BlankNode, IRI, Literal, Variable, XSD_BOOLEAN, XSD_INTEGER
from repro.sparql.expressions import (
    And,
    Arithmetic,
    Comparison,
    FunctionCall,
    InExpr,
    Not,
    Or,
    TermExpr,
    UnaryMinus,
    VariableExpr,
    evaluate,
    satisfies,
)
from repro.sparql.functions import (
    ExpressionError,
    apply_function,
    effective_boolean_value,
    numeric_value,
    term_compare,
)
from repro.sparql.solutions import Binding, CompatIndex, SolutionSequence

X = Variable("x")
Y = Variable("y")


def _binding(**values):
    return Binding({Variable(name): value for name, value in values.items()})


def lit(value) -> Literal:
    return Literal.from_python(value)


class TestEffectiveBooleanValue:
    def test_boolean_literals(self):
        assert effective_boolean_value(Literal("true", XSD_BOOLEAN)) is True
        assert effective_boolean_value(Literal("false", XSD_BOOLEAN)) is False

    def test_numbers(self):
        assert effective_boolean_value(lit(1)) is True
        assert effective_boolean_value(lit(0)) is False

    def test_strings(self):
        assert effective_boolean_value(Literal("x")) is True
        assert effective_boolean_value(Literal("")) is False

    def test_iri_has_no_ebv(self):
        with pytest.raises(ExpressionError):
            effective_boolean_value(IRI("http://x"))


class TestTermCompare:
    def test_numeric_equality_across_datatypes(self):
        assert term_compare("=", lit(2), Literal("2.0", IRI("http://www.w3.org/2001/XMLSchema#double")))

    def test_string_ordering(self):
        assert term_compare("<", Literal("abc"), Literal("abd"))

    def test_numeric_ordering(self):
        assert term_compare(">", lit(10), lit(2))

    def test_iri_equality(self):
        assert term_compare("=", IRI("http://a"), IRI("http://a"))
        assert term_compare("!=", IRI("http://a"), IRI("http://b"))

    def test_incomparable_raise(self):
        with pytest.raises(ExpressionError):
            term_compare("<", IRI("http://a"), lit(1))


class TestFunctions:
    def test_str_lang_datatype(self):
        assert apply_function("STR", [IRI("http://a")]).lexical == "http://a"
        assert apply_function("LANG", [Literal("chat", language="fr")]).lexical == "fr"
        assert apply_function("DATATYPE", [lit(3)]) == XSD_INTEGER

    def test_term_tests(self):
        assert apply_function("ISIRI", [IRI("http://a")]).lexical == "true"
        assert apply_function("ISBLANK", [BlankNode("b")]).lexical == "true"
        assert apply_function("ISLITERAL", [lit(1)]).lexical == "true"
        assert apply_function("ISNUMERIC", [Literal("x")]).lexical == "false"

    def test_regex(self):
        assert apply_function("REGEX", [Literal("Hello"), Literal("^h"), Literal("i")]).lexical == "true"
        assert apply_function("REGEX", [Literal("Hello"), Literal("^x")]).lexical == "false"

    def test_regex_malformed_pattern_errors(self):
        with pytest.raises(ExpressionError):
            apply_function("REGEX", [Literal("a"), Literal("(")])

    def test_string_functions(self):
        assert apply_function("UCASE", [Literal("abc")]).lexical == "ABC"
        assert apply_function("LCASE", [Literal("ABC")]).lexical == "abc"
        assert apply_function("STRLEN", [Literal("abcd")]).as_python() == 4
        assert apply_function("CONTAINS", [Literal("abcd"), Literal("bc")]).lexical == "true"
        assert apply_function("STRSTARTS", [Literal("abcd"), Literal("ab")]).lexical == "true"
        assert apply_function("STRENDS", [Literal("abcd"), Literal("cd")]).lexical == "true"
        assert apply_function("SUBSTR", [Literal("abcd"), lit(2), lit(2)]).lexical == "bc"
        assert apply_function("CONCAT", [Literal("ab"), Literal("cd")]).lexical == "abcd"
        assert apply_function("REPLACE", [Literal("abab"), Literal("a"), Literal("x")]).lexical == "xbxb"

    def test_numeric_functions(self):
        assert apply_function("ABS", [lit(-3)]).as_python() == 3
        assert apply_function("CEIL", [lit(2.1)]).as_python() == 3
        assert apply_function("FLOOR", [lit(2.9)]).as_python() == 2
        assert apply_function("ROUND", [lit(2.5)]).as_python() == 2

    def test_unknown_function_errors(self):
        with pytest.raises(ExpressionError):
            apply_function("NOPE", [lit(1)])


class TestExpressionEvaluation:
    def test_comparison_over_binding(self):
        expression = Comparison(">", VariableExpr(X), TermExpr(lit(3)))
        assert satisfies(expression, _binding(x=lit(5)))
        assert not satisfies(expression, _binding(x=lit(2)))

    def test_unbound_variable_is_error_not_match(self):
        expression = Comparison("=", VariableExpr(X), TermExpr(lit(3)))
        assert not satisfies(expression, _binding())

    def test_bound_function(self):
        expression = FunctionCall("BOUND", (VariableExpr(X),))
        assert satisfies(expression, _binding(x=lit(1)))
        assert not satisfies(expression, _binding())

    def test_arithmetic(self):
        expression = Comparison(
            "=", Arithmetic("+", VariableExpr(X), TermExpr(lit(2))), TermExpr(lit(5))
        )
        assert satisfies(expression, _binding(x=lit(3)))

    def test_division_by_zero_is_error(self):
        expression = Arithmetic("/", TermExpr(lit(1)), TermExpr(lit(0)))
        with pytest.raises(ExpressionError):
            evaluate(expression, _binding())

    def test_unary_minus(self):
        expression = UnaryMinus(VariableExpr(X))
        assert evaluate(expression, _binding(x=lit(4))).as_python() == -4

    def test_and_or_error_absorption(self):
        # false && error  -> false ; true || error -> true  (SPARQL 3-valued logic)
        error_expr = Comparison("=", VariableExpr(Y), TermExpr(lit(1)))  # y unbound
        false_expr = TermExpr(Literal("false", XSD_BOOLEAN))
        true_expr = TermExpr(Literal("true", XSD_BOOLEAN))
        assert not satisfies(And(false_expr, error_expr), _binding())
        assert satisfies(Or(true_expr, error_expr), _binding())
        # error && true -> error -> filter drops the row
        assert not satisfies(And(error_expr, true_expr), _binding())

    def test_not(self):
        assert satisfies(Not(TermExpr(Literal("false", XSD_BOOLEAN))), _binding())

    def test_in_and_not_in(self):
        expression = InExpr(VariableExpr(X), (TermExpr(lit(1)), TermExpr(lit(2))))
        assert satisfies(expression, _binding(x=lit(2)))
        negated = InExpr(VariableExpr(X), (TermExpr(lit(1)),), negated=True)
        assert satisfies(negated, _binding(x=lit(2)))

    def test_coalesce_and_if(self):
        coalesce = FunctionCall("COALESCE", (VariableExpr(Y), TermExpr(lit(7))))
        assert evaluate(coalesce, _binding()).as_python() == 7
        conditional = FunctionCall(
            "IF",
            (Comparison(">", VariableExpr(X), TermExpr(lit(0))),
             TermExpr(Literal("pos")), TermExpr(Literal("neg"))),
        )
        assert evaluate(conditional, _binding(x=lit(3))).lexical == "pos"

    def test_variables_collection(self):
        expression = And(
            Comparison("=", VariableExpr(X), VariableExpr(Y)),
            FunctionCall("BOUND", (VariableExpr(X),)),
        )
        assert expression.variables() == {X, Y}


class TestBinding:
    def test_merge_and_compatibility(self):
        # Rows are merged as tuples under the joined header.
        index = CompatIndex([X], [Y], [(lit(2),)])
        assert index.header == (X, Y)
        assert index.merged((lit(1),)) == [(lit(1), lit(2))]
        assert _binding(x=lit(1)).is_compatible(_binding(y=lit(2)))

    def test_incompatible(self):
        assert not _binding(x=lit(1)).is_compatible(_binding(x=lit(2)))
        assert _binding(x=lit(1)).is_compatible(_binding(x=lit(1), y=lit(3)))

    def test_rows_read_as_bindings(self):
        sequence = SolutionSequence([X, Y], [(lit(1), None), (lit(1), lit(2))])
        assert sequence.bindings == [_binding(x=lit(1)), _binding(x=lit(1), y=lit(2))]
        assert sequence.bindings[1][Y] == lit(2)

    def test_equality_and_hash(self):
        assert _binding(x=lit(1)) == _binding(x=lit(1))
        assert hash(_binding(x=lit(1))) == hash(_binding(x=lit(1)))
        assert _binding(x=lit(1)) != _binding(x=lit(2))
