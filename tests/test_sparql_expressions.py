"""Tests for filter expressions, built-in functions and EBV semantics.

The expression compiler (:mod:`repro.sparql.expressions`) is pinned by
a hypothesis differential across its three readers — term tuples
(``positional``), id registers decoded through a real ``TermDictionary``
(``kernels.register_reader``) and ``Binding`` s — by table pins of the
error rules, and by expected values of the built-ins written from
SPARQL 1.1 section 17.4.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    Variable,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.sparql.expressions import (
    Aggregate,
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
    binding_reader,
    compile_condition,
    compile_expression,
    evaluate,
    positional,
    satisfies,
)
from repro.sparql.functions import (
    BUILTINS,
    ExpressionError,
    apply_function,
    effective_boolean_value,
    term_compare,
)
from repro.sparql.kernels import register_reader
from repro.sparql.solutions import Binding, CompatIndex, SolutionSequence
from repro.store.dictionary import TermDictionary

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
        # fn:round rounds half-way values up (F&O 3.1 §4.4.4), not to even.
        assert apply_function("ROUND", [lit(2.5)]).as_python() == 3
        assert apply_function("ROUND", [lit(-2.5)]).as_python() == -2

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


# ----------------------------------------------------------------------
# built-ins as SPARQL 1.1 section 17.4.3 specifies them
# ----------------------------------------------------------------------
def _call(name, *arguments):
    return apply_function(name, [Literal(a) if isinstance(a, str) else a for a in arguments])


class TestStringBuiltinsPerSpec:
    EN = {"language": "en"}

    @pytest.mark.parametrize(
        "arguments, expected",
        [
            (("foobar", lit(4)), Literal("bar")),
            (("foobar", lit(4), lit(1)), Literal("b")),
            (("abcd", lit(0)), Literal("abcd")),  # a start below 1 is not counted from the end
            (("abcd", lit(0), lit(2)), Literal("a")),  # positions 0 and 1, of which 1 exists
            (("12345", lit(-3), lit(5)), Literal("1")),
            (("12345", lit(5), lit(-3)), Literal("")),
            (("12345", Literal("1.5", XSD_DECIMAL), Literal("2.6", XSD_DECIMAL)), Literal("234")),
            (("12345", Literal("NaN", XSD_DOUBLE), lit(3)), Literal("")),
            (("12345", lit(-42), Literal("INF", XSD_DOUBLE)), Literal("12345")),
            ((Literal("chat", language="en"), lit(2)), Literal("hat", language="en")),
            ((Literal("foobar", XSD_STRING), lit(4)), Literal("bar", XSD_STRING)),
        ],
    )
    def test_substr(self, arguments, expected):
        assert _call("SUBSTR", *arguments) == expected

    @pytest.mark.parametrize(
        "haystack, needle, before, after",
        [
            (Literal("abc"), "b", Literal("a"), Literal("c")),
            (Literal("abc", language="en"), "b", Literal("a", language="en"), Literal("c", language="en")),
            (Literal("abc", XSD_STRING), "b", Literal("a", XSD_STRING), Literal("c", XSD_STRING)),
            # The empty needle matches at 0: the result keeps the argument's kind.
            (Literal("abc", language="en"), "", Literal("", language="en"), Literal("abc", language="en")),
            # No match: the empty simple literal, whatever the argument's kind.
            (Literal("abc"), "xyz", Literal(""), Literal("")),
            (Literal("abc", language="en"), "z", Literal(""), Literal("")),
        ],
    )
    def test_strbefore_and_strafter(self, haystack, needle, before, after):
        assert _call("STRBEFORE", haystack, needle) == before
        assert _call("STRAFTER", haystack, needle) == after

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Los Angeles", "Los%20Angeles"),
            (Literal("Los Angeles", language="en"), "Los%20Angeles"),
            ("café x", "caf%C3%A9%20x"),  # the UTF-8 bytes, not the code point
            ("~a-b_c.9/?", "~a-b_c.9%2F%3F"),
        ],
    )
    def test_encode_for_uri(self, text, expected):
        assert _call("ENCODE_FOR_URI", text) == Literal(expected)


# ----------------------------------------------------------------------
# the compiler: error rules, deferred errors, readers
# ----------------------------------------------------------------------
W = Variable("w")  # in no header: always unbound
TRUE = TermExpr(Literal("true", XSD_BOOLEAN))
FALSE = TermExpr(Literal("false", XSD_BOOLEAN))
ERROR = Comparison("<", VariableExpr(W), TermExpr(lit(1)))


def _recording(header, reads):
    """A positional reader that notes every variable read."""
    base = positional(header)

    def reader(variable):
        read = base(variable)

        def recorded(row):
            reads.append(variable.name)
            return read(row)

        return recorded

    return reader


def _outcome(function, row):
    try:
        return function(row)
    except ExpressionError:
        return "error"


class TestCompilerErrorRules:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            (And(TRUE, TRUE), True),
            (And(TRUE, ERROR), "error"),
            (And(ERROR, TRUE), "error"),
            (And(FALSE, ERROR), False),
            (And(ERROR, FALSE), False),
            (And(ERROR, ERROR), "error"),
            (Or(FALSE, FALSE), False),
            (Or(TRUE, ERROR), True),
            (Or(ERROR, TRUE), True),
            (Or(FALSE, ERROR), "error"),
            (Or(ERROR, FALSE), "error"),
            (Or(ERROR, ERROR), "error"),
            (Not(ERROR), "error"),
            (Not(And(ERROR, FALSE)), True),
        ],
    )
    def test_three_valued_logic(self, expression, expected):
        value = _outcome(compile_expression(expression, positional(())), ())
        assert value == ("error" if expected == "error" else Literal(str(expected).lower(), XSD_BOOLEAN))
        assert compile_condition(expression, positional(())) (()) is (expected is True)

    def test_coalesce_and_if_evaluate_only_the_branch_they_take(self):
        header = (X, Y)
        row = (lit(1), lit(2))
        for expression, value, read in [
            (FunctionCall("COALESCE", (VariableExpr(X), VariableExpr(Y))), lit(1), ["x"]),
            (FunctionCall("COALESCE", (VariableExpr(W), VariableExpr(Y), VariableExpr(X))), lit(2), ["w", "y"]),
            (FunctionCall("IF", (TRUE, VariableExpr(X), VariableExpr(Y))), lit(1), ["x"]),
            (FunctionCall("IF", (FALSE, VariableExpr(X), VariableExpr(Y))), lit(2), ["y"]),
            (FunctionCall("IF", (ERROR, VariableExpr(X), VariableExpr(Y))), "error", ["w"]),
        ]:
            reads = []
            assert _outcome(compile_expression(expression, _recording(header, reads)), row) == value
            assert reads == read, expression

    def test_unbound_variable(self):
        reader = positional((X,))
        for variable in (X, W):  # unbound in the row, absent from the header
            assert _outcome(compile_expression(VariableExpr(variable), reader), (None,)) == "error"
            bound = FunctionCall("BOUND", (VariableExpr(variable),))
            assert compile_condition(bound, reader)((None,)) is False
            assert compile_condition(Not(bound), reader)((None,)) is True
            equal = Comparison("!=", VariableExpr(variable), TermExpr(lit(1)))
            assert compile_condition(equal, reader)((None,)) is False
            assert compile_condition(Not(equal), reader)((None,)) is False

    @pytest.mark.parametrize(
        "expression",
        [
            FunctionCall("REGEX", (VariableExpr(X), TermExpr(Literal("(")))),  # malformed constant regex
            FunctionCall("REGEX", (VariableExpr(X), TermExpr(Literal("a")), TermExpr(BlankNode("f")))),
            FunctionCall("NOPE", (VariableExpr(X),)),  # unknown function
            FunctionCall("BOUND", (TermExpr(lit(1)),)),  # BOUND over a non-variable
            FunctionCall("STRLEN", (VariableExpr(X), VariableExpr(X))),  # wrong argument count
            FunctionCall("IF", (TRUE, VariableExpr(X))),
            FunctionCall("CONTAINS", (VariableExpr(X), TermExpr(BlankNode("b")))),  # needle without a string
            Comparison("<>", VariableExpr(X), VariableExpr(X)),
            Arithmetic("%", VariableExpr(X), VariableExpr(X)),
            Aggregate("COUNT", VariableExpr(X)),
        ],
    )
    def test_compiling_never_raises(self, expression):
        reader = positional((X,))
        value = compile_expression(expression, reader)
        condition = compile_condition(expression, reader)
        with pytest.raises(ExpressionError):
            value((Literal("abc"),))
        assert condition((Literal("abc"),)) is False


# ----------------------------------------------------------------------
# the reader differential
# ----------------------------------------------------------------------
DIFFERENTIAL_VARIABLES = (X, Y, Variable("z"))
TERMS = st.sampled_from(
    [
        IRI("http://ex.org/a"),
        IRI("http://ex.org/b"),
        BlankNode("b0"),
        Literal(""),
        Literal("a"),
        Literal("Ab c"),
        Literal("("),
        Literal("é-1"),
        Literal("2"),
        Literal("chat", language="en"),
        Literal("chat", language="fr"),
        Literal("a", XSD_STRING),
        Literal("0", XSD_INTEGER),
        Literal("2", XSD_INTEGER),
        Literal("-3", XSD_INTEGER),
        Literal("x", XSD_INTEGER),  # malformed
        Literal("2.5", XSD_DECIMAL),
        Literal("1.5e1", XSD_DOUBLE),
        Literal("NaN", XSD_DOUBLE),
        Literal("-INF", XSD_DOUBLE),
        Literal("true", XSD_BOOLEAN),
        Literal("false", XSD_BOOLEAN),
        Literal("2024-01-01T00:00:00", IRI("http://www.w3.org/2001/XMLSchema#dateTime")),
    ]
)
_ARITIES = {name: (function.__code__.co_argcount - len(function.__defaults__ or ()), function.__code__.co_argcount) for name, function in BUILTINS.items()}
_ARITIES["CONCAT"] = (0, 3)


def _expressions():
    variables = st.sampled_from((*DIFFERENTIAL_VARIABLES, W)).map(VariableExpr)
    leaves = st.one_of(variables, TERMS.map(TermExpr))

    def branches(children):
        def call(name):
            least, most = _ARITIES[name]
            return st.lists(children, min_size=least, max_size=most).map(
                lambda arguments: FunctionCall(name, tuple(arguments))
            )

        return st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
            st.builds(Comparison, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), children, children),
            st.builds(Arithmetic, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(UnaryMinus, children),
            st.builds(InExpr, children, st.lists(children, max_size=3).map(tuple), st.booleans()),
            st.lists(children, min_size=1, max_size=3).map(lambda a: FunctionCall("COALESCE", tuple(a))),
            st.tuples(children, children, children).map(lambda a: FunctionCall("IF", a)),
            leaves.map(lambda argument: FunctionCall("BOUND", (argument,))),
            st.sampled_from(sorted(BUILTINS)).flatmap(call),
        )

    return st.recursive(leaves, branches, max_leaves=12)


EXPRESSIONS = _expressions()
ROWS = st.tuples(*(st.one_of(st.none(), TERMS) for _ in DIFFERENTIAL_VARIABLES))


def _through_every_reader(expression, row):
    """``(value, verdict)`` of ``expression`` on ``row`` per reader."""
    header = DIFFERENTIAL_VARIABLES
    dictionary = TermDictionary()
    registers = [None if term is None else dictionary.encode(term) for term in row]
    bound = {variable for variable, term in zip(header, row) if term is not None}
    register_of = {variable: position for position, variable in enumerate(header)}
    binding = Binding({variable: term for variable, term in zip(header, row) if term is not None})
    outcomes = []
    for reader, argument in (
        (positional(header), row),
        (register_reader(dictionary, register_of, bound), registers),
        (binding_reader, binding),
    ):
        value = _outcome(compile_expression(expression, reader), argument)
        outcomes.append((value, compile_condition(expression, reader)(argument)))
    outcomes.append((_outcome(lambda b: evaluate(expression, b), binding), satisfies(expression, binding)))
    return outcomes


class TestReaderDifferential:
    @settings(max_examples=600, deadline=None)
    @given(EXPRESSIONS, ROWS)
    def test_every_reader_gives_the_same_term_or_error(self, expression, row):
        outcomes = _through_every_reader(expression, row)
        assert all(outcome == outcomes[0] for outcome in outcomes), (expression, row, outcomes)
        value, verdict = outcomes[0]
        # The verdict is the value's effective boolean value, an error false.
        expected = value != "error" and _outcome(effective_boolean_value, value) is True
        assert verdict is expected


# ----------------------------------------------------------------------
# compile once per operator: counts on the FEASIBLE suite, no clocks
# ----------------------------------------------------------------------
class TestCompileCounts:
    """One warm pass of the 77 FEASIBLE queries on a fresh engine, at the
    benchmark's tiny scale (0.2) and at twice that.  The expression
    compiler runs per operator, so its node compilations (``_value`` and
    ``_test`` calls) depend on the queries alone, while the rows double.
    The term-fallback metric and the dictionary decodes are what they were
    under the per-row tree walk it replaced (798 / 8 410 at scale 0.2,
    1 637 / 16 836 at 0.4): compiling changed how a conjunct runs, not
    which rows it runs on or what it decodes."""

    @staticmethod
    def _pass(monkeypatch, scale):
        from repro.engine import create_engine
        from repro.sparql import expressions
        from repro.sparql.profile import ExecutionProfile
        from repro.workloads.feasible import feasible_queries, generate_swdf_graph

        dataset = generate_swdf_graph(
            n_people=max(20, int(150 * scale)),
            n_papers=max(25, int(220 * scale)),
            n_conferences=max(4, int(14 * scale)),
            n_organisations=max(5, int(30 * scale)),
            seed=3,
        )
        queries = [query.text for query in feasible_queries(seed=5)]
        for text in queries:  # warm-up, on an engine of its own
            create_engine(dataset).query(text)
        compiles = {"_value": 0, "_test": 0}
        for name in compiles:
            original = getattr(expressions, name)

            def counted(expression, reader, original=original, name=name):
                compiles[name] += 1
                return original(expression, reader)

            monkeypatch.setattr(expressions, name, counted)
        dictionaries = {
            id(graph.dictionary): graph.dictionary.enable_counters()
            for graph in (dataset.default_graph, *dataset.named_graphs.values())
        }
        engine = create_engine(dataset, ExecutionProfile.FULL)
        rows = 0
        for text in queries:
            result = engine.query(text)
            rows += 1 if isinstance(result, bool) else len(result)
        monkeypatch.undo()
        decodes = sum(counters.decodes for counters in dictionaries.values())
        return compiles, engine.metrics()["sparql_filter_term_fallbacks_total"], decodes, rows

    def test_compiles_depend_on_the_queries_not_the_rows(self, monkeypatch):
        small = self._pass(monkeypatch, 0.2)
        large = self._pass(monkeypatch, 0.4)
        assert small == ({"_value": 91, "_test": 42}, 798, 8410, 1112)
        assert large == ({"_value": 91, "_test": 42}, 1637, 16836, 2132)
